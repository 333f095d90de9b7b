//===--- bench_fig11_scalability.cpp - Paper Fig. 11 / §IV-E (E9) ---------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
// Regenerates the state-explosion study and paper claim 5:
//  - the *unoptimised* compiled Fig. 11 (GOT loads, stack scaffolding)
//    exhausts the simulation budget -- the analogue of herd not
//    terminating within an hour: every GOT load is a memory read whose
//    unresolvable address forces the enumerator to consider all writes;
//  - the s2l-optimised test simulates in milliseconds;
//  - timing sweeps over thread count show the optimised path scaling;
//  - a -j sweep over the sharded enumeration engine shows the parallel
//    speedup (SimOptions::Jobs) with bit-identical outcome sets.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "asmcore/Semantics.h"
#include "core/Campaign.h"
#include "core/Telechat.h"
#include "dist/Relay.h"
#include "dist/Worker.h"
#include "dist/WorkServer.h"
#include "diy/Classics.h"
#include "diy/Config.h"
#include "litmus/Parser.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

using namespace telechat;
using namespace telechat_bench;

namespace {

/// A 4-thread workload whose candidate space (~31k enumeration steps) is
/// large enough to amortise sharding yet completes within budget, so the
/// jobs sweep can assert bit-identical outcome sets.
const char *ScalabilityWorkload = R"(C jobs_sweep
{ *x = 0; *y = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed); }
void P1(atomic_int* x) { atomic_store_explicit(x, 3, memory_order_relaxed);
  atomic_store_explicit(x, 4, memory_order_relaxed); }
void P2(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed); }
void P3(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
  int r2 = atomic_load_explicit(x, memory_order_relaxed); }
exists (P2:r0=2 /\ P3:r0=1)
)";

SimProgram scalabilityProgram() {
  ErrorOr<LitmusTest> T = parseLitmusC(ScalabilityWorkload);
  if (!T) {
    fprintf(stderr, "fatal: scalability workload fails to parse: %s\n",
            T.error().c_str());
    exit(1);
  }
  return lowerLitmusC(*T);
}

Profile llvmO3() {
  return Profile::current(CompilerKind::Llvm, OptLevel::O3, Arch::AArch64);
}

/// Compiles a figure test and returns the lowered simulation program,
/// optionally s2l-optimised.
SimProgram prepare(const LitmusTest &T, bool Optimise) {
  LitmusTest Prepared = augmentLocalObservations(T);
  ErrorOr<CompileOutput> Compiled = compileLitmus(Prepared, llvmO3());
  AsmLitmusTest Asm = Compiled->Asm;
  if (Optimise)
    Asm = optimiseAsmLitmus(std::move(Asm));
  ErrorOr<SimProgram> Lowered = lowerAsmTest(Asm);
  return *Lowered;
}

void BM_OptimisedLB2(benchmark::State &State) {
  SimProgram P = prepare(paperFig7(), /*Optimise=*/true);
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "aarch64");
    benchmark::DoNotOptimize(R.Allowed.size());
  }
}
BENCHMARK(BM_OptimisedLB2);

void BM_OptimisedLB3_Fig11(benchmark::State &State) {
  SimProgram P = prepare(paperFig11(), /*Optimise=*/true);
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "aarch64");
    benchmark::DoNotOptimize(R.Allowed.size());
  }
}
BENCHMARK(BM_OptimisedLB3_Fig11);

void BM_SourceSimulationFig11(benchmark::State &State) {
  LitmusTest T = paperFig11();
  for (auto _ : State) {
    SimResult R = simulateC(T, "rc11");
    benchmark::DoNotOptimize(R.Allowed.size());
  }
}
BENCHMARK(BM_SourceSimulationFig11);

/// The -j sweep: the same completing workload under rc11 at 1..N workers.
void BM_ShardedEnumeration_Jobs(benchmark::State &State) {
  SimProgram P = scalabilityProgram();
  SimOptions Opts;
  Opts.Jobs = unsigned(State.range(0));
  uint64_t Steps = 0;
  SimStats Last;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    Steps = R.Stats.RfCandidates + R.Stats.CoCandidates;
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  State.counters["steps"] = double(Steps);
  State.counters["steps/s"] = benchmark::Counter(
      double(Steps) * State.iterations(), benchmark::Counter::kIsRate);
  State.counters["rf_sources_pruned"] = double(Last.RfSourcesPruned);
  State.counters["rf_pruned"] = double(Last.RfPruned);
  State.counters["cat_evals_avoided"] = double(Last.CatEvalsAvoided);
}
BENCHMARK(BM_ShardedEnumeration_Jobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Budget-bound throughput: the unoptimised (§IV-E explosion) Fig. 11,
/// time to exhaust a fixed step budget -- the herd-timeout regime where
/// extra cores buy proportionally more explored candidates per second.
void BM_RawFig11Budget_Jobs(benchmark::State &State) {
  SimProgram Raw = prepare(paperFig11(), /*Optimise=*/false);
  SimOptions Opts;
  Opts.Jobs = unsigned(State.range(0));
  Opts.MaxSteps = 100'000;
  for (auto _ : State) {
    SimResult R = simulateProgram(Raw, "aarch64", Opts);
    benchmark::DoNotOptimize(R.Stats.RfCandidates);
  }
}
BENCHMARK(BM_RawFig11Budget_Jobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Before/after for the per-candidate optimisations on the
/// enumeration-heavy configs: arg0 selects the workload (0 = 4-thread
/// rc11 sweep, 1 = compiled Fig. 11 under the aarch64 model), arg1
/// toggles rf pruning + incremental Cat evaluation. The exported
/// counters quantify the avoided work; the wall-clock delta between
/// arg1=0 and arg1=1 is the tentpole speedup.
void BM_EnumerationFeatures(benchmark::State &State) {
  SimProgram P = State.range(0) == 0
                     ? scalabilityProgram()
                     : prepare(paperFig11(), /*Optimise=*/true);
  const char *Model = State.range(0) == 0 ? "rc11" : "aarch64";
  SimOptions Opts;
  Opts.RfValuePruning = State.range(1) != 0;
  Opts.IncrementalCatEval = State.range(1) != 0;
  SimStats Last;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, Model, Opts);
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  State.counters["rf_candidates"] = double(Last.RfCandidates);
  State.counters["rf_sources_pruned"] = double(Last.RfSourcesPruned);
  State.counters["rf_pruned"] = double(Last.RfPruned);
  State.counters["cat_evals_avoided"] = double(Last.CatEvalsAvoided);
}
BENCHMARK(BM_EnumerationFeatures)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

/// Explore-oracle convergence: outcomes discovered vs iteration budget
/// on the 4-thread IRIW shape, with the exhaustive sweep's set size as
/// the asymptote (`exhaustive`). Exported to the bench JSON so
/// coverage-per-budget trends are diffable across commits; a reported
/// outcome outside the exhaustive set fails the run.
void BM_ExploreBudgetSweep(benchmark::State &State) {
  SimProgram P = lowerLitmusC(classicTest("IRIW"));
  SimResult Sweep = simulateProgram(P, "rc11");
  SimOptions Opts;
  Opts.Backend = SimBackendKind::Explore;
  Opts.ExploreIterations = uint64_t(State.range(0));
  SimStats Last;
  size_t Outcomes = 0;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    for (const Outcome &O : R.Allowed)
      if (!Sweep.Allowed.count(O)) {
        State.SkipWithError("explore reported an outcome outside the "
                            "exhaustive set");
        return;
      }
    Last = R.Stats;
    Outcomes = R.Allowed.size();
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  State.counters["outcomes"] = double(Outcomes);
  State.counters["exhaustive"] = double(Sweep.Allowed.size());
  State.counters["explore_iterations"] = double(Last.ExploreIterations);
  State.counters["explore_schedules"] = double(Last.ExploreSchedules);
}
BENCHMARK(BM_ExploreBudgetSweep)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// The distributed campaign corpus: a diy-generated slice plus classics,
/// sized so one loopback campaign takes fractions of a second.
std::vector<LitmusTest> distCorpus() {
  SuiteConfig Config = SuiteConfig::c11();
  Config.Limit = fullScale() ? 48 : 16;
  std::vector<LitmusTest> Tests = generateSuite(Config);
  for (const char *Name : {"MP", "SB", "LB", "WRC"})
    Tests.push_back(classicTest(Name));
  return Tests;
}

/// One full loopback campaign: server + N in-process workers (2 executor
/// threads each, so worker count -- not local pool width -- is the swept
/// variable). Exports wall-clock vs worker count into the bench JSON,
/// the distributed analogue of the -j sweep above.
void BM_DistributedCampaign_Workers(benchmark::State &State) {
  std::vector<LitmusTest> Tests = distCorpus();
  Profile P = llvmO3();
  std::vector<CampaignConfig> Configs{{P, TestOptions(), false}};
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  unsigned NWorkers = unsigned(State.range(0));
  uint64_t Requeues = 0, Served = 0, Wakeups = 0;
  LeaseSizing Sizing;
  WorkServerOptions SOpts;
  SOpts.WaitRetryMs = 5; // Sub-second campaigns: tail waits would drown
                         // the signal at the default 50ms.
  for (auto _ : State) {
    WorkServer Server(Units, Configs, SOpts);
    if (!Server.start().empty()) {
      State.SkipWithError("work server failed to bind");
      return;
    }
    uint16_t Port = Server.port();
    CampaignReport Report;
    std::thread Srv([&] { Report = Server.run(); });
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W != NWorkers; ++W)
      Workers.emplace_back([Port] {
        WorkerOptions WOpts;
        WOpts.Jobs = 2;
        runCampaignWorker("127.0.0.1", Port, WOpts);
      });
    for (std::thread &W : Workers)
      W.join();
    Srv.join();
    Requeues += Report.Requeues;
    Served = Report.Units;
    Wakeups = Report.PollWakeups;
    Sizing = Report.Sizing;
    benchmark::DoNotOptimize(Report.Results.size());
  }
  State.counters["units"] = double(Served);
  State.counters["units/s"] = benchmark::Counter(
      double(Served) * State.iterations(), benchmark::Counter::kIsRate);
  State.counters["requeues"] = double(Requeues);
  State.counters["poll_wakeups"] = double(Wakeups);
  State.counters["lease_size_min"] = double(Sizing.Min);
  State.counters["lease_size_max"] = double(Sizing.Max);
  State.counters["lease_size_final"] = double(Sizing.Final);
}
BENCHMARK(BM_DistributedCampaign_Workers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The tiered topology: 1 server x N relays x M workers per relay
/// (arg0 = N, arg1 = M), the 1xNxM extension of the flat 1xN sweep
/// above. Each relay fronts the server as a single well-behaved worker
/// while its own workers lease through it; wall-clock vs (N, M) shows
/// what the extra tier costs (or hides, once the server would otherwise
/// convoy on connection count).
void BM_RelayedCampaign_Tiers(benchmark::State &State) {
  std::vector<LitmusTest> Tests = distCorpus();
  Profile P = llvmO3();
  std::vector<CampaignConfig> Configs{{P, TestOptions(), false}};
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  unsigned NRelays = unsigned(State.range(0));
  unsigned NWorkers = unsigned(State.range(1));
  WorkServerOptions SOpts;
  SOpts.WaitRetryMs = 5; // See BM_DistributedCampaign_Workers.
  uint64_t Served = 0, Relayed = 0, Wakeups = 0;
  for (auto _ : State) {
    WorkServer Server(Units, Configs, SOpts);
    if (!Server.start().empty()) {
      State.SkipWithError("work server failed to bind");
      return;
    }
    uint16_t Port = Server.port();
    CampaignReport Report;
    std::thread Srv([&] { Report = Server.run(); });

    std::vector<std::unique_ptr<Relay>> Relays;
    std::vector<RelayReport> RReports(NRelays);
    std::vector<std::thread> RelayThreads;
    for (unsigned R = 0; R != NRelays; ++R) {
      RelayOptions ROpts;
      ROpts.UpstreamPort = Port;
      ROpts.WaitRetryMs = 5;
      Relays.push_back(std::make_unique<Relay>(ROpts));
      if (!Relays.back()->start().empty()) {
        State.SkipWithError("relay failed to start");
        return;
      }
    }
    for (unsigned R = 0; R != NRelays; ++R)
      RelayThreads.emplace_back(
          [&, R] { RReports[R] = Relays[R]->run(); });

    std::vector<std::thread> Workers;
    for (unsigned R = 0; R != NRelays; ++R) {
      uint16_t RPort = Relays[R]->port();
      for (unsigned W = 0; W != NWorkers; ++W)
        Workers.emplace_back([RPort] {
          WorkerOptions WOpts;
          WOpts.Jobs = 2;
          runCampaignWorker("127.0.0.1", RPort, WOpts);
        });
    }
    for (std::thread &W : Workers)
      W.join();
    for (std::thread &T : RelayThreads)
      T.join();
    Srv.join();

    Served = Report.Units;
    Wakeups = Report.PollWakeups;
    Relayed = 0;
    for (const RelayReport &RR : RReports)
      Relayed += RR.UnitsRelayed;
    benchmark::DoNotOptimize(Report.Results.size());
  }
  State.counters["units"] = double(Served);
  State.counters["units/s"] = benchmark::Counter(
      double(Served) * State.iterations(), benchmark::Counter::kIsRate);
  State.counters["units_relayed"] = double(Relayed);
  State.counters["poll_wakeups"] = double(Wakeups);
}
BENCHMARK(BM_RelayedCampaign_Tiers)
    ->Args({1, 2})
    ->Args({2, 1})
    ->Args({2, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  header("Fig. 11 / §IV-E: simulation scalability and the s2l optimiser");

  // Claim-5 demonstration outside the timed loops.
  {
    SimProgram Opt = prepare(paperFig11(), true);
    SimResult R = simulateProgram(Opt, "aarch64");
    printf("\noptimised Fig. 11 (3-thread LB): %zu outcomes in %.2f ms "
           "(paper: ~3 ms)\n",
           R.Allowed.size(), R.Stats.Seconds * 1e3);

    SimProgram Raw = prepare(paperFig11(), false);
    unsigned RawEvents = 0, OptEvents = 0;
    for (const SimThread &T : Raw.Threads)
      for (const SimOp &Op : T.Paths.front().Ops)
        RawEvents += Op.K == SimOp::Kind::Load ||
                     Op.K == SimOp::Kind::Store ||
                     Op.K == SimOp::Kind::Rmw;
    for (const SimThread &T : Opt.Threads)
      for (const SimOp &Op : T.Paths.front().Ops)
        OptEvents += Op.K == SimOp::Kind::Load ||
                     Op.K == SimOp::Kind::Store ||
                     Op.K == SimOp::Kind::Rmw;
    printf("events per path: unoptimised %u vs optimised %u\n", RawEvents,
           OptEvents);

    SimOptions Budget;
    Budget.MaxSteps = fullScale() ? 50'000'000 : 2'000'000;
    Budget.TimeoutSeconds = fullScale() ? 60.0 : 10.0;
    SimResult RawRun = simulateProgram(Raw, "aarch64", Budget);
    printf("unoptimised Fig. 11: %s after %.2f s and %llu rf candidates\n",
           RawRun.TimedOut ? "TIMEOUT (budget exhausted, like herd's "
                             "1-hour timeout)"
                           : "completed (UNEXPECTED at this size)",
           RawRun.Stats.Seconds,
           static_cast<unsigned long long>(RawRun.Stats.RfCandidates));
    printf("-> 'Using Télétchat, simulating the compiled Fig. 11 "
           "terminates in milliseconds' (claim 5): %s\n",
           (!R.TimedOut && RawRun.TimedOut) ? "REPRODUCED" : "NOT shown");
  }

  // Parallel sharded enumeration: sweep SimOptions::Jobs on a workload
  // that completes, so outcome sets must be bit-identical across -j.
  bool Identical = true;
  {
    unsigned HW = resolveJobs(0);
    printf("\nsharded enumeration -j sweep (%u hardware threads):\n", HW);
    SimProgram P = scalabilityProgram();
    SimOptions Base;
    SimResult Ref = simulateProgram(P, "rc11", Base);
    double T1 = 0.0;
    std::vector<unsigned> Sweep;
    for (unsigned J = 1; J < HW; J *= 2)
      Sweep.push_back(J);
    Sweep.push_back(HW); // always measure full hardware parallelism
    for (unsigned J : Sweep) {
      SimOptions Opts;
      Opts.Jobs = J;
      auto S = std::chrono::steady_clock::now();
      SimResult R = simulateProgram(P, "rc11", Opts);
      double Secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - S)
                        .count();
      if (J == 1)
        T1 = Secs;
      bool Same = R.Allowed == Ref.Allowed && R.Flags == Ref.Flags &&
                  R.TimedOut == Ref.TimedOut;
      Identical = Identical && Same;
      printf("  -j %-3u %8.1f ms  speedup %5.2fx  outcomes %s\n", J,
             Secs * 1e3, T1 / Secs, Same ? "identical" : "DIFFERENT!");
    }
    printf("-> allowed-outcome sets bit-identical across -j: %s\n",
           Identical ? "yes" : "NO (BUG)");
  }

  // Incremental Cat evaluation + rf pruning: before/after on the
  // enumeration-heavy configs, gated on outcome identity like the -j
  // sweep above.
  {
    printf("\nincremental-eval + rf-pruning before/after:\n");
    struct Config {
      const char *Name;
      SimProgram Prog;
      const char *Model;
    };
    std::vector<Config> Configs;
    Configs.push_back({"4-thread rc11 sweep", scalabilityProgram(), "rc11"});
    Configs.push_back(
        {"optimised Fig. 11 (aarch64)", prepare(paperFig11(), true),
         "aarch64"});
    for (Config &C : Configs) {
      SimOptions Off;
      Off.RfValuePruning = false;
      Off.IncrementalCatEval = false;
      auto S0 = std::chrono::steady_clock::now();
      SimResult Before = simulateProgram(C.Prog, C.Model, Off);
      double TOff = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - S0)
                        .count();
      auto S1 = std::chrono::steady_clock::now();
      SimResult After = simulateProgram(C.Prog, C.Model);
      double TOn = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - S1)
                       .count();
      bool Same = Before.Allowed == After.Allowed &&
                  Before.Flags == After.Flags &&
                  Before.TimedOut == After.TimedOut;
      Identical = Identical && Same;
      printf("  %-28s %8.1f ms -> %8.1f ms  speedup %5.2fx  outcomes %s\n"
             "  %-28s rf %llu -> %llu, rf-pruned %llu, cat evals avoided "
             "%llu\n",
             C.Name, TOff * 1e3, TOn * 1e3, TOff / TOn,
             Same ? "identical" : "DIFFERENT!", "",
             static_cast<unsigned long long>(Before.Stats.RfCandidates),
             static_cast<unsigned long long>(After.Stats.RfCandidates),
             static_cast<unsigned long long>(After.Stats.RfPruned),
             static_cast<unsigned long long>(After.Stats.CatEvalsAvoided));
    }
    printf("-> outcome sets bit-identical with optimisations on vs off: "
           "%s\n",
           Identical ? "yes" : "NO (BUG)");
  }

  // Distributed campaign engine: 1 server x N loopback workers over a
  // diy-generated corpus, gated (like the -j sweep) on the merged report
  // being bit-identical to the local batch driver.
  {
    std::vector<LitmusTest> Tests = distCorpus();
    Profile P = llvmO3();
    TestOptions O;
    printf("\ndistributed campaign sweep (%zu units, loopback workers "
           "with 2 threads each):\n",
           Tests.size());
    auto S0 = std::chrono::steady_clock::now();
    std::vector<TelechatResult> Local = runTelechatMany(Tests, P, O, 2);
    double TLocal = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - S0)
                        .count();
    printf("  local -j 2            %8.1f ms (baseline)\n", TLocal * 1e3);
    std::vector<CampaignConfig> Configs{{P, O, false}};
    std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
    WorkServerOptions SOpts;
    SOpts.WaitRetryMs = 5; // See BM_DistributedCampaign_Workers.
    for (unsigned N : {1u, 2u, 4u}) {
      WorkServer Server(Units, Configs, SOpts);
      if (!Server.start().empty()) {
        printf("  work server failed to bind; skipping\n");
        break;
      }
      uint16_t Port = Server.port();
      CampaignReport Report;
      auto S1 = std::chrono::steady_clock::now();
      std::thread Srv([&] { Report = Server.run(); });
      std::vector<std::thread> Workers;
      for (unsigned W = 0; W != N; ++W)
        Workers.emplace_back([Port] {
          WorkerOptions WOpts;
          WOpts.Jobs = 2;
          runCampaignWorker("127.0.0.1", Port, WOpts);
        });
      for (std::thread &W : Workers)
        W.join();
      Srv.join();
      double Secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - S1)
                        .count();
      bool Same = Report.Results.size() == Local.size();
      for (size_t I = 0; Same && I != Local.size(); ++I)
        Same = Local[I].SourceSim.Allowed ==
                   Report.Results[I].SourceSim.Allowed &&
               Local[I].TargetSim.Allowed ==
                   Report.Results[I].TargetSim.Allowed &&
               Local[I].Compare.K == Report.Results[I].Compare.K;
      Identical = Identical && Same;
      printf("  1 server x %u workers %8.1f ms  vs local %5.2fx  merged "
             "%s\n",
             N, Secs * 1e3, TLocal / Secs,
             Same ? "identical" : "DIFFERENT!");
    }

    // The tiered topology (1 server x N relays x M workers each) must
    // merge the exact same bytes as the flat one: the relay's raison
    // d'etre is being invisible in the results.
    for (auto [NRelays, NWorkers] : {std::pair<unsigned, unsigned>{1, 2},
                                     std::pair<unsigned, unsigned>{2, 2}}) {
      WorkServer Server(Units, Configs, SOpts);
      if (!Server.start().empty()) {
        printf("  work server failed to bind; skipping\n");
        break;
      }
      uint16_t Port = Server.port();
      CampaignReport Report;
      auto S1 = std::chrono::steady_clock::now();
      std::thread Srv([&] { Report = Server.run(); });
      std::vector<std::unique_ptr<Relay>> Relays;
      std::vector<std::thread> RelayThreads;
      bool RelaysUp = true;
      for (unsigned R = 0; R != NRelays; ++R) {
        RelayOptions ROpts;
        ROpts.UpstreamPort = Port;
        ROpts.WaitRetryMs = 5;
        Relays.push_back(std::make_unique<Relay>(ROpts));
        if (!Relays.back()->start().empty()) {
          printf("  relay failed to start; skipping\n");
          RelaysUp = false;
          break;
        }
      }
      if (!RelaysUp) {
        // Unblock the server with direct workers so Srv can join.
        WorkerOptions WOpts;
        WOpts.Jobs = 2;
        runCampaignWorker("127.0.0.1", Port, WOpts);
        Srv.join();
        break;
      }
      for (std::unique_ptr<Relay> &R : Relays)
        RelayThreads.emplace_back([&R] { R->run(); });
      std::vector<std::thread> Workers;
      for (std::unique_ptr<Relay> &R : Relays) {
        uint16_t RPort = R->port();
        for (unsigned W = 0; W != NWorkers; ++W)
          Workers.emplace_back([RPort] {
            WorkerOptions WOpts;
            WOpts.Jobs = 2;
            runCampaignWorker("127.0.0.1", RPort, WOpts);
          });
      }
      for (std::thread &W : Workers)
        W.join();
      for (std::thread &T : RelayThreads)
        T.join();
      Srv.join();
      double Secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - S1)
                        .count();
      bool Same = Report.Results.size() == Local.size();
      for (size_t I = 0; Same && I != Local.size(); ++I)
        Same = Local[I].SourceSim.Allowed ==
                   Report.Results[I].SourceSim.Allowed &&
               Local[I].TargetSim.Allowed ==
                   Report.Results[I].TargetSim.Allowed &&
               Local[I].Compare.K == Report.Results[I].Compare.K;
      Identical = Identical && Same;
      printf("  1 server x %u relays x %u workers %8.1f ms  vs local "
             "%5.2fx  merged %s\n",
             NRelays, NWorkers, Secs * 1e3, TLocal / Secs,
             Same ? "identical" : "DIFFERENT!");
    }
    printf("-> distributed merge bit-identical to the local driver "
           "(flat and relayed): %s\n",
           Identical ? "yes" : "NO (BUG)");
  }

  // Explore oracle: the sound-subset gate on the bench workloads, plus
  // convergence on IRIW within the default budget (the same contracts
  // tests/explore_test.cpp pins on 200 generated seeds).
  {
    printf("\nexplore-oracle coverage (default iteration budget):\n");
    struct Workload {
      const char *Name;
      SimProgram Prog;
      bool MustConverge;
    };
    std::vector<Workload> Ws;
    Ws.push_back({"IRIW", lowerLitmusC(classicTest("IRIW")), true});
    Ws.push_back({"4-thread rc11 sweep", scalabilityProgram(), false});
    for (Workload &C : Ws) {
      SimResult Sweep = simulateProgram(C.Prog, "rc11");
      SimOptions Opts;
      Opts.Backend = SimBackendKind::Explore;
      SimResult Exp = simulateProgram(C.Prog, "rc11", Opts);
      bool Subset = true;
      for (const Outcome &O : Exp.Allowed)
        Subset = Subset && Sweep.Allowed.count(O) != 0;
      bool Ok = Subset &&
                (!C.MustConverge || Exp.Allowed == Sweep.Allowed);
      Identical = Identical && Ok;
      printf("  %-24s %zu/%zu outcomes, %llu schedules in %llu "
             "iterations  %s\n",
             C.Name, Exp.Allowed.size(), Sweep.Allowed.size(),
             static_cast<unsigned long long>(Exp.Stats.ExploreSchedules),
             static_cast<unsigned long long>(Exp.Stats.ExploreIterations),
             !Subset ? "UNSOUND!"
                     : Ok ? (Exp.Allowed.size() == Sweep.Allowed.size()
                                 ? "converged"
                                 : "sound subset")
                          : "NOT CONVERGED");
    }
    printf("-> explore outcomes provably within the exhaustive sets: "
           "%s\n",
           Identical ? "yes" : "NO (BUG)");
  }

  printf("\nTimed sections (google-benchmark):\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // A determinism regression must fail the CI smoke step, not just
  // print; the sweeps above are the gate.
  return Identical ? 0 : 1;
}
