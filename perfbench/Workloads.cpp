//===--- Workloads.cpp - The campaign benchmark's workloads ---------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// A run is: set-up (timed, ends when the first unit reaches a lane), one
// warm-up pass whose per-unit digests become the reference, timed passes
// until the run length has elapsed, then verification outside the timed
// phase. A pass is one whole campaign over the workload's fixed unit set,
// so every pass does the same work and per-pass figures can be compared;
// end-to-end figures are medians over passes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Mirror.h"
#include "Trace.h"

#include "compiler/Profile.h"
#include "core/Campaign.h"
#include "diy/Generator.h"
#include "diy/RealWorld.h"
#include "dist/Journal.h"
#include "dist/Serialize.h"
#include "dist/WorkServer.h"
#include "dist/Worker.h"
#include "litmus/Canon.h"
#include "models/Registry.h"
#include "sim/CFrontend.h"
#include "support/ThreadPool.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

using namespace telechat;
using namespace perfbench;

namespace {

/// Lanes of the local workloads: one per vCPU of the 4-vCPU reference
/// host. At 2 lanes the run-to-run spread of every end-to-end figure
/// doubled there (see README.md).
constexpr unsigned LocalLanes = 4;
/// Worker lanes of served-sim: with the server thread and the worker's
/// session thread the process stays at 4 threads.
constexpr unsigned ServedLanes = 2;
/// Timed passes a run makes at least, whatever its length. A traced run
/// alternates untraced and traced passes until it has this many traced
/// ones, which bounds the spans it keeps.
constexpr size_t MinPasses = 3;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

int64_t nsOf(Clock::duration D) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(D).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolation percentile of a sorted sample.
double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Pos = P * double(Sorted.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - double(Lo));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Host CPU time counters from /proc/stat: steal and total jiffies.
std::pair<uint64_t, uint64_t> readCpuJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  if (Cpu != "cpu")
    return {0, 0};
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  uint64_t F[8] = {};
  for (uint64_t &V : F)
    In >> V;
  uint64_t Total = 0;
  for (uint64_t V : F)
    Total += V;
  return {F[7], Total};
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

/// Thread-safe record of every check and every failing unit.
class Checker {
public:
  explicit Checker(RunReport &R) : Report(R) {}

  /// Counts one examined unit under check \p Name.
  bool check(bool Ok, const std::string &Name, const std::string &Where,
             const std::string &Why) {
    std::lock_guard<std::mutex> Lock(M);
    ++Report.ChecksRun[Name];
    if (!Ok && Report.Failures.size() < 20)
      Report.Failures.push_back(Name + ": " + Where + ": " + Why);
    return Ok;
  }
  /// A campaign-level check: counts as one attempted item.
  void campaign(bool Ok, const std::string &Name, const std::string &Why) {
    check(Ok, Name, "campaign", Why);
    std::lock_guard<std::mutex> Lock(M);
    ++Report.Attempted;
    if (!Ok)
      ++Report.Failed;
  }
  void unitDone(bool Ok) {
    std::lock_guard<std::mutex> Lock(M);
    ++Report.Attempted;
    if (!Ok)
      ++Report.Failed;
  }

private:
  std::mutex M;
  RunReport &Report;
};

/// The checks on one unit's result; the unit counts as failed if any of
/// them fails.
class UnitChecks {
public:
  UnitChecks(Checker &C, uint64_t Id, const std::string &Test)
      : C(C), Where("unit " + std::to_string(Id) + " (" + Test + ")") {}
  ~UnitChecks() { C.unitDone(AllOk); }
  UnitChecks(const UnitChecks &) = delete;
  UnitChecks &operator=(const UnitChecks &) = delete;

  void expect(bool Ok, const std::string &Name, const std::string &Why) {
    AllOk &= C.check(Ok, Name, Where, Why);
  }

private:
  Checker &C;
  std::string Where;
  bool AllOk = true;
};

//===----------------------------------------------------------------------===//
// Unit sources and passes
//===----------------------------------------------------------------------===//

/// When this lane last obtained a unit: the start of its time to verdict.
thread_local Clock::time_point LaneHandout;
/// First unit handed out in this process (ns after ProcessEntry): the end
/// of set-up. -1 until then.
std::atomic<int64_t> FirstHandoutNs{-1};

/// Wraps the workload's source: times next() (the executor's and the
/// server's only view of the source), stamps the handout time, and can
/// stop after \p Limit units (set-up-only runs).
class TimedSource final : public UnitSource {
public:
  explicit TimedSource(std::unique_ptr<UnitSource> Inner,
                       uint64_t Limit = ~0ull)
      : Inner(std::move(Inner)), Limit(Limit) {}

  bool next(CampaignUnit &Out) override {
    Clock::time_point T0 = Clock::now();
    bool Got = Calls.fetch_add(1) < Limit && Inner->next(Out);
    Clock::time_point T1 = Clock::now();
    NextNs.fetch_add(nsOf(T1 - T0), std::memory_order_relaxed);
    if (Got) {
      LaneHandout = T1;
      Handed.fetch_add(1, std::memory_order_relaxed);
      int64_t Unset = -1;
      FirstHandoutNs.compare_exchange_strong(Unset, nsOf(T1 - ProcessEntry));
    }
    return Got;
  }
  uint64_t sizeHint() const override { return Inner->sizeHint(); }

  uint64_t handed() const { return Handed.load(); }
  double nextUs() const { return double(NextNs.load()) / 1e3; }

private:
  std::unique_ptr<UnitSource> Inner;
  uint64_t Limit;
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Handed{0};
  std::atomic<int64_t> NextNs{0};
};

/// Workload-specific checks on one result.
using ResultCheck = std::function<void(const CampaignUnit &,
                                       const TelechatResult &, UnitChecks &)>;

/// One pass, indexed by unit id.
struct Pass {
  double Seconds = 0.0;
  uint64_t Units = 0;
  std::vector<uint64_t> Digests;
  /// Time to verdict per unit, from the lane obtaining the unit to the
  /// result reaching the sink; -1 for units without a result.
  std::vector<double> LatencyMs;
  double NextUs = 0.0;   ///< Time inside UnitSource::next.
  uint64_t AsmInsts = 0; ///< Compiled instructions over all units.

  double rate() const { return Seconds > 0 ? double(Units) / Seconds : 0; }
};

/// How a pass checks its digests: against \p Ref under check \p Name,
/// or (no Ref) not at all -- the reference pass itself.
struct DigestCheck {
  const std::vector<uint64_t> *Ref = nullptr;
  const char *Name = "";
};

void checkDigest(const DigestCheck &D, uint64_t Id, uint64_t Digest,
                 UnitChecks &C) {
  if (!D.Ref)
    return;
  C.expect(Id < D.Ref->size() && (*D.Ref)[Id] == Digest, D.Name,
           "verdict/outcome/flag digest differs from the reference pass");
}

/// Drains a fresh source over \p Pool: untraced through the public
/// executor (runCampaignUnits), traced through the benchmark's mirror of
/// it on the same lanes.
Pass runLocalPass(std::unique_ptr<UnitSource> Inner,
                  const std::vector<CampaignConfig> &Configs,
                  ThreadPool &Pool, bool Traced, uint64_t Limit,
                  const DigestCheck &Digests, const ResultCheck &Extra,
                  Checker &Chk) {
  uint64_t Size = Inner->sizeHint();
  TimedSource Src(std::move(Inner), Limit);
  Pass P;
  P.Digests.assign(Size, 0);
  P.LatencyMs.assign(Size, -1.0);
  std::atomic<uint64_t> Units{0}, Insts{0};
  auto Sink = [&](const CampaignUnit &U, const TelechatResult &R) {
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          LaneHandout)
                    .count();
    UnitChecks C(Chk, U.Id, U.Test.Name);
    C.expect(U.Id < Size, "unit_ids", "id beyond the source's size hint");
    if (U.Id >= Size)
      return;
    uint64_t Digest = resultDigest(R);
    P.LatencyMs[U.Id] = Ms;
    P.Digests[U.Id] = Digest;
    Units.fetch_add(1, std::memory_order_relaxed);
    Insts.fetch_add(asmInstructions(R), std::memory_order_relaxed);
    C.expect(R.ok(), "no_error", R.Error);
    C.expect(!R.timedOut(), "no_timeout", "simulation budget exhausted");
    checkDigest(Digests, U.Id, Digest, C);
    if (Extra)
      Extra(U, R, C);
  };
  Clock::time_point T0 = Clock::now();
  if (!Traced) {
    runCampaignUnits(Src, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       Sink(U, R);
                     });
  } else {
    auto Lane = [&] {
      CampaignUnit U;
      while (Src.next(U))
        Sink(U, runTracedUnit(U, Configs));
    };
    for (unsigned L = 0; L != Pool.size(); ++L)
      Pool.submit(Lane);
    Pool.wait();
  }
  P.Seconds = since(T0);
  P.Units = Units.load();
  P.AsmInsts = Insts.load();
  P.NextUs = Src.nextUs();
  Chk.campaign(P.Units == Src.handed(), "all_units_answered",
               std::to_string(Src.handed() - P.Units) +
                   " units handed out without a result");
  return P;
}

/// Per-pass p50/p99 of the units' time to verdict, and how many samples
/// lie beyond the p99.
struct Percentiles {
  double P50 = 0.0, P99 = 0.0;
  size_t Samples = 0, BeyondP99 = 0;
};

Percentiles percentilesOf(const std::vector<double> &LatencyMs) {
  std::vector<double> S;
  S.reserve(LatencyMs.size());
  for (double V : LatencyMs)
    if (V >= 0)
      S.push_back(V);
  std::sort(S.begin(), S.end());
  Percentiles P;
  P.Samples = S.size();
  P.P50 = percentile(S, 0.50);
  P.P99 = percentile(S, 0.99);
  P.BeyondP99 = size_t(S.end() - std::upper_bound(S.begin(), S.end(), P.P99));
  return P;
}

/// What every workload reports, whatever its kind of pass.
struct TimedPhase {
  std::vector<double> Rates;       ///< Untraced passes, units/s.
  std::vector<double> TracedRates; ///< Traced passes, units/s.
  std::vector<Percentiles> Lat;    ///< Untraced passes.
  uint64_t Units = 0;              ///< Units over untraced passes.
  uint64_t UnitsPerPass = 0;
  double StealShare = 0.0;
  double PeakRssMb = 0.0;
};

/// The end-to-end metrics and diagnostics of a timed phase.
void reportEndToEnd(const TimedPhase &T, unsigned Lanes, RunReport &Out) {
  std::vector<double> P50, P99;
  size_t MinBeyond = ~size_t(0), Samples = 0;
  for (const Percentiles &P : T.Lat) {
    P50.push_back(P.P50);
    P99.push_back(P.P99);
    MinBeyond = std::min(MinBeyond, P.BeyondP99);
    Samples += P.Samples;
  }
  double SetupS = double(FirstHandoutNs.load()) / 1e9;
  Out.Metrics = {
      {"units_per_s", "1/s", median(T.Rates)},
      {"unit_p50_ms", "ms", median(P50)},
      {"unit_p99_ms", "ms", median(P99)},
      {"setup_s", "s", SetupS},
      {"peak_rss_mb", "MB", T.PeakRssMb},
  };
  auto Diag = [&](const char *K, const std::string &V) {
    Out.Diagnostics.emplace_back(K, V);
  };
  Diag("lanes", std::to_string(Lanes));
  Diag("passes", std::to_string(T.Rates.size()));
  Diag("units_per_pass", std::to_string(T.UnitsPerPass));
  Diag("units_timed", std::to_string(T.Units));
  Diag("latency_samples", std::to_string(Samples));
  Diag("min_samples_beyond_p99_per_pass",
       std::to_string(T.Lat.empty() ? 0 : MinBeyond));
  std::string Rates;
  for (double R : T.Rates)
    Rates += (Rates.empty() ? "" : ",") + fmt(R);
  Diag("pass_rates", Rates);
  Diag("host_steal_share", fmt(T.StealShare));
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

/// Every per-layer metric, in report order; each workload fills the ones
/// its layers exercise and leaves the rest at 0.
const std::vector<std::pair<const char *, const char *>> &perLayerNames() {
  static const std::vector<std::pair<const char *, const char *>> Names = {
      {"sim.source_us", "us"},
      {"sim.target_us", "us"},
      {"sim.us_per_co_candidate", "us"},
      {"sim.path_combos.source", "count"},
      {"sim.path_combos.target", "count"},
      {"sim.rf_candidates.source", "count"},
      {"sim.rf_candidates.target", "count"},
      {"sim.value_consistent.source", "count"},
      {"sim.value_consistent.target", "count"},
      {"sim.co_candidates.source", "count"},
      {"sim.co_candidates.target", "count"},
      {"sim.allowed_executions.source", "count"},
      {"sim.allowed_executions.target", "count"},
      {"sim.rf_pruned.source", "count"},
      {"sim.rf_pruned.target", "count"},
      {"sim.cat_evals_avoided.source", "count"},
      {"sim.cat_evals_avoided.target", "count"},
      {"sim.value_consistent_ratio.source", "ratio"},
      {"sim.value_consistent_ratio.target", "ratio"},
      {"sim.allowed_ratio.source", "ratio"},
      {"sim.allowed_ratio.target", "ratio"},
      {"compiler.c2s_us", "us"},
      {"compiler.asm_insts", "count"},
      {"core.l2c_us", "us"},
      {"core.s2l_parse_us", "us"},
      {"core.s2l_opt_us", "us"},
      {"core.mcompare_us", "us"},
      {"asmcore.lower_us", "us"},
      {"sim.lower_c_us", "us"},
      {"core.source_next_us", "us"},
      {"core.lane_busy_share", "ratio"},
      {"diy.gen_us", "us"},
      {"diy.suite_ms", "ms"},
      {"models.parse_ms", "ms"},
      {"litmus.canon_us", "us"},
      {"litmus.dedupe_share", "ratio"},
      {"dist.unit_encode_us", "us"},
      {"dist.unit_decode_us", "us"},
      {"dist.result_encode_us", "us"},
      {"dist.result_decode_us", "us"},
      {"dist.result_bytes", "bytes"},
      {"dist.journal_append_us", "us"},
      {"dist.poll_wakeups_per_unit", "count"},
      {"dist.round_trips_per_unit", "count"},
      {"dist.lease_size_final", "count"},
      {"dist.requeues", "count"},
      {"trace.overhead_share", "ratio"},
      {"trace.remainder_share", "ratio"},
  };
  return Names;
}

class LayerMetrics {
public:
  void set(const std::string &Name, double V) { Values[Name] = V; }

  /// Self time per unit of every span called \p Span.
  void setSelfUs(const std::string &Name,
                 const std::map<std::string, SpanTotals> &T,
                 const char *Span, uint64_t Units) {
    auto It = T.find(Span);
    set(Name, It == T.end() || !Units ? 0.0 : It->second.SelfUs / Units);
  }

  /// The sim.* block from the sim.source / sim.target spans.
  void setSim(const std::map<std::string, SpanTotals> &T, uint64_t Units) {
    if (!Units)
      return;
    double SimUs = 0.0, Co = 0.0;
    for (const char *Side : {"source", "target"}) {
      std::string Span = std::string("sim.") + Side;
      auto It = T.find(Span);
      if (It == T.end())
        continue;
      const SpanCounts &C = It->second.Counts;
      std::string Sfx = std::string(".") + Side;
      auto PerUnit = [&](uint64_t V) { return double(V) / double(Units); };
      set("sim.path_combos" + Sfx, PerUnit(C.PathCombos));
      set("sim.rf_candidates" + Sfx, PerUnit(C.RfCandidates));
      set("sim.value_consistent" + Sfx, PerUnit(C.ValueConsistent));
      set("sim.co_candidates" + Sfx, PerUnit(C.CoCandidates));
      set("sim.allowed_executions" + Sfx, PerUnit(C.AllowedExecutions));
      set("sim.rf_pruned" + Sfx, PerUnit(C.RfPruned));
      set("sim.cat_evals_avoided" + Sfx, PerUnit(C.CatEvalsAvoided));
      set("sim.value_consistent_ratio" + Sfx,
          C.RfCandidates ? double(C.ValueConsistent) / double(C.RfCandidates)
                         : 0.0);
      set("sim.allowed_ratio" + Sfx,
          C.CoCandidates ? double(C.AllowedExecutions) / double(C.CoCandidates)
                         : 0.0);
      setSelfUs(Span + "_us", T, Span.c_str(), Units);
      SimUs += It->second.SelfUs;
      Co += double(C.CoCandidates);
    }
    set("sim.us_per_co_candidate", Co ? SimUs / Co : 0.0);
  }

  /// Share of the per-unit span's time not covered by its child spans:
  /// the benchmark's own work around the library calls.
  void setRemainder(const std::map<std::string, SpanTotals> &T,
                    const char *Root) {
    auto It = T.find(Root);
    if (It != T.end() && It->second.TotalUs > 0)
      set("trace.remainder_share", It->second.SelfUs / It->second.TotalUs);
  }

  void emit(RunReport &Out) const {
    Out.Metrics.clear();
    for (const auto &[Name, Unit] : perLayerNames()) {
      auto It = Values.find(Name);
      Out.Metrics.push_back({Name, Unit, It == Values.end() ? 0.0 : It->second});
    }
  }

private:
  std::map<std::string, double> Values;
};

/// Mean time per test to draw a seeded diy stream (generation alone).
double generationUs(const RandomGenOptions &G) {
  RandomTestStream Stream(G);
  LitmusTest T;
  Clock::time_point T0 = Clock::now();
  while (Stream.next(T)) {
  }
  double Us = since(T0) * 1e6;
  return Stream.produced() ? Us / Stream.produced() : 0.0;
}

/// Cold parse of every model a workload uses, in ms.
double parseModels(const std::vector<std::string> &Models) {
  Clock::time_point T0 = Clock::now();
  for (const std::string &M : Models)
    getModel(M);
  return since(T0) * 1e3;
}

std::string writeTrace(const RunOptions &O, RunReport &Out) {
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".json";
  if (!writeChromeTrace(Path)) {
    Out.Failures.push_back("trace: cannot write " + Path);
    ++Out.Failed;
    return "";
  }
  return Path;
}

//===----------------------------------------------------------------------===//
// Local workloads: realworld-x4 and diy-stream
//===----------------------------------------------------------------------===//

struct LocalWorkload {
  std::vector<CampaignConfig> Configs;
  std::vector<std::string> Models;
  /// A fresh source over the workload's unit set (same units every call).
  std::function<std::unique_ptr<UnitSource>()> Source;
  /// Checks every pass applies besides errors, timeouts and digests.
  ResultCheck PassCheck;
  /// Known-answer checks too costly for the timed passes; the reference
  /// and verification passes apply them.
  ResultCheck KnownAnswer;
  /// Generation spec for diy.gen_us (diy-stream only).
  std::optional<RandomGenOptions> Gen;
  double SuiteMs = 0.0;
  double ModelsMs = 0.0;
};

ResultCheck both(ResultCheck A, ResultCheck B) {
  if (!A || !B)
    return A ? A : B;
  return [A, B](const CampaignUnit &U, const TelechatResult &R,
                UnitChecks &C) {
    A(U, R, C);
    B(U, R, C);
  };
}

RunReport runLocal(const RunOptions &O, LocalWorkload &W) {
  RunReport Out;
  Checker Chk(Out);
  W.ModelsMs = parseModels(W.Models);
  TimedPhase T;
  std::vector<Pass> Traced;
  std::vector<uint64_t> Ref;
  double TracedNextUs = 0.0;
  {
    ThreadPool Pool(LocalLanes);
    if (O.SetupOnly) {
      runLocalPass(W.Source(), W.Configs, Pool, false, 1, {}, nullptr, Chk);
      reportEndToEnd(T, LocalLanes, Out);
      return Out;
    }
    // Warm-up and reference: untimed, and the only 4-lane pass that runs
    // the known-answer checks.
    Pass WarmUp = runLocalPass(W.Source(), W.Configs, Pool, false, ~0ull, {},
                               both(W.PassCheck, W.KnownAnswer), Chk);
    Ref = WarmUp.Digests;
    T.UnitsPerPass = WarmUp.Units;

    auto [Steal0, Total0] = readCpuJiffies();
    Clock::time_point T0 = Clock::now();
    bool NextTraced = false;
    while (since(T0) < O.Seconds || T.Rates.size() < MinPasses ||
           (O.Trace && Traced.size() < MinPasses)) {
      bool Tr = O.Trace && NextTraced && Traced.size() < MinPasses;
      enableTracing(Tr);
      DigestCheck D{&Ref, Tr ? "digest_traced_mirror" : "digest_across_passes"};
      Pass P = runLocalPass(W.Source(), W.Configs, Pool, Tr, ~0ull, D,
                            W.PassCheck, Chk);
      Chk.campaign(P.Units == T.UnitsPerPass, "unit_count",
                   std::to_string(P.Units) + " units, reference pass had " +
                       std::to_string(T.UnitsPerPass));
      if (Tr) {
        T.TracedRates.push_back(P.rate());
        TracedNextUs += P.NextUs;
        Traced.push_back(std::move(P));
      } else {
        T.Rates.push_back(P.rate());
        T.Lat.push_back(percentilesOf(P.LatencyMs));
        T.Units += P.Units;
      }
      NextTraced = !NextTraced;
    }
    enableTracing(false);
    T.PeakRssMb = peakRssMb();
    auto [Steal1, Total1] = readCpuJiffies();
    T.StealShare = Total1 > Total0 ? double(Steal1 - Steal0) /
                                         double(Total1 - Total0)
                                   : 0.0;
  }

  // Verification outside the timed phase: one lane, every unit, every
  // check.
  {
    ThreadPool One(1);
    runLocalPass(W.Source(), W.Configs, One, false, ~0ull,
                 {&Ref, "digest_one_lane"}, both(W.PassCheck, W.KnownAnswer),
                 Chk);
  }

  if (!O.Trace) {
    reportEndToEnd(T, LocalLanes, Out);
    return Out;
  }

  // Per-layer figures from the traced passes.
  std::map<std::string, SpanTotals> Spans = spanTotals();
  uint64_t Units = 0, Insts = 0;
  double WallS = 0.0;
  for (const Pass &P : Traced) {
    Units += P.Units;
    Insts += P.AsmInsts;
    WallS += P.Seconds;
  }
  LayerMetrics L;
  L.setSim(Spans, Units);
  L.setSelfUs("compiler.c2s_us", Spans, span::C2S, Units);
  L.set("compiler.asm_insts", Units ? double(Insts) / double(Units) : 0.0);
  L.setSelfUs("core.l2c_us", Spans, span::L2C, Units);
  L.setSelfUs("core.s2l_parse_us", Spans, span::S2LParse, Units);
  L.setSelfUs("core.s2l_opt_us", Spans, span::S2LOpt, Units);
  L.setSelfUs("core.mcompare_us", Spans, span::MCompare, Units);
  L.setSelfUs("asmcore.lower_us", Spans, span::LowerAsm, Units);
  L.setSelfUs("sim.lower_c_us", Spans, span::LowerC, Units);
  L.set("core.source_next_us", Units ? TracedNextUs / double(Units) : 0.0);
  auto UnitSpan = Spans.find(span::Unit);
  if (UnitSpan != Spans.end() && WallS > 0)
    L.set("core.lane_busy_share",
          UnitSpan->second.TotalUs / 1e6 / (LocalLanes * WallS));
  if (W.Gen)
    L.set("diy.gen_us", generationUs(*W.Gen));
  L.set("diy.suite_ms", W.SuiteMs);
  L.set("models.parse_ms", W.ModelsMs);
  L.set("trace.overhead_share",
        1.0 - median(T.TracedRates) / median(T.Rates));
  L.setRemainder(Spans, span::Unit);
  L.emit(Out);
  Out.Diagnostics.emplace_back("traced_passes", std::to_string(Traced.size()));
  Out.Diagnostics.emplace_back("traced_units", std::to_string(Units));
  Out.TracePath = writeTrace(O, Out);
  return Out;
}

Profile profileNamed(const std::string &Name) {
  Profile P;
  if (!profileFromName(Name, P)) {
    std::fprintf(stderr, "error: unknown profile %s\n", Name.c_str());
    std::exit(2);
  }
  return P;
}

RunReport runRealWorldX4(const RunOptions &O) {
  LocalWorkload W;
  const std::vector<std::string> ProfileNames = {
      "llvm-O2-AArch64", "gcc-O3-x86-64", "gcc-O2-ARMv7", "llvm-O3-PPC"};
  Clock::time_point T0 = Clock::now();
  std::vector<RealWorldCase> Suite = realWorldSuite();
  W.SuiteMs = since(T0) * 1e3;
  if (O.Smoke) {
    std::vector<RealWorldCase> Few;
    for (size_t I = 0; I < Suite.size(); I += 16)
      Few.push_back(Suite[I]);
    Suite = std::move(Few);
  }
  std::vector<LitmusTest> Tests;
  auto Status = std::make_shared<std::vector<WeakStatus>>();
  for (const RealWorldCase &C : Suite) {
    Tests.push_back(C.Test);
    Status->push_back(C.Status);
  }
  W.Models = {"rc11"};
  for (const std::string &Name : ProfileNames) {
    Profile P = profileNamed(Name);
    W.Configs.push_back(CampaignConfig{P, TestOptions(), false});
    W.Models.push_back(archModelName(P.Target));
  }
  auto Units = std::make_shared<std::vector<CampaignUnit>>(
      makeCampaignUnits(Tests, uint32_t(ProfileNames.size()), true));
  W.Source = [Units] { return std::make_unique<VectorUnitSource>(*Units); };
  W.PassCheck = [](const CampaignUnit &, const TelechatResult &R,
                   UnitChecks &C) {
    // None of the four profiles emulates a compiler bug.
    C.expect(R.Compare.K != CompareResult::Kind::Positive, "no_positive",
             "Positive verdict under a bug-free profile");
  };
  uint32_t NumConfigs = uint32_t(ProfileNames.size());
  W.KnownAnswer = [Status, NumConfigs](const CampaignUnit &U,
                                       const TelechatResult &R,
                                       UnitChecks &C) {
    WeakStatus S = (*Status)[U.Id / NumConfigs];
    if (!R.ok() || S == WeakStatus::Unspecified)
      return;
    bool Holds = finalConditionHolds(lowerLitmusC(R.Prepared), R.SourceSim);
    C.expect(S == WeakStatus::Forbidden ? !Holds : Holds, "rc11_contract",
             S == WeakStatus::Forbidden
                 ? "RC11 forbids the weak outcome, but it is allowed"
                 : "RC11 admits the weak outcome, but it is not allowed");
  };
  return runLocal(O, W);
}

RunReport runDiyStream(const RunOptions &O) {
  LocalWorkload W;
  RandomGenOptions G;
  G.Seed = O.Seed;
  G.MaxEdges = 6;
  G.Count = O.Smoke ? 120 : 4000;
  W.Gen = G;
  Profile P = profileNamed("llvm-O2-AArch64");
  W.Configs.push_back(CampaignConfig{P, TestOptions(), false});
  W.Models = {"rc11", archModelName(P.Target)};
  W.Source = [G] { return std::make_unique<GeneratorUnitSource>(G, 1); };
  return runLocal(O, W);
}

//===----------------------------------------------------------------------===//
// served-sim
//===----------------------------------------------------------------------===//

/// The journal header of a campaign streamed off \p G under one config.
CampaignSourceSpec generatorSpec(const RandomGenOptions &G) {
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = G;
  Spec.NumConfigs = 1;
  return Spec;
}

/// One served campaign and what both ends reported.
struct ServedCampaign {
  double Seconds = 0.0;
  CampaignReport Report;
  ErrorOr<WorkerRunStats> Worker = makeError("worker did not run");
  std::string SetupError;
  double NextUs = 0.0;
};

ServedCampaign runServedCampaign(const RandomGenOptions &G,
                                 const std::vector<CampaignConfig> &Configs,
                                 const std::string &JournalPath,
                                 uint64_t Limit) {
  ServedCampaign Out;
  Clock::time_point T0 = Clock::now();
  auto Owned =
      std::make_unique<TimedSource>(std::make_unique<GeneratorUnitSource>(G, 1),
                                    Limit);
  TimedSource *Src = Owned.get(); // Owned by Server from here on.
  WorkServerOptions SO;
  SO.Port = 0;
  SO.Dedupe = true;
  WorkServer Server(std::move(Owned), Configs, SO);
  JournalWriter Journal;
  {
    ScopedSpan S("dist.journal_create");
    Out.SetupError = Journal.create(JournalPath, generatorSpec(G), Configs);
  }
  if (!Out.SetupError.empty())
    return Out;
  Server.setJournal(&Journal);
  {
    ScopedSpan S("dist.server_start");
    Out.SetupError = Server.start();
  }
  if (!Out.SetupError.empty())
    return Out;
  uint16_t Port = Server.port();
  std::thread Worker([&Out, Port] {
    ScopedSpan S("dist.worker_run");
    WorkerOptions WO;
    WO.Jobs = ServedLanes;
    // At the default request of twice the lanes, each batch is a couple
    // of sub-millisecond units per lane, so the loopback round trip and
    // the thread wake-ups set the pace and pass rates of one seed spread
    // by about a fifth between quartiles. 64 (the server's cap) amortises
    // them; the wire, dedupe and journal still handle every unit.
    WO.BatchSize = 64;
    Out.Worker = runCampaignWorker("127.0.0.1", Port, WO);
  });
  {
    ScopedSpan S("dist.server_run");
    Out.Report = Server.run();
  }
  Worker.join();
  Journal.close();
  Out.Seconds = since(T0);
  Out.NextUs = Src->nextUs();
  return Out;
}

/// Canonical classes of the served units, keyed the way the server's
/// dedupe keys them: which ids are representatives (executed) and how
/// many are answered by renaming.
struct CanonClasses {
  std::vector<bool> IsRep;
  uint64_t Duplicates = 0;
};

CanonClasses canonClasses(const RandomGenOptions &G) {
  CanonClasses Out;
  std::set<std::tuple<uint32_t, uint64_t, uint64_t, std::string>> Seen;
  GeneratorUnitSource Src(G, 1);
  CampaignUnit U;
  while (Src.next(U)) {
    CanonResult CR = canonicalizeTest(U.Test);
    bool New = Seen.emplace(U.Config, CR.Key.Hi, CR.Key.Lo, CR.Text).second;
    Out.IsRep.push_back(New);
    Out.Duplicates += !New;
  }
  return Out;
}

/// Checks one served campaign; returns its result digests by unit id.
std::vector<uint64_t> checkServed(const ServedCampaign &S,
                                  const DigestCheck &D, Checker &Chk) {
  Chk.campaign(S.SetupError.empty(), "served_setup", S.SetupError);
  Chk.campaign(S.Report.Error.empty(), "served_report", S.Report.Error);
  Chk.campaign(bool(S.Worker) && S.Worker->CleanDone, "served_worker",
               S.Worker ? "worker session ended without Done"
                        : S.Worker.error());
  Chk.campaign(S.Report.Requeues == 0, "served_no_requeues",
               std::to_string(S.Report.Requeues) + " leases requeued");
  std::vector<uint64_t> Digests(S.Report.Results.size());
  for (size_t Id = 0; Id != S.Report.Results.size(); ++Id) {
    const TelechatResult &R = S.Report.Results[Id];
    UnitChecks C(Chk, Id, S.Report.UnitsMeta[Id].TestName);
    C.expect(R.ok(), "no_error", R.Error);
    C.expect(!R.timedOut(), "no_timeout", "simulation budget exhausted");
    Digests[Id] = resultDigest(R);
    checkDigest(D, Id, Digests[Id], C);
  }
  return Digests;
}

/// The one-lane side pass of the traced served-sim run: the served
/// path's per-unit calls, timed one by one outside the server.
uint64_t servedSidePass(const RandomGenOptions &G,
                        const std::vector<CampaignConfig> &Configs,
                        const std::string &JournalPath,
                        const std::vector<uint64_t> &Ref, Checker &Chk,
                        uint64_t &ResultBytes) {
  JournalWriter Journal;
  std::string Err = Journal.create(JournalPath, generatorSpec(G), Configs);
  Chk.campaign(Err.empty(), "side_journal", Err);
  GeneratorUnitSource Src(G, 1);
  CampaignUnit U;
  uint64_t Units = 0;
  ResultBytes = 0;
  while (Src.next(U)) {
    ScopedSpan Root("served.side_unit", U.Id);
    UnitChecks C(Chk, U.Id, U.Test.Name);
    {
      ScopedSpan S("litmus.canon");
      CanonResult CR = canonicalizeTest(U.Test);
      C.expect(!CR.Text.empty(), "canon", "empty canonical text");
    }
    WireBuffer UB;
    {
      ScopedSpan S("dist.unit_encode");
      encodeCampaignUnit(UB, U);
    }
    CampaignUnit Decoded;
    bool UnitOk;
    {
      ScopedSpan S("dist.unit_decode");
      WireCursor Cur(UB.data(), UB.size());
      UnitOk = decodeCampaignUnit(Cur, Decoded) && Cur.ok();
    }
    C.expect(UnitOk && Decoded.Id == U.Id, "unit_wire_round_trip",
             "unit does not decode to itself");
    TelechatResult R;
    {
      ScopedSpan S("core.run_unit");
      R = runCampaignUnit(Decoded, Configs);
    }
    uint64_t Digest = resultDigest(R);
    C.expect(Digest == resultDigest(runTracedUnit(Decoded, Configs)),
             "digest_traced_mirror", "traced mirror differs from "
                                     "runCampaignUnit");
    C.expect(U.Id < Ref.size() && Ref[U.Id] == Digest, "served_equals_local",
             "served merged result differs from direct execution");
    WireBuffer RB;
    {
      ScopedSpan S("dist.result_encode");
      encodeTelechatResult(RB, R);
    }
    ResultBytes += RB.size();
    TelechatResult Back;
    bool ResultOk;
    {
      ScopedSpan S("dist.result_decode");
      WireCursor Cur(RB.data(), RB.size());
      ResultOk = decodeTelechatResult(Cur, Back) && Cur.ok();
    }
    C.expect(ResultOk && resultDigest(Back) == Digest,
             "result_wire_round_trip", "result does not decode to itself");
    {
      ScopedSpan S("dist.journal_append");
      C.expect(Journal.appendResult(U.Id, R), "side_journal_append",
               "append failed");
    }
    ++Units;
  }
  return Units;
}

RunReport runServedSim(const RunOptions &O) {
  RunReport Out;
  Checker Chk(Out);
  RandomGenOptions G;
  G.Seed = O.Seed + 1;
  G.MaxEdges = 6;
  G.Count = O.Smoke ? 120 : 4000;
  CampaignConfig Config;
  Config.Opts.SourceModel = "rc11";
  Config.SimulateOnly = true;
  std::vector<CampaignConfig> Configs{Config};
  double ModelsMs = parseModels({"rc11"});
  mkdir(O.OutDir.c_str(), 0755);
  const std::string Journal = O.OutDir + "/served-sim.journal";

  if (O.SetupOnly) {
    ServedCampaign S = runServedCampaign(G, Configs, Journal, 1);
    checkServed(S, {}, Chk);
    reportEndToEnd({}, ServedLanes, Out);
    return Out;
  }

  // Warm-up and reference campaign, untimed.
  ServedCampaign WarmUp = runServedCampaign(G, Configs, Journal, ~0ull);
  std::vector<uint64_t> Ref = checkServed(WarmUp, {}, Chk);
  CanonClasses Classes = canonClasses(G);
  Chk.campaign(Classes.IsRep.size() == WarmUp.Report.Units, "unit_count",
               "canonical pass saw " + std::to_string(Classes.IsRep.size()) +
                   " units, the server " +
                   std::to_string(WarmUp.Report.Units));
  Chk.campaign(Classes.Duplicates == WarmUp.Report.DedupedUnits,
               "dedupe_count",
               "server deduped " +
                   std::to_string(WarmUp.Report.DedupedUnits) +
                   " units, canonical classes give " +
                   std::to_string(Classes.Duplicates));

  Out.Diagnostics.emplace_back(
      "dedupe_share",
      fmt(WarmUp.Report.Units ? double(WarmUp.Report.DedupedUnits) /
                                    double(WarmUp.Report.Units)
                              : 0.0));

  TimedPhase T;
  T.UnitsPerPass = WarmUp.Report.Units;
  std::vector<ServedCampaign> Traced;
  auto [Steal0, Total0] = readCpuJiffies();
  Clock::time_point T0 = Clock::now();
  bool NextTraced = false;
  while (since(T0) < O.Seconds || T.Rates.size() < MinPasses ||
         (O.Trace && Traced.size() < MinPasses)) {
    bool Tr = O.Trace && NextTraced && Traced.size() < MinPasses;
    enableTracing(Tr);
    ServedCampaign S = runServedCampaign(G, Configs, Journal, ~0ull);
    enableTracing(false);
    checkServed(S, {&Ref, "digest_across_passes"}, Chk);
    Chk.campaign(S.Report.Units == T.UnitsPerPass, "unit_count",
                 std::to_string(S.Report.Units) + " units, reference had " +
                     std::to_string(T.UnitsPerPass));
    double Rate = S.Seconds > 0 ? double(S.Report.Units) / S.Seconds : 0.0;
    if (Tr) {
      T.TracedRates.push_back(Rate);
      S.Report.Results.clear(); // Keep the counters, not the results.
      Traced.push_back(std::move(S));
    } else {
      // The served path has no per-unit hook outside the library: time to
      // verdict is the worker lane's simulation time each executed unit's
      // result carries back (dedupe-answered units copy their
      // representative's, so they are left out).
      std::vector<double> Ms;
      for (size_t Id = 0; Id != S.Report.Results.size(); ++Id)
        if (Id < Classes.IsRep.size() && Classes.IsRep[Id])
          Ms.push_back(S.Report.Results[Id].SourceSim.Stats.Seconds * 1e3);
      T.Lat.push_back(percentilesOf(Ms));
      T.Rates.push_back(Rate);
      T.Units += S.Report.Units;
    }
    NextTraced = !NextTraced;
  }
  T.PeakRssMb = peakRssMb();
  auto [Steal1, Total1] = readCpuJiffies();
  T.StealShare = Total1 > Total0 ? double(Steal1 - Steal0) /
                                       double(Total1 - Total0)
                                 : 0.0;

  // Verification outside the timed phase. The last campaign's journal
  // holds every merged result.
  ErrorOr<JournalContents> J = readJournal(Journal);
  Chk.campaign(bool(J), "journal_readable", J ? "" : J.error());
  if (J) {
    Chk.campaign(J->Results.size() == Ref.size(), "journal_complete",
                 std::to_string(J->Results.size()) + " results journaled of " +
                     std::to_string(Ref.size()));
    for (const auto &[Id, R] : J->Results) {
      UnitChecks C(Chk, Id, "journal record");
      C.expect(Id < Ref.size() && Ref[Id] == resultDigest(R),
               "journal_complete", "journaled result differs from the merge");
    }
  }
  // A local run of the same seed without dedupe, one lane: the served
  // merge, stats stripped, must equal it.
  {
    ThreadPool One(1);
    runLocalPass(std::make_unique<GeneratorUnitSource>(G, 1), Configs, One,
                 false, ~0ull, {&Ref, "served_equals_local"}, nullptr, Chk);
  }

  if (!O.Trace) {
    reportEndToEnd(T, ServedLanes, Out);
    return Out;
  }

  uint64_t ResultBytes = 0;
  enableTracing(true);
  uint64_t SideUnits = servedSidePass(G, Configs, O.OutDir + "/side.journal",
                                      Ref, Chk, ResultBytes);
  enableTracing(false);

  std::map<std::string, SpanTotals> Spans = spanTotals();
  LayerMetrics L;
  L.setSim(Spans, SideUnits);
  L.setSelfUs("sim.lower_c_us", Spans, span::LowerC, SideUnits);
  L.setSelfUs("litmus.canon_us", Spans, "litmus.canon", SideUnits);
  L.setSelfUs("dist.unit_encode_us", Spans, "dist.unit_encode", SideUnits);
  L.setSelfUs("dist.unit_decode_us", Spans, "dist.unit_decode", SideUnits);
  L.setSelfUs("dist.result_encode_us", Spans, "dist.result_encode",
              SideUnits);
  L.setSelfUs("dist.result_decode_us", Spans, "dist.result_decode",
              SideUnits);
  L.setSelfUs("dist.journal_append_us", Spans, "dist.journal_append",
              SideUnits);
  L.set("dist.result_bytes",
        SideUnits ? double(ResultBytes) / double(SideUnits) : 0.0);
  uint64_t Units = 0, Wakeups = 0, Batches = 0, Requeues = 0, Deduped = 0;
  double NextUs = 0.0, SimS = 0.0;
  for (const ServedCampaign &S : Traced) {
    Units += S.Report.Units;
    Wakeups += S.Report.PollWakeups;
    Batches += S.Worker ? S.Worker->Batches : 0;
    Requeues += S.Report.Requeues;
    Deduped += S.Report.DedupedUnits;
    NextUs += S.NextUs;
  }
  // Lane time of the executed units, from the warm-up campaign's results
  // (the traced campaigns' results were dropped; the work is the same).
  for (size_t Id = 0; Id != WarmUp.Report.Results.size(); ++Id)
    if (Id < Classes.IsRep.size() && Classes.IsRep[Id])
      SimS += WarmUp.Report.Results[Id].SourceSim.Stats.Seconds;
  auto PerUnit = [&](double V) { return Units ? V / double(Units) : 0.0; };
  L.set("core.source_next_us", PerUnit(NextUs));
  if (WarmUp.Seconds > 0)
    L.set("core.lane_busy_share", SimS / (ServedLanes * WarmUp.Seconds));
  L.set("dist.poll_wakeups_per_unit", PerUnit(double(Wakeups)));
  L.set("dist.round_trips_per_unit", PerUnit(double(Batches)));
  L.set("dist.lease_size_final",
        Traced.empty() ? 0.0 : double(Traced.back().Report.Sizing.Final));
  L.set("dist.requeues", double(Requeues));
  L.set("litmus.dedupe_share", PerUnit(double(Deduped)));
  L.set("diy.gen_us", generationUs(G));
  L.set("models.parse_ms", ModelsMs);
  L.set("trace.overhead_share",
        1.0 - median(T.TracedRates) / median(T.Rates));
  L.setRemainder(Spans, "served.side_unit");
  L.emit(Out);
  if (!Traced.empty()) {
    const CampaignReport &R = Traced.back().Report;
    Out.Diagnostics.emplace_back("report.units", std::to_string(R.Units));
    Out.Diagnostics.emplace_back("report.deduped",
                                 std::to_string(R.DedupedUnits));
    Out.Diagnostics.emplace_back("report.poll_wakeups",
                                 std::to_string(R.PollWakeups));
    Out.Diagnostics.emplace_back(
        "report.lease_sizes", std::to_string(R.Sizing.Min) + ".." +
                                  std::to_string(R.Sizing.Max) + " final " +
                                  std::to_string(R.Sizing.Final));
    if (Traced.back().Worker)
      Out.Diagnostics.emplace_back(
          "worker.batches", std::to_string(Traced.back().Worker->Batches));
  }
  Out.Diagnostics.emplace_back("traced_campaigns",
                               std::to_string(Traced.size()));
  Out.Diagnostics.emplace_back("side_pass_units", std::to_string(SideUnits));
  Out.TracePath = writeTrace(O, Out);
  return Out;
}

} // namespace

std::vector<std::string> perfbench::workloadNames() {
  return {"realworld-x4", "diy-stream", "served-sim"};
}

RunReport perfbench::runWorkload(const RunOptions &O) {
  if (O.Workload == "realworld-x4")
    return runRealWorldX4(O);
  if (O.Workload == "diy-stream")
    return runDiyStream(O);
  if (O.Workload == "served-sim")
    return runServedSim(O);
  RunReport Out;
  Out.Failures.push_back("unknown workload '" + O.Workload + "'");
  Out.Failed = 1;
  return Out;
}
