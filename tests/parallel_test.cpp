//===--- parallel_test.cpp - Sharded-enumeration determinism tests --------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
// The contract under test (SimOptions::Jobs): any run that completes
// within budget is bit-identical no matter how many workers enumerate
// it, and the shared step budget bounds *total* work across workers.
//
//===----------------------------------------------------------------------===//

#include "core/MCompare.h"
#include "core/Telechat.h"
#include "diy/Classics.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/ShardScheduler.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace telechat;

namespace {

/// Everything that must match between a sequential and a sharded run of
/// the same test: every SimStats row (Seconds is wall clock and outside
/// the table).
void expectIdentical(const SimResult &Seq, const SimResult &Par,
                     const std::string &What) {
  EXPECT_EQ(Seq.Error, Par.Error) << What;
  EXPECT_EQ(Seq.TimedOut, Par.TimedOut) << What;
  EXPECT_EQ(Seq.Allowed, Par.Allowed) << What;
  EXPECT_EQ(Seq.Flags, Par.Flags) << What;
#define EXPECT_ROW(Member, Key)                                                \
  EXPECT_EQ(Seq.Stats.Member, Par.Stats.Member) << What << ": " Key;
  TELECHAT_SIM_STATS(EXPECT_ROW, EXPECT_ROW)
#undef EXPECT_ROW
}

/// What must match between runs with pruning/caching on vs off: every
/// outcome-level field, and every stat not measuring the pruned work
/// itself (RfCandidates legitimately shrinks when rf sources are
/// dropped).
void expectSameOutcomes(const SimResult &On, const SimResult &Off,
                        const std::string &What) {
  EXPECT_EQ(On.Error, Off.Error) << What;
  EXPECT_EQ(On.TimedOut, Off.TimedOut) << What;
  EXPECT_EQ(On.Allowed, Off.Allowed) << What;
  EXPECT_EQ(On.Flags, Off.Flags) << What;
  EXPECT_EQ(On.Stats.PathCombos, Off.Stats.PathCombos) << What;
  EXPECT_EQ(On.Stats.ValueConsistent, Off.Stats.ValueConsistent) << What;
  EXPECT_EQ(On.Stats.CoCandidates, Off.Stats.CoCandidates) << What;
  EXPECT_EQ(On.Stats.AllowedExecutions, Off.Stats.AllowedExecutions)
      << What;
}

/// A branchy two-thread test: 8 path combos, so sharding covers both the
/// combo and the rf dimension.
const char *Branchy = R"(C branchy
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(z, 1, memory_order_relaxed); }
  int r1 = atomic_load_explicit(z, memory_order_relaxed);
  if (r1) { atomic_store_explicit(y, 2, memory_order_relaxed); }
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0) { atomic_store_explicit(x, 1, memory_order_relaxed); }
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_store_explicit(z, r1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=2)
)";

/// Every engine runs on the one sharded driver, so every SimStats row
/// of each must be Jobs-invariant.
const SimBackendKind Engines[] = {SimBackendKind::Sweep, SimBackendKind::Solve,
                                  SimBackendKind::Explore};

TEST(ParallelEnumerationTest, ClassicsIdenticalAcrossJobs) {
  for (SimBackendKind Engine : Engines)
    for (const std::string &Name : classicNames()) {
      std::string What = Name + " " + backendName(Engine);
      SimOptions Seq;
      Seq.Backend = Engine;
      Seq.Jobs = 1;
      SimOptions Par = Seq;
      Par.Jobs = 4;
      SimResult A = simulateC(classicTest(Name), "rc11", Seq);
      SimResult B = simulateC(classicTest(Name), "rc11", Par);
      ASSERT_TRUE(A.ok()) << What;
      expectIdentical(A, B, What);
      EXPECT_FALSE(A.TimedOut) << What;
    }
}

TEST(ParallelEnumerationTest, PathCombosShardIdentically) {
  auto T = parseLitmusC(Branchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  for (SimBackendKind Engine : Engines) {
    SimOptions Seq;
    Seq.Backend = Engine;
    Seq.Jobs = 1;
    SimResult A = simulateC(*T, "rc11", Seq);
    ASSERT_TRUE(A.ok()) << A.Error;
    EXPECT_EQ(A.Stats.PathCombos, 8u); // 4 paths x 2 paths
    for (unsigned J : {2u, 3u, 4u, 8u}) {
      SimOptions Par = Seq;
      Par.Jobs = J;
      SimResult B = simulateC(*T, "rc11", Par);
      expectIdentical(A, B,
                      std::string("branchy ") + backendName(Engine) +
                          " -j " + std::to_string(J));
    }
  }
}

TEST(ParallelEnumerationTest, JobsZeroUsesHardwareAndMatches) {
  SimOptions Auto;
  Auto.Jobs = 0; // one worker per hardware thread
  SimResult A = simulateC(classicTest("IRIW"), "rc11");
  SimResult B = simulateC(classicTest("IRIW"), "rc11", Auto);
  expectIdentical(A, B, "IRIW -j auto");
}

TEST(ParallelEnumerationTest, CollectedExecutionsIdentical) {
  SimOptions Seq;
  Seq.Jobs = 1;
  Seq.CollectExecutions = true;
  Seq.MaxCollectedExecutions = 7; // force truncation mid-stream
  SimOptions Par = Seq;
  Par.Jobs = 4;
  SimResult A = simulateC(classicTest("IRIW"), "rc11", Seq);
  SimResult B = simulateC(classicTest("IRIW"), "rc11", Par);
  ASSERT_TRUE(A.ok());
  ASSERT_EQ(A.Executions.size(), 7u);
  ASSERT_EQ(B.Executions.size(), 7u);
  // Executions must come back in enumeration order: DOT is a faithful
  // serialisation, so compare the rendered graphs.
  for (size_t I = 0; I != A.Executions.size(); ++I)
    EXPECT_EQ(executionToDot(A.Executions[I], "g"),
              executionToDot(B.Executions[I], "g"))
        << "execution " << I;
}

TEST(ParallelEnumerationTest, SharedBudgetBoundsTotalWork) {
  // IRIW needs 32 enumeration steps (16 rf + 16 co); every worker draws
  // from one atomic budget, so the counted work can never exceed
  // MaxSteps no matter how many workers run.
  for (unsigned J : {1u, 4u}) {
    SimOptions Tight;
    Tight.MaxSteps = 20;
    Tight.Jobs = J;
    SimResult R = simulateC(classicTest("IRIW"), "rc11", Tight);
    EXPECT_TRUE(R.TimedOut) << "-j " << J;
    EXPECT_LE(R.Stats.RfCandidates + R.Stats.CoCandidates, Tight.MaxSteps)
        << "-j " << J;
  }
}

TEST(ParallelEnumerationTest, TimeoutFlagMatchesAcrossJobs) {
  // Generous budget: nobody times out; tiny budget: everybody does.
  for (uint64_t Budget : {uint64_t(2'000'000), uint64_t(50)}) {
    SimOptions Seq;
    Seq.MaxSteps = Budget;
    Seq.Jobs = 1;
    SimOptions Par = Seq;
    Par.Jobs = 4;
    SimResult A = simulateC(classicTest("IRIW"), "rc11", Seq);
    SimResult B = simulateC(classicTest("IRIW"), "rc11", Par);
    EXPECT_EQ(A.TimedOut, B.TimedOut) << "budget " << Budget;
  }
}

TEST(ParallelEnumerationTest, CompiledTestIdenticalAcrossJobs) {
  // End-to-end: the compiled (assembly-model) side shards identically
  // too, including under the architecture model.
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions Seq;
  Seq.Sim.Jobs = 1;
  TestOptions Par;
  Par.Sim.Jobs = 4;
  TelechatResult A = runTelechat(classicTest("MP+rel+acq"), P, Seq);
  TelechatResult B = runTelechat(classicTest("MP+rel+acq"), P, Par);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  EXPECT_EQ(A.SourceSim.Allowed, B.SourceSim.Allowed);
  EXPECT_EQ(A.TargetSim.Allowed, B.TargetSim.Allowed);
  EXPECT_EQ(A.Compare.K, B.Compare.K);
}

TEST(BatchApiTest, SimulateManyMatchesIndividual) {
  std::vector<SimProgram> Programs;
  for (const std::string &Name : {"MP", "SB", "LB", "2+2W", "WRC"})
    Programs.push_back(lowerLitmusC(classicTest(Name)));
  SimOptions Opts;
  Opts.Jobs = 4;
  std::vector<SimResult> Batch = simulateMany(Programs, "rc11", Opts);
  ASSERT_EQ(Batch.size(), Programs.size());
  for (size_t I = 0; I != Programs.size(); ++I) {
    SimResult Single = simulateProgram(Programs[I], "rc11");
    expectIdentical(Single, Batch[I], Programs[I].Name);
  }
}

TEST(BatchApiTest, RunTelechatManyMatchesIndividual) {
  std::vector<LitmusTest> Tests;
  for (const std::string &Name : {"MP", "LB", "SB"})
    Tests.push_back(classicTest(Name));
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  std::vector<TelechatResult> Batch = runTelechatMany(Tests, P,
                                                      TestOptions(), 4);
  ASSERT_EQ(Batch.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I) {
    TelechatResult Single = runTelechat(Tests[I], P);
    EXPECT_EQ(Single.Error, Batch[I].Error);
    EXPECT_EQ(Single.SourceSim.Allowed, Batch[I].SourceSim.Allowed);
    EXPECT_EQ(Single.TargetSim.Allowed, Batch[I].TargetSim.Allowed);
    EXPECT_EQ(Single.Compare.K, Batch[I].Compare.K);
    EXPECT_EQ(Single.isBug(), Batch[I].isBug());
  }
}

TEST(BatchApiTest, McompareManyMatchesIndividual) {
  std::vector<SimResult> Sources, Targets;
  std::vector<std::vector<std::pair<std::string, std::string>>> Maps;
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  for (const std::string &Name : {"MP", "SB", "LB"}) {
    TelechatResult R = runTelechat(classicTest(Name), P);
    ASSERT_TRUE(R.ok()) << R.Error;
    Sources.push_back(R.SourceSim);
    Targets.push_back(R.TargetSim);
    Maps.push_back(R.Compiled.KeyMap);
  }
  std::vector<ComparePair> Pairs;
  for (size_t I = 0; I != Sources.size(); ++I)
    Pairs.push_back(ComparePair{&Sources[I], &Targets[I], &Maps[I]});
  std::vector<CompareResult> Batch = mcompareMany(Pairs, 4);
  ASSERT_EQ(Batch.size(), Pairs.size());
  for (size_t I = 0; I != Pairs.size(); ++I) {
    CompareResult Single = mcompare(Sources[I], Targets[I], Maps[I]);
    EXPECT_EQ(Single.K, Batch[I].K);
    EXPECT_EQ(Single.SourceRace, Batch[I].SourceRace);
    EXPECT_EQ(Single.Witnesses.size(), Batch[I].Witnesses.size());
  }
}


TEST(PruningCachingTest, ClassicsIdenticalOnVsOff) {
  // rf value pruning and incremental Cat evaluation must never change
  // what is found -- only how much work finding it takes.
  SimOptions Off;
  Off.RfValuePruning = false;
  Off.IncrementalCatEval = false;
  for (const std::string &Name : classicNames()) {
    SimResult A = simulateC(classicTest(Name), "rc11");
    SimResult B = simulateC(classicTest(Name), "rc11", Off);
    ASSERT_TRUE(A.ok()) << Name;
    expectSameOutcomes(A, B, Name);
  }
}

TEST(PruningCachingTest, BranchyIdenticalOnVsOffAcrossJobs) {
  auto T = parseLitmusC(Branchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions Off;
  Off.RfValuePruning = false;
  Off.IncrementalCatEval = false;
  SimResult Ref = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;
  for (unsigned J : {1u, 2u, 4u, 8u}) {
    for (bool Prune : {true, false}) {
      for (bool Cache : {true, false}) {
        SimOptions O;
        O.Jobs = J;
        O.RfValuePruning = Prune;
        O.IncrementalCatEval = Cache;
        SimResult R = simulateC(*T, "rc11", O);
        expectSameOutcomes(Ref, R,
                           "branchy -j " + std::to_string(J) +
                               (Prune ? " +prune" : " -prune") +
                               (Cache ? " +cache" : " -cache"));
      }
    }
  }
}

TEST(PruningCachingTest, BranchyActuallyPrunes) {
  auto T = parseLitmusC(Branchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimResult On = simulateC(*T, "rc11");
  SimOptions Off;
  Off.RfValuePruning = false;
  SimResult Ref = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(On.ok()) << On.Error;
  // Constraint propagation must shrink the branchy test's rf space and
  // serve Cat work from the per-combo layer.
  EXPECT_GT(On.Stats.RfSourcesPruned, 0u);
  EXPECT_LT(On.Stats.RfCandidates, Ref.Stats.RfCandidates);
  EXPECT_GT(On.Stats.CatEvalsAvoided, 0u);
  EXPECT_EQ(Ref.Stats.RfSourcesPruned, 0u);
  EXPECT_EQ(Ref.Stats.RfPruned, 0u);
}

/// Arithmetic-heavy companion to Branchy: every branch condition flows
/// through a register *assigned* from arithmetic over a load (r^1,
/// r&1, r-2), and one store forwards r+1 into another thread's branch.
/// Every constraint site sees its read through arithmetic, so all of the
/// pruning here comes from the symbolic-transform domain.
const char *ArithBranchy = R"(C arithbranchy
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r2 = r0 ^ 1;
  if (r2) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 2, memory_order_relaxed); }
  int r1 = atomic_load_explicit(z, memory_order_relaxed);
  int r3 = r1 & 1;
  if (r3) { atomic_store_explicit(y, 3, memory_order_relaxed); }
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_store_explicit(z, r0 + 1, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  int r4 = r1 - 2;
  if (r4) { atomic_store_explicit(x, 1, memory_order_relaxed); }
}
exists (P0:r0=1 /\ P1:r1=2)
)";

TEST(PruningCachingTest, ArithTransformIdenticalAcrossModesAndJobs) {
  auto T = parseLitmusC(ArithBranchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions Off;
  Off.RfValuePruning = false;
  SimResult Ref = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;
  for (unsigned J : {1u, 4u}) {
    for (bool Prune : {false, true}) {
      SimOptions O;
      O.Jobs = J;
      O.RfValuePruning = Prune;
      SimResult R = simulateC(*T, "rc11", O);
      expectSameOutcomes(Ref, R,
                         "arithbranchy -j " + std::to_string(J) +
                             (Prune ? " pruned" : " unpruned"));
    }
  }
}

TEST(PruningCachingTest, ArithTransformActuallyPrunes) {
  auto T = parseLitmusC(ArithBranchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimResult On = simulateC(*T, "rc11");
  SimOptions Off;
  Off.RfValuePruning = false;
  SimResult Ref = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(On.ok()) << On.Error;
  // Exact figures: every pair pruned here is seen through arithmetic,
  // so a regression in any of the transforms changes them.
  EXPECT_EQ(Ref.Stats.RfCandidates, 156u);
  EXPECT_EQ(On.Stats.RfCandidates, 27u);
  EXPECT_EQ(On.Stats.RfSourcesPruned, 20u);
  EXPECT_EQ(On.Stats.RfPruned, 12u);
}

TEST(PruningCachingTest, CollectedExecutionsIdenticalOnVsOff) {
  // Pruned candidates are never allowed, so the stream of collected
  // executions -- a prefix of the allowed stream in enumeration order --
  // must be identical with pruning on or off.
  auto T = parseLitmusC(Branchy);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions On;
  On.CollectExecutions = true;
  On.MaxCollectedExecutions = 5;
  SimOptions Off = On;
  Off.RfValuePruning = false;
  Off.IncrementalCatEval = false;
  SimResult A = simulateC(*T, "rc11", On);
  SimResult B = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(A.ok());
  ASSERT_EQ(A.Executions.size(), B.Executions.size());
  for (size_t I = 0; I != A.Executions.size(); ++I)
    EXPECT_EQ(executionToDot(A.Executions[I], "g"),
              executionToDot(B.Executions[I], "g"))
        << "execution " << I;
}

TEST(PruningCachingTest, CompiledTestIdenticalOnVsOff) {
  // The assembly-model side (aarch64 model, tag-heavy, fencerel) must
  // be equally unaffected.
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions On;
  TestOptions Off;
  Off.Sim.RfValuePruning = false;
  Off.Sim.IncrementalCatEval = false;
  for (const char *Name : {"MP+rel+acq", "LB", "SB+scs"}) {
    TelechatResult A = runTelechat(classicTest(Name), P, On);
    TelechatResult B = runTelechat(classicTest(Name), P, Off);
    ASSERT_TRUE(A.ok()) << Name << ": " << A.Error;
    ASSERT_TRUE(B.ok()) << Name << ": " << B.Error;
    EXPECT_EQ(A.SourceSim.Allowed, B.SourceSim.Allowed) << Name;
    EXPECT_EQ(A.TargetSim.Allowed, B.TargetSim.Allowed) << Name;
    EXPECT_EQ(A.Compare.K, B.Compare.K) << Name;
  }
}


TEST(PruningCachingTest, ConstantInfeasibleCombosCollapse) {
  // A branch over a compile-time constant makes half the path combos
  // infeasible; their rf spaces must collapse to zero candidates
  // instead of consuming budget, with outcomes unaffected.
  const char *ConstGate = R"(C constgate
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  int r0 = 1;
  if (r0) { atomic_store_explicit(x, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 1, memory_order_relaxed); }
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, r0, memory_order_relaxed);
}
exists (P0:r1=1)
)";
  auto T = parseLitmusC(ConstGate);
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions Off;
  Off.RfValuePruning = false;
  SimResult Ref = simulateC(*T, "rc11", Off);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;
  SimResult On = simulateC(*T, "rc11");
  expectSameOutcomes(On, Ref, "constgate on-vs-off");
  EXPECT_EQ(On.Stats.PathCombos, 2u);
  EXPECT_LT(On.Stats.RfCandidates, Ref.Stats.RfCandidates)
      << "the infeasible combo must not be enumerated";
  for (unsigned J : {2u, 4u}) {
    SimOptions Par;
    Par.Jobs = J;
    SimResult R = simulateC(*T, "rc11", Par);
    expectIdentical(On, R, "constgate -j " + std::to_string(J));
  }
}


//===----------------------------------------------------------------------===//
// ShardScheduler edge cases: the scheduler contract is "every item runs
// exactly once, stop is honoured between items" for ANY (items, workers)
// shape -- including the degenerate ones campaigns hit in practice
// (more workers than shards, empty waves, length-1 ranges).
//===----------------------------------------------------------------------===//

/// Runs a wave and returns per-item execution counts.
std::vector<unsigned> runWave(size_t NumItems, unsigned Workers,
                              const std::function<bool()> &ShouldStop =
                                  [] { return false; }) {
  std::vector<std::atomic<unsigned>> Hits(NumItems);
  for (auto &H : Hits)
    H = 0;
  ShardScheduler::run(
      NumItems, Workers,
      [&](unsigned W, size_t Item) {
        ASSERT_LT(Item, NumItems);
        ASSERT_LT(W, Workers == 0 ? 1u : Workers);
        Hits[Item].fetch_add(1, std::memory_order_relaxed);
      },
      ShouldStop);
  std::vector<unsigned> Out(NumItems);
  for (size_t I = 0; I != NumItems; ++I)
    Out[I] = Hits[I].load();
  return Out;
}

TEST(ShardSchedulerTest, EveryShapeRunsEachItemExactlyOnce) {
  // (items, workers) shapes: empty wave, single item vs many workers,
  // workers > items, items == workers (all single-shard ranges), primes
  // that leave ragged remainders, and a plain large wave.
  const std::pair<size_t, unsigned> Shapes[] = {
      {0, 1},  {0, 8},   {1, 1},  {1, 8},  {3, 16}, {5, 3},
      {7, 7},  {13, 5},  {64, 5}, {97, 8}, {2, 2},  {6, 4},
  };
  for (const auto &[Items, Workers] : Shapes) {
    std::vector<unsigned> Hits = runWave(Items, Workers);
    for (size_t I = 0; I != Items; ++I)
      EXPECT_EQ(Hits[I], 1u) << "items=" << Items << " workers=" << Workers
                             << " item=" << I;
  }
}

TEST(ShardSchedulerTest, JobsGreaterThanWaveSizeClampsWorkerIds) {
  // 16 workers over 3 items: worker ids visible to Body must stay below
  // the clamped count, or per-worker state arrays would overflow.
  std::atomic<unsigned> MaxWorker{0};
  ShardScheduler::run(
      3, 16,
      [&](unsigned W, size_t) {
        unsigned Cur = MaxWorker.load();
        while (W > Cur && !MaxWorker.compare_exchange_weak(Cur, W))
          ;
      },
      [] { return false; });
  EXPECT_LT(MaxWorker.load(), 3u);
}

TEST(ShardSchedulerTest, SingleShardRangesStealCleanly) {
  // items == workers gives every worker a length-1 range; a straggler on
  // item 0 forces the finished workers through the steal path against
  // ranges that are empty or length 1 -- historically the fiddliest
  // configuration. Every item must still run exactly once.
  constexpr size_t N = 8;
  std::vector<std::atomic<unsigned>> Hits(N);
  for (auto &H : Hits)
    H = 0;
  ShardScheduler::run(
      N, unsigned(N),
      [&](unsigned, size_t Item) {
        if (Item == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Hits[Item].fetch_add(1, std::memory_order_relaxed);
      },
      [] { return false; });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "item " << I;
}

TEST(ShardSchedulerTest, StopIsHonouredBetweenItems) {
  // Once ShouldStop flips, no *new* items start; items already running
  // finish. With the flip after the 5th completion, the total must land
  // in [5, 5 + workers] and far below the wave size.
  constexpr size_t N = 10000;
  constexpr unsigned Workers = 4;
  std::atomic<size_t> Started{0};
  std::atomic<bool> Stop{false};
  ShardScheduler::run(
      N, Workers,
      [&](unsigned, size_t) {
        if (Started.fetch_add(1) + 1 >= 5)
          Stop.store(true);
      },
      [&] { return Stop.load(); });
  EXPECT_GE(Started.load(), 5u);
  EXPECT_LE(Started.load(), 5u + Workers);
}

TEST(ShardSchedulerTest, StopBeforeStartRunsNothing) {
  std::vector<unsigned> Hits = runWave(50, 4, [] { return true; });
  for (unsigned H : Hits)
    EXPECT_EQ(H, 0u);
}

TEST(ShardSchedulerTest, ZeroWorkersFallsBackToSequential) {
  // Workers=0 is "caller resolved jobs wrong"; the scheduler treats it
  // as sequential rather than hanging or crashing.
  std::vector<unsigned> Hits = runWave(5, 0);
  for (size_t I = 0; I != 5; ++I)
    EXPECT_EQ(Hits[I], 1u);
}

} // namespace
