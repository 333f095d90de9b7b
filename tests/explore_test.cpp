//===--- explore_test.cpp - Dynamic exploration backend tests -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Soundness and convergence tests for the explore backend. The
/// backend's contract is *sound subset*: every outcome it reports must
/// be in the exhaustive sweep's set, on any seed, job count and
/// iteration budget -- checked here as byte-level set inclusion on 200
/// generated tests. Convergence (reaching the *full* set) is only
/// promised once the budget covers the reachable rf space, which the
/// default budget does for the classic litmus shapes: that is the
/// convergence gate.
///
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "diy/Generator.h"
#include "diy/RealWorld.h"
#include "litmus/Parser.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace telechat;

namespace {

/// Asserts Sub \subseteq Super as literal outcome-set membership -- the
/// byte-provable form of the backend's soundness contract.
void expectOutcomeSubset(const OutcomeSet &Sub, const OutcomeSet &Super,
                         const std::string &Label) {
  for (const Outcome &O : Sub)
    EXPECT_TRUE(Super.count(O))
        << Label << ": explore reported outcome [" << O.toString()
        << "] that the exhaustive sweep does not allow";
}

SimResult runBackend(const LitmusTest &T, SimBackendKind Backend,
                     unsigned Jobs, uint64_t Iterations) {
  SimOptions O;
  O.Backend = Backend;
  O.Jobs = Jobs;
  if (Iterations)
    O.ExploreIterations = Iterations;
  return simulateC(T, "rc11", O);
}

} // namespace

//===----------------------------------------------------------------------===//
// Soundness battery: 200 generated seeds x {j1, j4} x iteration budgets
//===----------------------------------------------------------------------===//

TEST(ExploreBackendTest, TwoHundredSeedSoundnessBattery) {
  unsigned Generated = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions Gen;
    Gen.Seed = Seed;
    Gen.Count = 1;
    std::vector<LitmusTest> Tests = generateRandomTests(Gen);
    if (Tests.empty())
      continue; // This seed's chain attempts were all rejected.
    ++Generated;
    const LitmusTest &T = Tests[0];
    const std::string Label = "seed " + std::to_string(Seed);

    SimResult Sweep = runBackend(T, SimBackendKind::Sweep, 1, 0);
    ASSERT_TRUE(Sweep.ok()) << Label << ": " << Sweep.Error;
    ASSERT_FALSE(Sweep.TimedOut) << Label;

    for (uint64_t Iters : {uint64_t(4), uint64_t(64)}) {
      SimResult J1 = runBackend(T, SimBackendKind::Explore, 1, Iters);
      SimResult J4 = runBackend(T, SimBackendKind::Explore, 4, Iters);
      ASSERT_TRUE(J1.ok()) << Label << ": " << J1.Error;
      ASSERT_TRUE(J4.ok()) << Label << ": " << J4.Error;
      EXPECT_EQ(J1.Stats.BackendUsed, uint8_t(SimBackendKind::Explore));
      expectOutcomeSubset(J1.Allowed, Sweep.Allowed,
                          Label + " j1 iters=" + std::to_string(Iters));
      expectOutcomeSubset(J4.Allowed, Sweep.Allowed,
                          Label + " j4 iters=" + std::to_string(Iters));
      // Per-combo exploration is a pure function of (seed, combo,
      // iteration) and one combo is one shard, so the merged set is
      // jobs-invariant, not merely both-sound.
      EXPECT_EQ(outcomeSetToString(J1.Allowed),
                outcomeSetToString(J4.Allowed))
          << Label << " iters=" << Iters;
      EXPECT_EQ(J1.Flags, J4.Flags) << Label;
      EXPECT_EQ(J1.Stats.ExploreOutcomesFound, J1.Allowed.size()) << Label;
      EXPECT_LE(J1.Stats.ExploreSchedules, J1.Stats.ExploreIterations)
          << Label;
    }
  }
  // The generator must actually have exercised the battery; well over
  // half the seeds produce a test (rejections are rare).
  EXPECT_GE(Generated, 150u);
}

//===----------------------------------------------------------------------===//
// Convergence gate: classics reach the full set within the default budget
//===----------------------------------------------------------------------===//

TEST(ExploreBackendTest, ClassicsConvergeToTheExhaustiveSet) {
  for (const char *Name :
       {"MP", "MP+rel+acq", "MP+fences", "SB", "LB", "2+2W", "S", "IRIW"}) {
    LitmusTest T = classicTest(Name);
    SimResult Sweep = runBackend(T, SimBackendKind::Sweep, 1, 0);
    SimResult Exp = runBackend(T, SimBackendKind::Explore, 1, 0);
    ASSERT_TRUE(Sweep.ok()) << Name << ": " << Sweep.Error;
    ASSERT_TRUE(Exp.ok()) << Name << ": " << Exp.Error;
    // Equality, not just inclusion: the default iteration budget must
    // cover these shapes' full reachable rf spaces.
    EXPECT_EQ(outcomeSetToString(Sweep.Allowed),
              outcomeSetToString(Exp.Allowed))
        << Name;
    EXPECT_EQ(Sweep.Flags, Exp.Flags) << Name;
    EXPECT_EQ(Exp.Stats.BackendUsed, uint8_t(SimBackendKind::Explore))
        << Name;
    EXPECT_GT(Exp.Stats.ExploreIterations, 0u) << Name;
    EXPECT_GT(Exp.Stats.ExploreSchedules, 0u) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Realworld suite: every family's weak outcome within the default budget
//===----------------------------------------------------------------------===//

TEST(ExploreBackendTest, RealWorldFamiliesConvergeOnTheirWeakOutcomes) {
  // For each family, the all-relaxed sweep point documents an observable
  // weak behaviour (RealWorldCase::Status). The exploration oracle must
  // find that witness within its default iteration budget -- a dynamic
  // tool that misses the bug the idiom is famous for would be useless as
  // a campaign backend -- while staying a byte-provable subset of the
  // exhaustive sweep.
  std::map<std::string, const RealWorldCase *> Picked;
  std::vector<RealWorldCase> Suite = realWorldSuite();
  for (const RealWorldCase &C : Suite)
    if (C.Status == WeakStatus::Observable && !Picked.count(C.Family))
      Picked[C.Family] = &C; // First observable point: all-relaxed.
  ASSERT_EQ(Picked.size(), realWorldFamilies().size());

  for (const auto &[Family, Case] : Picked) {
    const LitmusTest &T = Case->Test;
    SimResult Sweep = runBackend(T, SimBackendKind::Sweep, 1, 0);
    SimResult Exp = runBackend(T, SimBackendKind::Explore, 1, 0);
    ASSERT_TRUE(Sweep.ok()) << T.Name << ": " << Sweep.Error;
    ASSERT_TRUE(Exp.ok()) << T.Name << ": " << Exp.Error;
    EXPECT_EQ(Exp.Stats.BackendUsed, uint8_t(SimBackendKind::Explore))
        << T.Name;
    expectOutcomeSubset(Exp.Allowed, Sweep.Allowed, T.Name);
    bool Witnessed = false;
    for (const Outcome &O : Exp.Allowed)
      Witnessed |= T.Final.P.eval(O);
    EXPECT_TRUE(Witnessed)
        << T.Name << ": explore missed the " << Family
        << " family's documented weak outcome within the default budget";
  }
}

TEST(ExploreBackendTest, RealWorldExploreIsSoundAcrossTheWholeSuite) {
  // Subset soundness over every instantiation, on a small budget (the
  // full-budget witness check above covers convergence; this pins that
  // no sweep point -- forbidden, observable or unspecified -- can make
  // the oracle invent an outcome).
  std::vector<RealWorldCase> Suite = realWorldSuite();
  ASSERT_GE(Suite.size(), 200u);
  // Each simulation is pinned to one job, so the battery parallelises
  // across cases; failures are collected per slot (gtest assertions are
  // not thread-safe) and reported after the pool drains.
  std::vector<std::string> Failures(Suite.size());
  ThreadPool Pool(0);
  Pool.parallelFor(Suite.size(), [&](size_t I) {
    const RealWorldCase &C = Suite[I];
    SimResult Sweep = runBackend(C.Test, SimBackendKind::Sweep, 1, 0);
    SimResult Exp = runBackend(C.Test, SimBackendKind::Explore, 1, 32);
    if (!Sweep.ok() || !Exp.ok()) {
      Failures[I] = C.Test.Name + ": " + Sweep.Error + Exp.Error;
      return;
    }
    for (const Outcome &O : Exp.Allowed) {
      if (!Sweep.Allowed.count(O))
        Failures[I] = C.Test.Name + ": explore reported outcome [" +
                      O.toString() + "] outside the exhaustive set";
      if (C.Status == WeakStatus::Forbidden && C.Test.Final.P.eval(O))
        Failures[I] = C.Test.Name + ": explore reported a forbidden outcome";
    }
  });
  for (const std::string &F : Failures)
    if (!F.empty())
      ADD_FAILURE() << F;
}

//===----------------------------------------------------------------------===//
// Determinism, starvation, and the campaign budget split
//===----------------------------------------------------------------------===//

TEST(ExploreBackendTest, SameSeedSameSchedulesSameSet) {
  LitmusTest T = classicTest("IRIW");
  SimOptions O;
  O.Backend = SimBackendKind::Explore;
  O.ExploreSeed = 7;
  SimResult A = simulateC(T, "rc11", O);
  SimResult B = simulateC(T, "rc11", O);
  ASSERT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(outcomeSetToString(A.Allowed), outcomeSetToString(B.Allowed));
  EXPECT_EQ(A.Stats.ExploreIterations, B.Stats.ExploreIterations);
  EXPECT_EQ(A.Stats.ExploreSchedules, B.Stats.ExploreSchedules);
}

TEST(ExploreBackendTest, StarvedBudgetIsStillSound) {
  // One schedule per combo: almost certainly not converged, but every
  // reported outcome must still be exhaustively validated.
  LitmusTest T = classicTest("IRIW");
  SimResult Sweep = runBackend(T, SimBackendKind::Sweep, 1, 0);
  SimResult Starved = runBackend(T, SimBackendKind::Explore, 1, 1);
  ASSERT_TRUE(Starved.ok()) << Starved.Error;
  expectOutcomeSubset(Starved.Allowed, Sweep.Allowed, "starved IRIW");
  EXPECT_EQ(Starved.Stats.ExploreIterations, 1u);
}

TEST(ExploreBackendTest, ExploreBudgetReroutesBigUnitsOnly) {
  LitmusTest T = classicTest("MP");
  SimProgram P = lowerLitmusC(T);
  const uint64_t Space = estimatedRfSpace(P);
  ASSERT_GT(Space, 1u);

  // Budget at or below the estimated space: rerouted to explore even
  // though the selection says sweep.
  SimOptions Split;
  Split.Backend = SimBackendKind::Sweep;
  Split.ExploreBudget = Space;
  SimResult Dyn = simulateC(T, "rc11", Split);
  ASSERT_TRUE(Dyn.ok()) << Dyn.Error;
  EXPECT_EQ(Dyn.Stats.BackendUsed, uint8_t(SimBackendKind::Explore));

  // Budget above the estimated space: the selected backend runs.
  Split.ExploreBudget = Space + 1;
  SimResult Exh = simulateC(T, "rc11", Split);
  ASSERT_TRUE(Exh.ok()) << Exh.Error;
  EXPECT_EQ(Exh.Stats.BackendUsed, uint8_t(SimBackendKind::Sweep));
  EXPECT_EQ(outcomeSetToString(Dyn.Allowed), outcomeSetToString(Exh.Allowed));
}

TEST(ExploreBackendTest, ExploreFinishesWhereTheSweepTimesOut) {
  // N junk loads with two candidate writes each: a 2^N rf space every
  // assignment of which is consistent, so a tight step budget exhausts
  // the sweep. The explore oracle's work is bounded by its iteration
  // budget instead of the space, so the same unit completes -- this is
  // the regime an --explore-budget campaign reroutes, which is why the
  // reroute (not a direct backend selection) drives the test.
  const unsigned Junk = 16;
  std::string Locs, Params, Stores, Loads;
  for (unsigned I = 0; I != Junk; ++I) {
    std::string X = "x" + std::to_string(I);
    Locs += "*" + X + " = 0; ";
    Params += (I ? ", " : "") + ("atomic_int* " + X);
    Stores += "  atomic_store_explicit(" + X +
              ", 1, memory_order_relaxed);\n";
    Loads += "  int r" + std::to_string(I) + " = atomic_load_explicit(" +
             X + ", memory_order_relaxed);\n";
  }
  std::string Src = "C junkwide\n{ " + Locs + "}\nvoid P0(" + Params +
                    ") {\n" + Stores + "}\nvoid P1(" + Params + ") {\n" +
                    Loads + "}\nexists (P1:r0=1)\n";
  ErrorOr<LitmusTest> T = parseLitmusC(Src);
  ASSERT_TRUE(T.hasValue()) << T.error();
  ASSERT_GE(estimatedRfSpace(lowerLitmusC(*T)), uint64_t(1) << Junk);

  SimOptions Tight;
  Tight.MaxSteps = 20000; // < 2^16: sweeping the space exhausts it.
  SimOptions SweepO = Tight, SplitO = Tight;
  SweepO.Backend = SimBackendKind::Sweep;
  SplitO.Backend = SimBackendKind::Sweep;
  SplitO.ExploreBudget = 1 << 10; // 2^16 estimated >= budget: reroute.
  SplitO.ExploreIterations = 64;
  SimResult SweepR = simulateC(*T, "rc11", SweepO);
  SimResult SplitR = simulateC(*T, "rc11", SplitO);
  EXPECT_TRUE(SweepR.TimedOut);
  ASSERT_TRUE(SplitR.ok()) << SplitR.Error;
  EXPECT_FALSE(SplitR.TimedOut);
  EXPECT_EQ(SplitR.Stats.BackendUsed, uint8_t(SimBackendKind::Explore));
  EXPECT_GT(SplitR.Allowed.size(), 0u);

  // Sound versus the sweep given the budget it actually needs.
  SimResult Full = simulateC(*T, "rc11", SimOptions());
  ASSERT_TRUE(Full.ok()) << Full.Error;
  ASSERT_FALSE(Full.TimedOut);
  expectOutcomeSubset(SplitR.Allowed, Full.Allowed, "junkwide");
}

TEST(ExploreBackendTest, AutoNeverResolvesToExplore) {
  // Auto promises the exhaustive set; the unsound-by-omission oracle is
  // an explicit opt-in (flag or ExploreBudget).
  for (const char *Name : {"MP", "IRIW"}) {
    SimProgram P = lowerLitmusC(classicTest(Name));
    EXPECT_NE(resolveBackend(SimBackendKind::Auto, P),
              SimBackendKind::Explore)
        << Name;
  }
  SimProgram P = lowerLitmusC(classicTest("MP"));
  EXPECT_EQ(resolveBackend(SimBackendKind::Explore, P),
            SimBackendKind::Explore);
}
