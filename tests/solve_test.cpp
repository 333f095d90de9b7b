//===--- solve_test.cpp - Constraint-solver backend tests -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the watched-literal nogood database and differential
/// tests of the solve backend against the sweep: same outcomes, flags,
/// deterministic counters and collected executions on everything the
/// sweep can finish -- plus the crossover case the sweep cannot.
///
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "solve/Clauses.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace telechat;
using namespace telechat::solve;

//===----------------------------------------------------------------------===//
// NogoodDB
//===----------------------------------------------------------------------===//

TEST(NogoodDBTest, PersistentRemovalSurvivesBacktrack) {
  NogoodDB DB;
  DB.init({2, 2});
  DB.pushLevel();
  EXPECT_TRUE(DB.addNogood({{0, 1}}));
  EXPECT_FALSE(DB.candActive(0, 1));
  DB.popLevel();
  // Size-1 nogoods are globally valid for the combo: the removal must
  // not be resurrected by backtracking.
  EXPECT_FALSE(DB.candActive(0, 1));
  EXPECT_TRUE(DB.candActive(0, 0));
  EXPECT_EQ(DB.added(), 1u);
  EXPECT_EQ(DB.propagations(), 1u);
}

TEST(NogoodDBTest, UnitPropagationRemovesCandidate) {
  NogoodDB DB;
  DB.init({2, 2});
  EXPECT_TRUE(DB.addNogood({{0, 0}, {1, 1}}));
  DB.pushLevel();
  EXPECT_TRUE(DB.assign(0, 0));
  // With (0,0) matched the nogood is unit on (1,1): that candidate is
  // now forbidden.
  EXPECT_FALSE(DB.candActive(1, 1));
  EXPECT_EQ(DB.propagations(), 1u);
  DB.popLevel();
  EXPECT_TRUE(DB.candActive(1, 1)); // Trailed removal undone.
}

TEST(NogoodDBTest, ConflictOnFullMatch) {
  NogoodDB DB;
  DB.init({2, 2});
  DB.pushLevel();
  EXPECT_TRUE(DB.assign(1, 1));
  // Learned after the assignment, so no propagation happened at add
  // time -- the next matching assignment must conflict instead.
  EXPECT_TRUE(DB.addNogood({{0, 0}, {1, 1}}));
  DB.pushLevel();
  EXPECT_FALSE(DB.assign(0, 0));
}

TEST(NogoodDBTest, DomainWipeIsConflict) {
  NogoodDB DB;
  DB.init({1, 2});
  EXPECT_TRUE(DB.addNogood({{0, 0}, {1, 0}}));
  DB.pushLevel();
  // Unit removal of var 0's only candidate wipes an unassigned
  // domain: no completion exists, so the assignment must fail.
  EXPECT_FALSE(DB.assign(1, 0));
}

TEST(NogoodDBTest, DuplicateNogoodsDropped) {
  NogoodDB DB;
  DB.init({2, 2});
  EXPECT_TRUE(DB.addNogood({{0, 0}, {1, 1}}));
  EXPECT_TRUE(DB.addNogood({{1, 1}, {0, 0}})); // Same set, reordered.
  EXPECT_EQ(DB.added(), 1u);
}

TEST(NogoodDBTest, WatchMigratesThenGoesUnit) {
  NogoodDB DB;
  DB.init({2, 2, 2});
  EXPECT_TRUE(DB.addNogood({{0, 0}, {1, 0}, {2, 0}}));
  DB.pushLevel();
  EXPECT_TRUE(DB.assign(0, 0)); // Watch moves to (2,0); nothing removed.
  EXPECT_TRUE(DB.candActive(2, 0));
  DB.pushLevel();
  EXPECT_TRUE(DB.assign(1, 0)); // Now unit: (2,0) forbidden.
  EXPECT_FALSE(DB.candActive(2, 0));
  DB.popLevel();
  EXPECT_TRUE(DB.candActive(2, 0));
}

//===----------------------------------------------------------------------===//
// Solve backend vs sweep
//===----------------------------------------------------------------------===//

namespace {

/// Canonical rendering of a result's collected executions; the
/// byte-identity contract covers these, not just the outcome set.
std::string executionsToString(const SimResult &R) {
  std::string Out;
  for (const Execution &Ex : R.Executions)
    Out += executionToDot(Ex, "x");
  return Out;
}

void expectBackendsAgree(const LitmusTest &T, SimOptions Base) {
  Base.CollectExecutions = true;
  SimOptions SweepO = Base, SolveO = Base;
  SweepO.Backend = SimBackendKind::Sweep;
  SolveO.Backend = SimBackendKind::Solve;
  SimResult A = simulateC(T, "rc11", SweepO);
  SimResult B = simulateC(T, "rc11", SolveO);
  ASSERT_TRUE(A.ok()) << T.Name << ": " << A.Error;
  ASSERT_TRUE(B.ok()) << T.Name << ": " << B.Error;
  EXPECT_EQ(A.Stats.BackendUsed, uint8_t(SimBackendKind::Sweep));
  EXPECT_EQ(B.Stats.BackendUsed, uint8_t(SimBackendKind::Solve));
  EXPECT_EQ(outcomeSetToString(A.Allowed), outcomeSetToString(B.Allowed))
      << T.Name;
  EXPECT_EQ(A.Flags, B.Flags) << T.Name;
  EXPECT_EQ(A.Stats.PathCombos, B.Stats.PathCombos) << T.Name;
  EXPECT_EQ(A.Stats.ValueConsistent, B.Stats.ValueConsistent) << T.Name;
  EXPECT_EQ(A.Stats.CoCandidates, B.Stats.CoCandidates) << T.Name;
  EXPECT_EQ(A.Stats.AllowedExecutions, B.Stats.AllowedExecutions)
      << T.Name;
  EXPECT_EQ(executionsToString(A), executionsToString(B)) << T.Name;
}

/// The crossover workload: a two-path observer whose else-path guards
/// \p Junk junk loads behind a constraint (`a - b` zero) that no pair
/// of candidate writes satisfies. The sweep pays one budget step per
/// swept index of the dead path (2^Junk and change); the solver
/// refutes the combo from the compiled pair check without a decision.
LitmusTest crossoverTest(unsigned Junk) {
  std::string Locs, P0Params, P1Params, Stores, Loads;
  for (unsigned I = 0; I != Junk; ++I) {
    std::string X = "x" + std::to_string(I);
    Locs += "*" + X + " = 0; ";
    P0Params += ", atomic_int* " + X;
    P1Params += ", atomic_int* " + X;
    Stores += "  atomic_store_explicit(" + X +
              ", 1, memory_order_relaxed);\n";
    Loads += "    int r" + std::to_string(I) + " = atomic_load_explicit(" +
             X + ", memory_order_relaxed);\n";
  }
  std::string Src = "C xover\n{ *y = 0; *z = 1; *w = 0; " + Locs +
                    "}\nvoid P0(atomic_int* y, atomic_int* z, atomic_int* w" +
                    P0Params +
                    ") {\n"
                    "  atomic_store_explicit(y, 5, memory_order_relaxed);\n"
                    "  atomic_store_explicit(z, 7, memory_order_relaxed);\n" +
                    Stores +
                    "}\nvoid P1(atomic_int* y, atomic_int* z, atomic_int* w" +
                    P1Params +
                    ") {\n"
                    "  int a = atomic_load_explicit(y, memory_order_relaxed);\n"
                    "  int b = atomic_load_explicit(z, memory_order_relaxed);\n"
                    "  if (a - b) {\n"
                    "    atomic_store_explicit(w, 1, memory_order_relaxed);\n"
                    "  } else {\n" +
                    Loads +
                    "  }\n}\nexists (P1:a=5 /\\ P1:b=7)\n";
  auto T = parseLitmusC(Src);
  EXPECT_TRUE(T.hasValue()) << T.error();
  return *T;
}

} // namespace

TEST(SolveBackendTest, ClassicsMatchSweep) {
  for (const char *Name :
       {"MP", "MP+rel+acq", "MP+fences", "SB", "LB", "2+2W", "S", "IRIW"})
    expectBackendsAgree(classicTest(Name), SimOptions());
}

TEST(SolveBackendTest, BranchyTestsMatchSweepAcrossModes) {
  auto T = parseLitmusC(R"(C branchy
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0 - r1) { atomic_store_explicit(z, 1, memory_order_relaxed); }
  if (r0) { atomic_store_explicit(z, 2, memory_order_relaxed); }
}
exists (P1:r0=1 /\ P1:r1=0)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  expectBackendsAgree(*T, SimOptions());
  SimOptions NoPrune;
  NoPrune.RfValuePruning = false; // Pure DFS: a tree-shaped sweep.
  expectBackendsAgree(*T, NoPrune);
}

TEST(SolveBackendTest, StoreOnlyProgramMatchesSweep) {
  auto T = parseLitmusC(R"(C storesonly
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
exists (x=2)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  expectBackendsAgree(*T, SimOptions()); // Zero decision variables.
}

TEST(SolveBackendTest, ParallelSolveIsJobsInvariant) {
  // Multiple path combos shard across workers; a completed run's
  // outcomes *and* solver counters must not depend on -j.
  auto T = parseLitmusC(R"(C combos
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0) { atomic_store_explicit(x, 2, memory_order_relaxed); }
}
void P1(atomic_int* x, atomic_int* y) {
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
  if (r1 - 1) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  int r2 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r1=2 /\ P1:r2=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions Seq, Par;
  Seq.Backend = Par.Backend = SimBackendKind::Solve;
  Seq.Jobs = 1;
  Par.Jobs = 4;
  SimResult A = simulateC(*T, "rc11", Seq);
  SimResult B = simulateC(*T, "rc11", Par);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  EXPECT_EQ(outcomeSetToString(A.Allowed), outcomeSetToString(B.Allowed));
  EXPECT_EQ(A.Flags, B.Flags);
  EXPECT_EQ(A.Stats.SolveDecisions, B.Stats.SolveDecisions);
  EXPECT_EQ(A.Stats.SolveConflicts, B.Stats.SolveConflicts);
  EXPECT_EQ(A.Stats.SolveClauses, B.Stats.SolveClauses);
}

TEST(SolveBackendTest, CompiledPairClausesPrune) {
  // `r0 - r1` roots in two reads, so the check compiles to binary
  // nogoods over the candidate writes' known values; two of the four
  // pairs violate the taken-path constraint.
  auto T = parseLitmusC(R"(C pair
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0 - r1) { atomic_store_explicit(z, 1, memory_order_relaxed); }
}
exists (P1:r0=0 /\ P1:r1=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimOptions SolveO;
  SolveO.Backend = SimBackendKind::Solve;
  SimResult R = simulateC(*T, "rc11", SolveO);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.Stats.SolveClauses, 0u);
  EXPECT_GT(R.Stats.SolvePropagations, 0u);
  // And pruning must not have cost correctness.
  expectBackendsAgree(*T, SimOptions());
}

TEST(SolveBackendTest, CrossoverSolveFinishesWhereSweepCannot) {
  LitmusTest T = crossoverTest(14);
  SimOptions Tight;
  Tight.MaxSteps = 20000; // < 2^16: the dead path alone exhausts it.
  SimOptions SweepO = Tight, SolveO = Tight;
  SweepO.Backend = SimBackendKind::Sweep;
  SolveO.Backend = SimBackendKind::Solve;
  SimResult SweepR = simulateC(T, "rc11", SweepO);
  SimResult SolveR = simulateC(T, "rc11", SolveO);
  ASSERT_TRUE(SolveR.ok()) << SolveR.Error;
  EXPECT_TRUE(SweepR.TimedOut);
  EXPECT_FALSE(SolveR.TimedOut);
  EXPECT_GT(SolveR.Stats.SolveConflicts, 0u); // Combo refuted at compile.
  // The solver's answer equals what the sweep says with a real budget.
  SimResult Full = simulateC(T, "rc11", SimOptions());
  ASSERT_TRUE(Full.ok()) << Full.Error;
  ASSERT_FALSE(Full.TimedOut);
  EXPECT_EQ(outcomeSetToString(Full.Allowed),
            outcomeSetToString(SolveR.Allowed));
  EXPECT_EQ(Full.Flags, SolveR.Flags);
}

TEST(SolveBackendTest, AutoResolvesByEstimatedSpace) {
  LitmusTest Small = classicTest("MP");
  SimProgram SmallP = lowerLitmusC(Small);
  EXPECT_LT(estimatedRfSpace(SmallP), kAutoSolveThreshold);
  EXPECT_EQ(resolveBackend(SimBackendKind::Auto, SmallP),
            SimBackendKind::Sweep);
  EXPECT_EQ(resolveBackend(SimBackendKind::Sweep, SmallP),
            SimBackendKind::Sweep);
  EXPECT_EQ(resolveBackend(SimBackendKind::Solve, SmallP),
            SimBackendKind::Solve);

  LitmusTest Big = crossoverTest(14);
  SimProgram BigP = lowerLitmusC(Big);
  EXPECT_GE(estimatedRfSpace(BigP), kAutoSolveThreshold);
  EXPECT_EQ(resolveBackend(SimBackendKind::Auto, BigP),
            SimBackendKind::Solve);

  // And the dispatch stamps what actually ran.
  SimOptions AutoO;
  AutoO.Backend = SimBackendKind::Auto;
  EXPECT_EQ(simulateC(Small, "rc11", AutoO).Stats.BackendUsed,
            uint8_t(SimBackendKind::Sweep));
}

TEST(SolveBackendTest, BackendNamesRoundTrip) {
  SimBackendKind K = SimBackendKind::Sweep;
  EXPECT_TRUE(backendFromName("solve", K));
  EXPECT_EQ(K, SimBackendKind::Solve);
  EXPECT_TRUE(backendFromName("auto", K));
  EXPECT_EQ(K, SimBackendKind::Auto);
  EXPECT_TRUE(backendFromName("sweep", K));
  EXPECT_EQ(K, SimBackendKind::Sweep);
  EXPECT_TRUE(backendFromName("explore", K));
  EXPECT_EQ(K, SimBackendKind::Explore);
  K = SimBackendKind::Sweep;
  EXPECT_FALSE(backendFromName("dpll", K));
  EXPECT_EQ(K, SimBackendKind::Sweep); // Untouched on failure.
  for (SimBackendKind Kind : {SimBackendKind::Sweep, SimBackendKind::Solve,
                              SimBackendKind::Auto,
                              SimBackendKind::Explore}) {
    SimBackendKind Back = SimBackendKind::Auto;
    EXPECT_TRUE(backendFromName(backendName(Kind), Back));
    EXPECT_EQ(Back, Kind);
  }
  EXPECT_STREQ(backendUsedName(uint8_t(SimBackendKind::Sweep)), "sweep");
  EXPECT_STREQ(backendUsedName(uint8_t(SimBackendKind::Solve)), "solve");
  EXPECT_STREQ(backendUsedName(uint8_t(SimBackendKind::Explore)),
               "explore");
}
