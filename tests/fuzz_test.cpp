//===--- fuzz_test.cpp - Metamorphic mutation tests -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the l2c fuzzing stage: every mutation must be
/// semantics-preserving, i.e. the mutant's outcome set over the original
/// observables equals the original's, and the full pipeline must reach
/// the same verdict on mutant and original (the metamorphic relation
/// Télétchat shares with C4/Orion, paper §II-B).
///
//===----------------------------------------------------------------------===//

#include "core/Fuzz.h"
#include "core/Telechat.h"
#include "diy/Classics.h"
#include "diy/Generator.h"
#include "litmus/Printer.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "sim/SkeletonCache.h"

#include <gtest/gtest.h>

using namespace telechat;

namespace {

/// Outcomes of \p T under rc11, projected on \p Keys.
OutcomeSet projectedOutcomes(const LitmusTest &T,
                             const std::vector<std::string> &Keys) {
  SimResult R = simulateC(T, "rc11");
  EXPECT_TRUE(R.ok()) << R.Error;
  OutcomeSet Out;
  for (const Outcome &O : R.Allowed)
    Out.insert(O.projected(Keys));
  return Out;
}

struct FuzzCase {
  std::string Classic;
  uint64_t Seed;
};

class MetamorphicTest : public testing::TestWithParam<FuzzCase> {};

/// Restores the process-wide skeleton cache to its disabled default even
/// when an ASSERT bails out of a test body early.
struct SkelCacheGuard {
  ~SkelCacheGuard() { simcore::SkeletonCache::instance().setCapacity(0); }
};

void suffixExpr(Expr &E) {
  if (E.K == Expr::Kind::Reg)
    E.RegName += "_d";
  for (Expr &Op : E.Ops)
    suffixExpr(Op);
}

void suffixBody(std::vector<Stmt> &Body) {
  for (Stmt &S : Body) {
    if (!S.Dst.empty())
      S.Dst += "_d";
    if (!S.Loc.empty())
      S.Loc += "_d";
    suffixExpr(S.Val);
    suffixExpr(S.Cond);
    suffixBody(S.Then);
    suffixBody(S.Else);
  }
}

void suffixPredicate(Predicate &P) {
  if (P.K == Predicate::Kind::Atom) {
    P.A.Name += "_d";
    if (P.A.K == PredAtom::Kind::RegEq)
      P.A.Thread += "_d";
  }
  for (Predicate &Op : P.Ops)
    suffixPredicate(Op);
}

/// A renamed duplicate of \p T with every location, thread and register
/// name suffixed -- same structure, same thread order, different names.
/// Structurally identical programs share skeleton-cache keys, so the
/// duplicate's cold run must hit everything the original inserted.
LitmusTest suffixRenamed(const LitmusTest &T) {
  LitmusTest D = T;
  D.Name = T.Name + "_dup";
  for (LocDecl &L : D.Locations)
    L.Name += "_d";
  for (Thread &Th : D.Threads) {
    Th.Name += "_d";
    suffixBody(Th.Body);
  }
  suffixPredicate(D.Final.P);
  return D;
}

} // namespace

TEST(FuzzTest, DeterministicInSeed) {
  FuzzOptions O;
  O.Seed = 11;
  LitmusTest A = mutateTest(classicTest("MP"), O);
  LitmusTest B = mutateTest(classicTest("MP"), O);
  EXPECT_EQ(printLitmusC(A), printLitmusC(B));
}

TEST(FuzzTest, MutantsStayValid) {
  for (uint64_t Seed = 1; Seed != 12; ++Seed) {
    FuzzOptions O;
    O.Seed = Seed;
    O.Rounds = 4;
    LitmusTest M = mutateTest(classicTest("MP+fences"), O);
    EXPECT_TRUE(M.validate().empty())
        << "seed " << Seed << ": " << M.validate() << "\n"
        << printLitmusC(M);
  }
}

TEST(FuzzTest, MutantsDiffer) {
  // Enough rounds should actually change the program.
  FuzzOptions O;
  O.Seed = 3;
  O.Rounds = 5;
  LitmusTest M = mutateTest(classicTest("MP"), O);
  EXPECT_NE(printLitmusC(M), printLitmusC(classicTest("MP")));
}

TEST_P(MetamorphicTest, OutcomesPreservedOverOriginalObservables) {
  const FuzzCase &C = GetParam();
  LitmusTest Original = classicTest(C.Classic);
  std::vector<std::string> Keys;
  Original.Final.P.collectKeys(Keys);

  FuzzOptions O;
  O.Seed = C.Seed;
  LitmusTest Mutant = mutateTest(Original, O);
  // Key caveat: register renaming rewrites the predicate, so project the
  // mutant on *its* keys and compare values positionally via the shared
  // location keys plus renamed register keys.
  std::vector<std::string> MutantKeys;
  Mutant.Final.P.collectKeys(MutantKeys);
  ASSERT_EQ(Keys.size(), MutantKeys.size());

  OutcomeSet A = projectedOutcomes(Original, Keys);
  OutcomeSet BRaw = projectedOutcomes(Mutant, MutantKeys);
  // Rename mutant keys back to the original vocabulary.
  std::vector<std::pair<std::string, std::string>> Back;
  for (size_t I = 0; I != Keys.size(); ++I)
    Back.emplace_back(MutantKeys[I], Keys[I]);
  OutcomeSet B;
  for (const Outcome &Out : BRaw)
    B.insert(Out.renamed(Back));
  EXPECT_EQ(A, B) << C.Classic << " seed " << C.Seed << "\n"
                  << printLitmusC(Mutant);
}

TEST_P(MetamorphicTest, PipelineVerdictAgrees) {
  const FuzzCase &C = GetParam();
  LitmusTest Original = classicTest(C.Classic);
  FuzzOptions O;
  O.Seed = C.Seed;
  LitmusTest Mutant = mutateTest(Original, O);
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TelechatResult A = runTelechat(Original, P);
  TelechatResult B = runTelechat(Mutant, P);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  EXPECT_EQ(A.isBug(), B.isBug())
      << C.Classic << " seed " << C.Seed << "\n"
      << printLitmusC(Mutant);
}

TEST(FuzzTest, GenerativeDifferentialBattery) {
  // 200 seeds of diy generation at a cycle-length cap that favours
  // arithmetic-carrying Data/Ctrl edges (Data stores `v + (r^r)`, which
  // the symbolic-transform domain folds back to a tracked store value).
  // For every generated test the outcome set must be byte-identical
  // with RfValuePruning on vs off and at -j1 vs -j4 -- and pruning must
  // actually drop candidate writes on some seeds.
  unsigned Compared = 0, PrunedSeeds = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue; // attempt budget exhausted: nothing to compare
    const LitmusTest &T = Tests.front();

    SimOptions On;
    SimOptions Off;
    Off.RfValuePruning = false;
    SimOptions Par;
    Par.Jobs = 4;

    SimResult ROn = simulateC(T, "rc11", On);
    SimResult ROff = simulateC(T, "rc11", Off);
    SimResult RPar = simulateC(T, "rc11", Par);
    ASSERT_TRUE(ROn.ok()) << "seed " << Seed << ": " << ROn.Error;
    ASSERT_FALSE(ROff.TimedOut) << "seed " << Seed;
    ++Compared;

    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T);
    // Byte-equality of the rendered outcome sets, not just set
    // equality: the string is what campaign JSONs and journals carry.
    std::string Expect = outcomeSetToString(ROff.Allowed);
    EXPECT_EQ(outcomeSetToString(ROn.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RPar.Allowed), Expect) << What;
    EXPECT_EQ(ROn.Flags, ROff.Flags) << What;
    // -j4 must also agree on every deterministic counter.
    EXPECT_EQ(ROn.Stats.RfCandidates, RPar.Stats.RfCandidates) << What;
    EXPECT_EQ(ROn.Stats.RfSourcesPruned, RPar.Stats.RfSourcesPruned)
        << What;
    EXPECT_EQ(ROn.Stats.RfPruned, RPar.Stats.RfPruned) << What;
    if (ROn.Stats.RfSourcesPruned > 0)
      ++PrunedSeeds;
  }
  // The generator's attempt budget drops some seeds, but the battery
  // must remain a battery -- and one that exercises pruning.
  EXPECT_GT(Compared, 100u);
  EXPECT_GT(PrunedSeeds, 0u) << "pruning never fired across the battery";
}

TEST(FuzzTest, BackendDifferentialBattery) {
  // The same 200-seed generative stream, pitted across backends: for
  // every generated test the sweep, the solver (at -j1 and -j4) and
  // Auto must render byte-identical outcome sets, identical flags and
  // identical deterministic counters -- the backend only changes how
  // the candidate space is covered, never what comes out of it. The
  // solver's own counters must in turn be Jobs-invariant.
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue; // attempt budget exhausted: nothing to compare
    const LitmusTest &T = Tests.front();

    SimOptions SweepO;
    SweepO.Backend = SimBackendKind::Sweep;
    SimOptions SolveO;
    SolveO.Backend = SimBackendKind::Solve;
    SolveO.Jobs = 1;
    SimOptions SolvePar = SolveO;
    SolvePar.Jobs = 4;
    SimOptions AutoO;
    AutoO.Backend = SimBackendKind::Auto;

    SimResult RSweep = simulateC(T, "rc11", SweepO);
    SimResult RSolve = simulateC(T, "rc11", SolveO);
    SimResult RPar = simulateC(T, "rc11", SolvePar);
    SimResult RAuto = simulateC(T, "rc11", AutoO);
    ASSERT_TRUE(RSweep.ok()) << "seed " << Seed << ": " << RSweep.Error;
    ASSERT_TRUE(RSolve.ok()) << "seed " << Seed << ": " << RSolve.Error;
    ASSERT_FALSE(RSweep.TimedOut) << "seed " << Seed;
    ASSERT_FALSE(RSolve.TimedOut) << "seed " << Seed;
    ++Compared;

    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T);
    std::string Expect = outcomeSetToString(RSweep.Allowed);
    EXPECT_EQ(outcomeSetToString(RSolve.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RPar.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RAuto.Allowed), Expect) << What;
    EXPECT_EQ(RSolve.Flags, RSweep.Flags) << What;
    EXPECT_EQ(RAuto.Flags, RSweep.Flags) << What;
    // The engines share the per-combo pipeline downstream of rf
    // selection, so the post-fixpoint counters agree exactly.
    EXPECT_EQ(RSolve.Stats.PathCombos, RSweep.Stats.PathCombos) << What;
    EXPECT_EQ(RSolve.Stats.ValueConsistent, RSweep.Stats.ValueConsistent)
        << What;
    EXPECT_EQ(RSolve.Stats.CoCandidates, RSweep.Stats.CoCandidates)
        << What;
    EXPECT_EQ(RSolve.Stats.AllowedExecutions,
              RSweep.Stats.AllowedExecutions)
        << What;
    EXPECT_EQ(RSolve.Stats.BackendUsed, uint8_t(SimBackendKind::Solve))
        << What;
    EXPECT_EQ(RSweep.Stats.BackendUsed, uint8_t(SimBackendKind::Sweep))
        << What;
    // -j must not change what the solver decided, only who decided it.
    EXPECT_EQ(RSolve.Stats.SolveDecisions, RPar.Stats.SolveDecisions)
        << What;
    EXPECT_EQ(RSolve.Stats.SolveConflicts, RPar.Stats.SolveConflicts)
        << What;
    EXPECT_EQ(RSolve.Stats.SolveClauses, RPar.Stats.SolveClauses) << What;
    EXPECT_EQ(RSolve.Stats.ValueConsistent, RPar.Stats.ValueConsistent)
        << What;
  }
  EXPECT_GT(Compared, 100u);
}

TEST(FuzzTest, SkeletonCacheDifferentialBattery) {
  // The cross-test skeleton cache (sim/SkeletonCache.h) must be
  // invisible in the outcomes: for 200 generated seeds, the outcome set
  // with the cache enabled -- cold or warm, -j1 or -j4, sweep or solve
  // -- is byte-identical to the cache-off reference. The counters are
  // pinned exactly: a run against a cleared cache hits nothing (snapshot
  // semantics hide same-run inserts), a repeat run hits everything the
  // first run missed, and both counts are Jobs-invariant.
  SkelCacheGuard Guard;
  auto &SC = simcore::SkeletonCache::instance();
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue; // attempt budget exhausted: nothing to compare
    const LitmusTest &T = Tests.front();
    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T);

    // Cache-off reference: no lookups, no counters.
    SC.setCapacity(0);
    SimResult Ref = simulateC(T, "rc11");
    ASSERT_TRUE(Ref.ok()) << What << Ref.Error;
    ASSERT_FALSE(Ref.TimedOut) << What;
    EXPECT_EQ(Ref.Stats.SkelCacheHits + Ref.Stats.SkelCacheMisses, 0u)
        << What;
    std::string Expect = outcomeSetToString(Ref.Allowed);
    ++Compared;

    struct Config {
      SimBackendKind Backend;
      unsigned Jobs;
    };
    const Config Configs[] = {{SimBackendKind::Sweep, 1},
                              {SimBackendKind::Sweep, 4},
                              {SimBackendKind::Solve, 1},
                              {SimBackendKind::Solve, 4}};
    uint64_t SweepMisses = 0, SolveMisses = 0;
    for (const Config &C : Configs) {
      SimOptions O;
      O.Backend = C.Backend;
      O.Jobs = C.Jobs;
      std::string Where = What + "\nbackend=" +
                          (C.Backend == SimBackendKind::Solve ? "solve"
                                                              : "sweep") +
                          " -j" + std::to_string(C.Jobs);
      SC.clear();
      SC.setCapacity(256);
      SimResult R1 = simulateC(T, "rc11", O); // cold: misses only
      SimResult R2 = simulateC(T, "rc11", O); // warm: hits only
      EXPECT_EQ(outcomeSetToString(R1.Allowed), Expect) << Where;
      EXPECT_EQ(outcomeSetToString(R2.Allowed), Expect) << Where;
      EXPECT_EQ(R1.Flags, Ref.Flags) << Where;
      EXPECT_EQ(R2.Flags, Ref.Flags) << Where;
      EXPECT_EQ(R1.Stats.SkelCacheHits, 0u) << Where;
      EXPECT_GT(R1.Stats.SkelCacheMisses, 0u) << Where;
      EXPECT_EQ(R2.Stats.SkelCacheMisses, 0u) << Where;
      EXPECT_EQ(R2.Stats.SkelCacheHits, R1.Stats.SkelCacheMisses) << Where;
      // Per backend, the counters must not depend on -j.
      uint64_t &Prev = C.Backend == SimBackendKind::Solve ? SolveMisses
                                                          : SweepMisses;
      if (C.Jobs == 1)
        Prev = R1.Stats.SkelCacheMisses;
      else
        EXPECT_EQ(R1.Stats.SkelCacheMisses, Prev) << Where;
    }
  }
  EXPECT_GT(Compared, 100u);
}

TEST(FuzzTest, SkeletonCacheTinyCapacityAndRenamedDuplicates) {
  SkelCacheGuard Guard;
  auto &SC = simcore::SkeletonCache::instance();

  // A thrashing cache (capacity 1) may only cost hits, never outcomes.
  // Find a classic with more than one combo so the second insert must
  // evict the first, then pin that evictions are actually counted.
  bool SawEviction = false;
  for (const std::string &Name : classicNames()) {
    LitmusTest T = classicTest(Name);
    SC.setCapacity(0);
    SimResult Ref = simulateC(T, "rc11");
    ASSERT_TRUE(Ref.ok()) << Name << ": " << Ref.Error;
    std::string Expect = outcomeSetToString(Ref.Allowed);

    SC.clear();
    SC.setCapacity(1);
    SimResult R1 = simulateC(T, "rc11");
    SimResult R2 = simulateC(T, "rc11");
    EXPECT_EQ(outcomeSetToString(R1.Allowed), Expect) << Name;
    EXPECT_EQ(outcomeSetToString(R2.Allowed), Expect) << Name;
    if (R1.Stats.SkelCacheMisses > 1) {
      EXPECT_GT(R1.Stats.SkelCacheEvictions, 0u) << Name;
      SawEviction = true;
    }
  }
  EXPECT_TRUE(SawEviction)
      << "no classic produced a multi-combo eviction drill";

  // Cross-test reuse, the point of the cache: a renamed duplicate
  // (fresh location/thread/register names, same structure) hits every
  // skeleton the original inserted, and its outcomes are byte-identical
  // to its own cache-off reference.
  unsigned Reused = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue;
    const LitmusTest &T = Tests.front();
    LitmusTest D = suffixRenamed(T);
    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T) + "\nduplicate:\n" + printLitmusC(D);

    SC.setCapacity(0);
    SimResult RefD = simulateC(D, "rc11");
    ASSERT_TRUE(RefD.ok()) << What << RefD.Error;

    SC.clear();
    SC.setCapacity(256);
    SimResult RT = simulateC(T, "rc11"); // cold: populates the cache
    SimResult RD = simulateC(D, "rc11"); // different test, warm anyway
    EXPECT_EQ(outcomeSetToString(RD.Allowed),
              outcomeSetToString(RefD.Allowed))
        << What;
    EXPECT_EQ(RD.Stats.SkelCacheMisses, 0u) << What;
    EXPECT_EQ(RD.Stats.SkelCacheHits, RT.Stats.SkelCacheMisses) << What;
    ++Reused;
  }
  EXPECT_GT(Reused, 15u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesClassics, MetamorphicTest, [] {
      std::vector<FuzzCase> Cases;
      for (const std::string &Name :
           {"MP", "MP+rel+acq", "SB", "LB", "2+2W", "S"})
        for (uint64_t Seed : {1ull, 7ull, 23ull})
          Cases.push_back({Name, Seed});
      return testing::ValuesIn(Cases);
    }(),
    [](const testing::TestParamInfo<FuzzCase> &Info) {
      std::string Name = Info.param.Classic + "_seed" +
                         std::to_string(Info.param.Seed);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
