//===--- campaign_test.cpp - The unit executor's source memo --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// runCampaignUnits simulates each test's source side once for every
// config that shares it. runCampaignUnit never shares, so it is the
// reference: the merged results JSON must be the same byte for byte at
// any lane count, whatever mix of sharing, non-sharing, failing and
// timed-out units the corpus holds.
//
//===----------------------------------------------------------------------===//

#include "compiler/Profile.h"
#include "core/Campaign.h"
#include "core/Telechat.h"
#include "dist/CampaignJson.h"
#include "diy/Classics.h"
#include "diy/RealWorld.h"
#include "litmus/Parser.h"

#include <gtest/gtest.h>

using namespace telechat;

namespace {

/// Compiles only for AArch64: every other target refuses 128-bit atomics.
const char *Mp128 = R"(C MP128
{ __int128 *x = 0; *y = 0; }
void P0(atomic_int128* x, atomic_int* y) {
  atomic_store_explicit(x, 2:1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
void P1(atomic_int128* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  __int128 r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
)";

/// Two writers and two readers on two locations: far more coherence
/// candidates than SmallBudget allows.
const char *Wide = R"(C Wide
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 3, memory_order_relaxed);
  atomic_store_explicit(y, 2, memory_order_relaxed);
  atomic_store_explicit(x, 4, memory_order_relaxed);
}
void P2(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  int r2 = atomic_load_explicit(x, memory_order_relaxed);
}
void P3(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
  int r2 = atomic_load_explicit(y, memory_order_relaxed);
}
exists (P2:r0=2 /\ P2:r2=1)
)";

/// Enough for every classic and seqlock kernel, not for Wide.
constexpr uint64_t SmallBudget = 1000;

LitmusTest parsed(const char *Text) {
  ErrorOr<LitmusTest> T = parseLitmusC(Text);
  EXPECT_TRUE(T.hasValue()) << T.error();
  return *T;
}

Profile named(const std::string &Name) {
  Profile P;
  EXPECT_TRUE(profileFromName(Name, P)) << Name;
  return P;
}

std::vector<LitmusTest> batteryCorpus() {
  std::vector<LitmusTest> Tests;
  for (const std::string &Name : classicNames())
    Tests.push_back(classicTest(Name));
  ErrorOr<std::vector<RealWorldCase>> Seqlock = realWorldFamily("seqlock");
  EXPECT_TRUE(Seqlock.hasValue());
  for (const RealWorldCase &C : *Seqlock)
    Tests.push_back(C.Test);
  Tests.push_back(parsed(Mp128));
  Tests.push_back(parsed(Wide));
  return Tests;
}

/// Configs 0-3 (realworld-x4's profiles, x86 first) share one source
/// class; 4 (simulate-only) and 5 (no augmentation) share another, the
/// raw test; 6 (rc11+lb) shares with nobody.
std::vector<CampaignConfig> batteryConfigs() {
  TestOptions O;
  O.Sim.MaxSteps = SmallBudget;
  std::vector<CampaignConfig> Configs;
  for (const char *Name : {"gcc-O3-x86-64", "llvm-O2-AArch64", "gcc-O2-ARMv7",
                           "llvm-O3-PPC"})
    Configs.push_back({named(Name), O, false});
  Configs.push_back({Profile(), O, /*SimulateOnly=*/true});
  TestOptions NoAugment = O;
  NoAugment.AugmentLocals = false;
  Configs.push_back({named("llvm-O2-AArch64"), NoAugment, false});
  TestOptions Lb = O;
  Lb.SourceModel = "rc11+lb";
  Configs.push_back({named("llvm-O2-AArch64"), Lb, false});
  return Configs;
}

/// Step 3 ran for this result: a completed source simulation allows at
/// least one outcome.
bool reachedSource(const TelechatResult &R) {
  return !R.SourceSim.Allowed.empty() || R.SourceSim.TimedOut ||
         !R.SourceSim.Error.empty();
}

TEST(SourceMemoTest, SharedRunsMatchTheUnsharedReference) {
  std::vector<LitmusTest> Tests = batteryCorpus();
  std::vector<CampaignConfig> Configs = batteryConfigs();
  const size_t N = Configs.size();
  std::vector<CampaignUnit> Units =
      makeCampaignUnits(Tests, uint32_t(N), /*Cross=*/true);
  Units.push_back(CampaignUnit{Units.size(), uint32_t(N), Tests[0]});

  std::vector<TelechatResult> Ref(Units.size());
  ThreadPool(4).parallelFor(Units.size(), [&](size_t I) {
    Ref[I] = runCampaignUnit(Units[I], Configs);
  });
  const std::string RefJson = campaignResultsJson(Units, Configs, Ref);

  // The corpus holds what it claims to.
  const size_t Mp = Tests.size() - 2, Big = Tests.size() - 1;
  EXPECT_EQ(Ref[Mp * N].Error.rfind("compile: ", 0), 0u) << Ref[Mp * N].Error;
  EXPECT_FALSE(reachedSource(Ref[Mp * N]));
  EXPECT_TRUE(Ref[Mp * N + 1].ok()) << Ref[Mp * N + 1].Error;
  for (size_t C = 0; C != N; ++C)
    EXPECT_TRUE(Ref[Big * N + C].SourceSim.TimedOut) << "config " << C;
  EXPECT_NE(Ref.back().Error.find("references config 7 of 7"),
            std::string::npos)
      << Ref.back().Error;

  // At one lane a test's configs run back to back, so every later member
  // of a shared class that reaches step 3 takes the memo's result:
  // configs 1-3 behind config 0, and config 5 behind config 4.
  uint64_t Expected = 0;
  for (size_t T = 0; T != Tests.size(); ++T)
    for (size_t C : {1, 2, 3, 5})
      Expected += reachedSource(Ref[T * N + C]);
  EXPECT_EQ(Expected, 3 * (Tests.size() - 1) + 1 + Tests.size());

  for (unsigned Lanes : {1u, 4u}) {
    VectorUnitSource Source(Units);
    ThreadPool Pool(Lanes);
    std::vector<TelechatResult> Results(Units.size());
    uint64_t Shared =
        runCampaignUnits(Source, Configs, Pool,
                         [&](const CampaignUnit &U, TelechatResult R) {
                           Results[U.Id] = std::move(R);
                         });
    EXPECT_EQ(campaignResultsJson(Units, Configs, Results), RefJson)
        << Lanes << " lanes";
    if (Lanes == 1)
      EXPECT_EQ(Shared, Expected);
    else
      EXPECT_LE(Shared, Expected);
    // The 128-bit test: x86 claimed the slot and failed to compile, yet
    // AArch64 still got the shared source side.
    EXPECT_EQ(Results[Mp * N + 1].SourceSim.Allowed,
              Ref[Mp * N + 1].SourceSim.Allowed);
  }
}

TEST(SourceMemoTest, OneConfigNeverShares) {
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  std::vector<CampaignConfig> Configs = {
      {named("llvm-O2-AArch64"), TestOptions(), false}};
  // The same test twice: one config, so still no memo.
  Tests.push_back(Tests[0]);
  VectorUnitSource Source(makeCampaignUnits(Tests));
  ThreadPool Pool(1);
  EXPECT_EQ(runCampaignUnits(Source, Configs, Pool,
                             [](const CampaignUnit &, TelechatResult) {}),
            0u);
}

TEST(SourceMemoTest, ClassesFollowTheNormalisedOptions) {
  // Explore on one config and Auto with a budget reroute on another:
  // runTelechat simulates both source sides under Auto without the
  // reroute, so they share. A different MaxSteps is a different
  // simulation, and so is a simulate-only config that explores (it does
  // not normalise: its source side is the whole unit).
  LitmusTest MP = classicTest("MP");
  TestOptions Explore, Budget, Steps, Plain;
  Explore.Sim.Backend = SimBackendKind::Explore;
  Budget.Sim.Backend = SimBackendKind::Auto;
  Budget.Sim.ExploreBudget = 1;
  Steps.Sim.MaxSteps = SmallBudget;
  Plain.AugmentLocals = false;
  Profile P = named("llvm-O2-AArch64");
  std::vector<CampaignConfig> Configs = {
      {P, Explore, false}, {P, Budget, false}, {P, Steps, false},
      {P, Plain, false},   {Profile(), Explore, true}};
  std::vector<CampaignUnit> Units = makeCampaignUnits({MP}, 5, true);
  std::vector<TelechatResult> Ref, Results(Units.size());
  for (const CampaignUnit &U : Units)
    Ref.push_back(runCampaignUnit(U, Configs));
  VectorUnitSource Source(Units);
  ThreadPool Pool(1);
  EXPECT_EQ(runCampaignUnits(Source, Configs, Pool,
                             [&](const CampaignUnit &U, TelechatResult R) {
                               Results[U.Id] = std::move(R);
                             }),
            1u);
  EXPECT_EQ(campaignResultsJson(Units, Configs, Results),
            campaignResultsJson(Units, Configs, Ref));
}

/// A source side that fails, and records what the pipeline asked of it.
struct FailingSource final : SourceSide {
  bool Prepared = false, Asked = false;
  void prepared(const Simulate &) override { Prepared = true; }
  SimResult result(const Simulate &) override {
    Asked = true;
    SimResult R;
    R.Error = "injected";
    return R;
  }
};

TEST(SourceMemoTest, SourceErrorsKeepTheirPrecedence) {
  // A source error beats everything the target side produced...
  FailingSource Failing;
  TelechatResult R = runTelechat(classicTest("MP"), named("llvm-O2-AArch64"),
                                 TestOptions(), Failing);
  EXPECT_TRUE(Failing.Prepared);
  EXPECT_EQ(R.Error, "source simulation: injected");
  EXPECT_EQ(R.SourceSim.Error, "injected");
  EXPECT_TRUE(R.TargetSim.Allowed.empty());
  EXPECT_EQ(R.TargetSim.Stats.PathCombos, 0u);

  // ... but a compile error comes first and never asks for the source
  // side, though the hook saw the prepared test (a memo slot's first
  // claimant publishes there, before it compiles).
  FailingSource Uncompiled;
  R = runTelechat(parsed(Mp128), named("gcc-O3-x86-64"), TestOptions(),
                  Uncompiled);
  EXPECT_TRUE(Uncompiled.Prepared);
  EXPECT_FALSE(Uncompiled.Asked);
  EXPECT_EQ(R.Error.rfind("compile: ", 0), 0u) << R.Error;
  EXPECT_FALSE(reachedSource(R));
}

} // namespace
