//===--- core_test.cpp - Télétchat pipeline tests -------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/Semantics.h"
#include "core/Telechat.h"
#include "diy/Classics.h"
#include "litmus/Parser.h"

#include <gtest/gtest.h>

using namespace telechat;

TEST(AugmentationTest, AddsGlobalsAndRewritesPredicate) {
  LitmusTest T = classicTest("MP");
  size_t Locs = T.Locations.size();
  LitmusTest A = augmentLocalObservations(T);
  EXPECT_EQ(A.Locations.size(), Locs + 2);
  // Predicate no longer names registers.
  std::vector<std::string> Keys;
  A.Final.P.collectKeys(Keys);
  for (const std::string &K : Keys)
    EXPECT_EQ(K.front(), '[') << K;
  EXPECT_TRUE(A.validate().empty()) << A.validate();
}

TEST(AugmentationTest, NoObservedRegistersIsIdentity) {
  LitmusTest T = classicTest("2+2W"); // predicate over locations only
  LitmusTest A = augmentLocalObservations(T);
  EXPECT_EQ(A.Locations.size(), T.Locations.size());
}

TEST(AugmentationTest, PreservesSourceOutcomesModuloRenaming) {
  LitmusTest T = classicTest("MP");
  SimResult Plain = simulateC(T, "rc11");
  SimResult Augmented = simulateC(augmentLocalObservations(T), "rc11");
  ASSERT_TRUE(Plain.ok() && Augmented.ok());
  EXPECT_EQ(Plain.Allowed.size(), Augmented.Allowed.size());
}

TEST(S2LTest, GotCollapseProducesInitRegs) {
  LitmusTest T = augmentLocalObservations(classicTest("MP"));
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  ErrorOr<CompileOutput> Out = compileLitmus(T, P);
  ASSERT_TRUE(Out.hasValue()) << Out.error();
  S2LStats Stats;
  AsmLitmusTest Opt = optimiseAsmLitmus(Out->Asm, &Stats);
  EXPECT_GT(Stats.RemovedInstructions, 0u);
  EXPECT_GT(Stats.RemovedLocations, 0u);
  bool AnyInitRegs = false;
  for (const AsmThread &Th : Opt.Threads) {
    for (const auto &[Reg, Sym] : Th.InitRegs)
      AnyInitRegs = AnyInitRegs || Reg != "sp";
    for (const AsmInst &I : Th.Code) {
      EXPECT_NE(I.Ops.empty() ? "" : I.Ops[0].Modifier, "got");
      for (const AsmOperand &O : I.Ops)
        EXPECT_NE(O.Reg, "sp") << "stack scaffolding not removed";
    }
  }
  EXPECT_TRUE(AnyInitRegs);
  for (const SimLoc &L : Opt.Locations) {
    EXPECT_NE(L.Name.rfind("got.", 0), 0u) << L.Name;
    EXPECT_NE(L.Name.rfind("stack.", 0), 0u) << L.Name;
  }
}

TEST(S2LTest, LabelsSurviveInstructionRemoval) {
  // An LL/SC loop's backward label must still resolve after optimisation.
  auto T = parseLitmusC(R"(C rmwtest
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_seq_cst);
  *x = r0 + 1;
}
exists (x=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  TelechatResult R = runTelechat(
      *T, Profile::current(CompilerKind::Llvm, OptLevel::O2, Arch::AArch64));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.TargetSim.Allowed.empty());
}

TEST(S2LTest, OptimisationPreservesOutcomes) {
  // Soundness of the litmus optimiser: the unoptimised form of anything
  // multi-access explodes (that is the point of §IV-E), so the
  // comparison uses a small message-passing test kept tractable by
  // skipping augmentation (fewer GOT loads).
  auto T = parseLitmusC(R"(C mini
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_release);
}
void P1(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 2, memory_order_relaxed);
}
exists (x=1 /\ y=2)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions Optimised;
  Optimised.AugmentLocals = false;
  TestOptions Raw = Optimised;
  Raw.OptimiseCompiled = false;
  Raw.Sim.MaxSteps = 40'000'000;
  TelechatResult A = runTelechat(*T, P, Optimised);
  TelechatResult B = runTelechat(*T, P, Raw);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  ASSERT_FALSE(A.timedOut());
  ASSERT_FALSE(B.timedOut()) << "raise Raw.Sim.MaxSteps";
  EXPECT_EQ(A.TargetSim.Allowed, B.TargetSim.Allowed);
}

TEST(S2LTest, GotCollapseKeepsARegisterTheThreadWroteBefore) {
  // x10 is written before the GOT pair that loads &y into it. Turning
  // the pair into the initial value P0:x10 = &y would let `mov w10, #1`
  // overwrite the address, so the store would hit no location and the
  // optimised test would have no outcomes at all.
  auto T = parseAsmLitmus(R"(AArch64 gotreuse
{
  y = 0;
  uint64_t got.y = &y;
}
P0 {
  mov w10, #1
  adrp x10, :got:y
  ldr x10, [x10, :got_lo12:y]
  mov w9, #2
  str w9, [x10]
  ret
}
exists (y=2)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  auto Simulate = [](const AsmLitmusTest &Test) {
    ErrorOr<SimProgram> P = lowerAsmTest(Test);
    EXPECT_TRUE(P.hasValue()) << P.error();
    SimResult R = P ? simulateProgram(*P, "aarch64") : SimResult();
    EXPECT_TRUE(R.ok()) << R.Error;
    EXPECT_TRUE(P && finalConditionHolds(*P, R));
    return R.Allowed;
  };
  OutcomeSet Raw = Simulate(*T);
  OutcomeSet Optimised = Simulate(optimiseAsmLitmus(*T));
  EXPECT_EQ(Raw.size(), 1u);
  EXPECT_EQ(Raw, Optimised);
}

TEST(MCompareTest, EqualNegativePositive) {
  SimResult Src, Tgt;
  Outcome A, B;
  A.set("P0:r0", Value(0));
  B.set("P0:r0", Value(1));
  Src.Allowed = {A, B};
  Tgt.Allowed = {A, B};
  std::vector<std::pair<std::string, std::string>> Map = {
      {"P0:r0", "P0:x9"}};
  // Target vocabulary.
  SimResult TgtRenamed;
  for (const Outcome &O : Tgt.Allowed)
    TgtRenamed.Allowed.insert(O.renamed({{"P0:r0", "P0:x9"}}));
  CompareResult Equal = mcompare(Src, TgtRenamed, Map);
  EXPECT_EQ(Equal.K, CompareResult::Kind::Equal);

  SimResult Fewer;
  Fewer.Allowed = {A.renamed({{"P0:r0", "P0:x9"}})};
  EXPECT_EQ(mcompare(Src, Fewer, Map).K, CompareResult::Kind::Negative);

  SimResult Extra = TgtRenamed;
  Outcome C;
  C.set("P0:x9", Value(7));
  Extra.Allowed.insert(C);
  CompareResult Pos = mcompare(Src, Extra, Map);
  EXPECT_EQ(Pos.K, CompareResult::Kind::Positive);
  ASSERT_EQ(Pos.Witnesses.size(), 1u);
  EXPECT_EQ(Pos.Witnesses[0].lookup("P0:r0"), Value(7));
  EXPECT_TRUE(Pos.isBug());
}

TEST(MCompareTest, RaceFilterSuppressesBugs) {
  SimResult Src, Tgt;
  Src.Flags.insert("race");
  Outcome O;
  O.set("[x]", Value(9));
  Tgt.Allowed = {O};
  CompareResult R = mcompare(Src, Tgt, {{"[x]", "[x]"}});
  EXPECT_EQ(R.K, CompareResult::Kind::Positive);
  EXPECT_TRUE(R.SourceRace);
  EXPECT_FALSE(R.isBug());
}

TEST(MCompareTest, ProjectionDropsUnmappedKeys) {
  // Deleted locals vanish from the comparison domain (paper §IV-B).
  SimResult Src, Tgt;
  Outcome S1;
  S1.set("P0:r0", Value(0));
  S1.set("[x]", Value(1));
  Src.Allowed = {S1};
  Outcome T1;
  T1.set("[x]", Value(1)); // register did not survive
  Tgt.Allowed = {T1};
  CompareResult R = mcompare(Src, Tgt, {{"[x]", "[x]"}});
  EXPECT_EQ(R.K, CompareResult::Kind::Equal);
}

TEST(PipelineTest, ArtefactsArePopulated) {
  TelechatResult R = runTelechat(
      classicTest("MP+rel+acq"),
      Profile::current(CompilerKind::Gcc, OptLevel::O2, Arch::AArch64));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.RawAsmText.empty());
  EXPECT_FALSE(R.OptAsm.Threads.empty());
  EXPECT_FALSE(R.SourceSim.Allowed.empty());
  EXPECT_FALSE(R.TargetSim.Allowed.empty());
  EXPECT_GT(R.OptStats.RemovedInstructions, 0u);
}

namespace {

struct SoundnessCase {
  std::string Classic;
  Arch Target;
  CompilerKind Compiler;
};

/// Compiler soundness sweep: under the true C/C++ oracle (rc11+lb, since
/// ISO permits load buffering), a bug-free compiler must never produce a
/// positive difference. This is the repository's metamorphic self-check.
class SoundnessSweepTest : public testing::TestWithParam<SoundnessCase> {};

} // namespace

TEST_P(SoundnessSweepTest, NoPositiveDifferenceUnderIsoOracle) {
  const SoundnessCase &C = GetParam();
  TestOptions O;
  O.SourceModel = "rc11+lb";
  TelechatResult R = runTelechat(
      classicTest(C.Classic), Profile::current(C.Compiler, OptLevel::O2,
                                               C.Target),
      O);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_FALSE(R.timedOut());
  EXPECT_FALSE(R.isBug())
      << C.Classic << " on " << archName(C.Target) << ": "
      << (R.Compare.Witnesses.empty()
              ? ""
              : R.Compare.Witnesses.front().toString());
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SoundnessSweepTest, [] {
      std::vector<SoundnessCase> Cases;
      for (const std::string &Name :
           {"MP", "MP+rel+acq", "MP+fences", "SB", "SB+scs", "LB",
            "LB+datas", "LB+ctrls", "R", "S", "2+2W", "WRC", "CoRR"})
        for (Arch A : AllArchs)
          for (CompilerKind C : {CompilerKind::Llvm, CompilerKind::Gcc})
            Cases.push_back({Name, A, C});
      return testing::ValuesIn(Cases);
    }(),
    [](const testing::TestParamInfo<SoundnessCase> &Info) {
      std::string Name = Info.param.Classic + "_" +
                         archName(Info.param.Target) + "_" +
                         compilerKindName(Info.param.Compiler);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

namespace {

/// Under RC11, LB-family tests must show positive differences exactly on
/// the load-buffering-capable architectures.
class LbPositiveTest : public testing::TestWithParam<Arch> {};

} // namespace

TEST_P(LbPositiveTest, PositiveExactlyOnWeakArchitectures) {
  Arch A = GetParam();
  TelechatResult R = runTelechat(
      classicTest("LB"),
      Profile::current(CompilerKind::Llvm, OptLevel::O2, A));
  ASSERT_TRUE(R.ok()) << R.Error;
  bool WeakArch = A == Arch::AArch64 || A == Arch::Armv7 ||
                  A == Arch::RiscV || A == Arch::Ppc;
  EXPECT_EQ(R.isBug(), WeakArch) << archName(A);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, LbPositiveTest,
                         testing::ValuesIn(AllArchs),
                         [](const testing::TestParamInfo<Arch> &Info) {
                           std::string Name = archName(Info.param);
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(PipelineTest, DisassemblyRoundTripFailurePropagates) {
  // Corrupting the raw asm must surface as an error, not a crash.
  LitmusTest T = classicTest("MP");
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  ErrorOr<CompileOutput> Out = compileLitmus(T, P);
  ASSERT_TRUE(Out.hasValue());
  AsmLitmusTest Broken = Out->Asm;
  // Insert before the body (anything after `ret` would be unreachable
  // and never lowered).
  Broken.Threads[0].Code.insert(Broken.Threads[0].Code.begin(),
                                AsmInst("bogus_insn", {}));
  // Parses (unknown mnemonics are syntactically fine) but fails to lower.
  ErrorOr<AsmLitmusTest> Round = disassemblyRoundTrip(Broken);
  ASSERT_TRUE(Round.hasValue()) << Round.error();
  ErrorOr<SimProgram> Lowered = lowerAsmTest(*Round);
  EXPECT_FALSE(Lowered.hasValue());
}
