//===--- asm_test.cpp - Assembly substrate tests --------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/AsmPrinter.h"
#include "asmcore/Semantics.h"
#include "compiler/Compiler.h"
#include "core/LitmusToC.h"
#include "diy/Classics.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace telechat;

TEST(AsmParserTest, AArch64Operands) {
  auto I = parseAsmInst(Arch::AArch64, "ldr w9, [x8, #8]");
  ASSERT_TRUE(I.hasValue()) << I.error();
  EXPECT_EQ(I->Mnemonic, "ldr");
  ASSERT_EQ(I->Ops.size(), 2u);
  EXPECT_EQ(I->Ops[0].K, AsmOperand::Kind::Reg);
  EXPECT_EQ(I->Ops[1].K, AsmOperand::Kind::Mem);
  EXPECT_EQ(I->Ops[1].Reg, "x8");
  EXPECT_EQ(I->Ops[1].Imm, 8);
}

TEST(AsmParserTest, AArch64Relocations) {
  auto A = parseAsmInst(Arch::AArch64, "adrp x8, :got:x");
  ASSERT_TRUE(A.hasValue()) << A.error();
  EXPECT_EQ(A->Ops[1].Modifier, "got");
  EXPECT_EQ(A->Ops[1].Sym, "x");
  auto B = parseAsmInst(Arch::AArch64, "ldr x8, [x8, :got_lo12:x]");
  ASSERT_TRUE(B.hasValue()) << B.error();
  EXPECT_EQ(B->Ops[1].Modifier, "got_lo12");
  auto C = parseAsmInst(Arch::AArch64, "add x8, x8, #:lo12:x");
  ASSERT_TRUE(C.hasValue()) << C.error();
  EXPECT_EQ(C->Ops[2].Modifier, "lo12");
}

TEST(AsmParserTest, X86RipRelative) {
  auto I = parseAsmInst(Arch::X86_64, "mov eax, [rip+x]");
  ASSERT_TRUE(I.hasValue()) << I.error();
  EXPECT_EQ(I->Ops[1].K, AsmOperand::Kind::Mem);
  EXPECT_EQ(I->Ops[1].Sym, "x");
  auto L = parseAsmInst(Arch::X86_64, "lock xadd [rip+x], eax");
  ASSERT_TRUE(L.hasValue()) << L.error();
  EXPECT_EQ(L->Mnemonic, "lock.xadd");
}

TEST(AsmParserTest, RiscVOffsetBase) {
  auto I = parseAsmInst(Arch::RiscV, "lw a1, 4(a0)");
  ASSERT_TRUE(I.hasValue()) << I.error();
  EXPECT_EQ(I->Ops[1].Reg, "a0");
  EXPECT_EQ(I->Ops[1].Imm, 4);
  auto H = parseAsmInst(Arch::RiscV, "lui a0, %hi(x)");
  ASSERT_TRUE(H.hasValue()) << H.error();
  EXPECT_EQ(H->Ops[1].Modifier, "hi");
  auto F = parseAsmInst(Arch::RiscV, "fence rw, rw");
  ASSERT_TRUE(F.hasValue()) << F.error();
  EXPECT_EQ(F->Ops[0].Sym, "rw");
}

TEST(AsmParserTest, PpcAtModifier) {
  auto I = parseAsmInst(Arch::Ppc, "lis r9, x@ha");
  ASSERT_TRUE(I.hasValue()) << I.error();
  EXPECT_EQ(I->Ops[1].Sym, "x");
  EXPECT_EQ(I->Ops[1].Modifier, "ha");
  auto S = parseAsmInst(Arch::Ppc, "stwcx. r10, 0, r9");
  ASSERT_TRUE(S.hasValue()) << S.error();
  EXPECT_EQ(S->Mnemonic, "stwcx.");
}

TEST(AsmParserTest, LabelsAndImmediates) {
  auto I = parseAsmInst(Arch::AArch64, "cbnz w1, .LP0_0");
  ASSERT_TRUE(I.hasValue()) << I.error();
  EXPECT_EQ(I->Ops[1].K, AsmOperand::Kind::Label);
  auto M = parseAsmInst(Arch::AArch64, "mov w2, #-3");
  ASSERT_TRUE(M.hasValue()) << M.error();
  EXPECT_EQ(M->Ops[1].Imm, -3);
}

TEST(AsmParserTest, RejectsGarbage) {
  EXPECT_FALSE(parseAsmInst(Arch::AArch64, "ldr w9, [x8").hasValue());
  EXPECT_FALSE(parseAsmLitmus("NOARCH test\n{\n}\nexists (x=0)\n")
                   .hasValue());
  // An out-of-range immediate is refused, not saturated, with or
  // without the '#' prefix.
  EXPECT_FALSE(
      parseAsmInst(Arch::AArch64, "mov w9, #99999999999999999999").hasValue());
  EXPECT_FALSE(
      parseAsmInst(Arch::X86_64, "mov eax, 99999999999999999999").hasValue());
  // Malformed initial values name the line of their entry.
  for (const char *Init : {"x = 7junk;", "x = 99999999999999999999999;",
                           "x = 1:2zz;", "x = ;"}) {
    std::string Src = std::string("AArch64 t\n{\n  y = 0;\n  ") + Init +
                      "\n}\nP0 {\n  ret\n}\nexists (x=0)\n";
    auto T = parseAsmLitmus(Src);
    ASSERT_FALSE(T.hasValue()) << Src;
    EXPECT_NE(T.error().find("line 4: malformed initial value"),
              std::string::npos)
        << T.error();
  }
  // Taking the address of an undeclared location is a lowering error
  // naming the symbol, whether the address sits in the initial state,
  // a register initialiser or an instruction, on any ISA.
  for (const char *Src :
       {"AArch64 t\n{ x = 0; p = &nosuch; P0:x0 = &p; }\n"
        "P0 {\n  ldr x1, [x0]\n  ret\n}\nexists (x=0)\n",
        "AArch64 t\n{ x = 0; P0:x0 = &nosuch; }\n"
        "P0 {\n  ldr w1, [x0]\n  ret\n}\nexists (x=0)\n",
        "AArch64 t\n{ x = 0; }\n"
        "P0 {\n  adrp x0, nosuch\n  ldr w1, [x0]\n  ret\n}\n"
        "exists (x=0)\n",
        "RISCV t\n{ x = 0; }\n"
        "P0 {\n  la a0, nosuch\n  lw a1, 0(a0)\n  ret\n}\n"
        "exists (x=0)\n"}) {
    auto T = parseAsmLitmus(Src);
    ASSERT_TRUE(T.hasValue()) << Src << T.error();
    ErrorOr<SimProgram> P = lowerAsmTest(*T);
    ASSERT_FALSE(P.hasValue()) << Src;
    EXPECT_NE(P.error().find("undeclared location 'nosuch'"),
              std::string::npos)
        << P.error();
  }
}

TEST(AsmSemanticsTest, CanonicalRegisters) {
  EXPECT_EQ(instSemantics(Arch::AArch64).canonReg("W9"), "x9");
  EXPECT_EQ(instSemantics(Arch::AArch64).canonReg("xzr"), "");
  EXPECT_EQ(instSemantics(Arch::X86_64).canonReg("eax"), "rax");
  EXPECT_EQ(instSemantics(Arch::X86_64).canonReg("r8d"), "r8");
  EXPECT_EQ(instSemantics(Arch::RiscV).canonReg("zero"), "");
  EXPECT_EQ(instSemantics(Arch::Mips).canonReg("$t1"), "t1");
}

TEST(AsmSemanticsTest, RegisterNameRecognition) {
  EXPECT_TRUE(instSemantics(Arch::AArch64).isRegisterName("x10"));
  EXPECT_FALSE(instSemantics(Arch::AArch64).isRegisterName("ish"));
  EXPECT_TRUE(instSemantics(Arch::RiscV).isRegisterName("a0"));
  EXPECT_FALSE(instSemantics(Arch::RiscV).isRegisterName("x"));
  EXPECT_TRUE(instSemantics(Arch::Ppc).isRegisterName("r31"));
  EXPECT_FALSE(instSemantics(Arch::Ppc).isRegisterName("sync"));
}

TEST(AsmSemanticsTest, UnknownInstructionIsAnError) {
  AsmThread T;
  T.Name = "P0";
  T.Code.push_back(AsmInst("frobnicate", {}));
  auto Paths = enumerateAsmPaths(T, instSemantics(Arch::AArch64));
  ASSERT_FALSE(Paths.hasValue());
  EXPECT_NE(Paths.error().find("unsupported"), std::string::npos);
}

TEST(AsmSemanticsTest, BranchesForkPaths) {
  // cbnz forward: two paths (taken, fall-through).
  auto T = parseAsmLitmus(R"(AArch64 fork
{
  x = 0;
  P0:x1 = &x;
}
P0 {
  ldr w2, [x1]
  cbnz w2, .Lskip
  mov w3, #1
.Lskip:
  ret
}
exists (P0:X3=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  auto Paths =
      enumerateAsmPaths(T->Threads[0], instSemantics(Arch::AArch64));
  ASSERT_TRUE(Paths.hasValue()) << Paths.error();
  EXPECT_EQ(Paths->size(), 2u);
}

TEST(AsmSemanticsTest, ExclusivePairsFormRmw) {
  // Hand-written LL/SC increment; atomicity must forbid the lost update.
  auto T = parseAsmLitmus(R"(AArch64 llsc
{
  x = 0;
  P0:x1 = &x;
  P1:x1 = &x;
}
P0 {
.L0:
  ldxr w2, [x1]
  add w3, w2, #1
  stxr w4, w3, [x1]
  cbnz w4, .L0
  ret
}
P1 {
.L1:
  ldxr w2, [x1]
  add w3, w2, #1
  stxr w4, w3, [x1]
  cbnz w4, .L1
  ret
}
exists ([x]=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ErrorOr<SimProgram> P = lowerAsmTest(*T);
  ASSERT_TRUE(P.hasValue()) << P.error();
  SimResult R = simulateProgram(*P, "aarch64");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(finalConditionHolds(*P, R)) << "lost update not prevented";
}

TEST(AsmSemanticsTest, InitRegsMaterialiseAddresses) {
  auto T = parseAsmLitmus(R"(AArch64 initregs
{
  x = 7;
  P0:x1 = &x;
}
P0 {
  ldr w2, [x1]
  ret
}
exists (P0:X2=7)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ErrorOr<SimProgram> P = lowerAsmTest(*T);
  ASSERT_TRUE(P.hasValue()) << P.error();
  SimResult R = simulateProgram(*P, "aarch64");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(finalConditionHolds(*P, R));
}

TEST(AsmSemanticsTest, NoRetTagOnStForms) {
  auto T = parseAsmLitmus(R"(AArch64 stadd
{
  x = 0;
  P0:x1 = &x;
}
P0 {
  mov w2, #1
  stadd w2, [x1]
  ret
}
exists ([x]=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ErrorOr<SimProgram> P = lowerAsmTest(*T);
  ASSERT_TRUE(P.hasValue()) << P.error();
  bool SawNoRet = false;
  for (const SimOp &Op : P->Threads[0].Paths[0].Ops)
    if (Op.K == SimOp::Kind::Rmw && Op.NoRet)
      SawNoRet = true;
  EXPECT_TRUE(SawNoRet);
  SimResult R = simulateProgram(*P, "aarch64");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(finalConditionHolds(*P, R));
}

namespace {

struct RoundTripCase {
  std::string Classic;
  Arch Target;
};

class AsmRoundTripTest : public testing::TestWithParam<RoundTripCase> {};

} // namespace

TEST_P(AsmRoundTripTest, CompiledTestsSurviveTextRoundTrip) {
  const RoundTripCase &C = GetParam();
  LitmusTest T = augmentLocalObservations(classicTest(C.Classic));
  Profile P = Profile::current(CompilerKind::Gcc, OptLevel::O2, C.Target);
  ErrorOr<CompileOutput> Out = compileLitmus(T, P);
  ASSERT_TRUE(Out.hasValue()) << Out.error();
  std::string Text = printAsmLitmus(Out->Asm);
  ErrorOr<AsmLitmusTest> Reparsed = parseAsmLitmus(Text);
  ASSERT_TRUE(Reparsed.hasValue()) << Reparsed.error() << "\n" << Text;
  // Printing again must be stable.
  EXPECT_EQ(printAsmLitmus(*Reparsed), Text);
  EXPECT_EQ(Reparsed->Threads.size(), Out->Asm.Threads.size());
  for (size_t I = 0; I != Reparsed->Threads.size(); ++I)
    EXPECT_EQ(Reparsed->Threads[I].Code.size(),
              Out->Asm.Threads[I].Code.size());
}

INSTANTIATE_TEST_SUITE_P(
    ClassicsTimesArchs, AsmRoundTripTest,
    testing::Values(RoundTripCase{"MP+rel+acq", Arch::AArch64},
                    RoundTripCase{"MP+rel+acq", Arch::Armv7},
                    RoundTripCase{"MP+rel+acq", Arch::X86_64},
                    RoundTripCase{"MP+rel+acq", Arch::RiscV},
                    RoundTripCase{"MP+rel+acq", Arch::Ppc},
                    RoundTripCase{"MP+rel+acq", Arch::Mips},
                    RoundTripCase{"LB+ctrls", Arch::AArch64},
                    RoundTripCase{"LB+ctrls", Arch::Armv7},
                    RoundTripCase{"LB+ctrls", Arch::X86_64},
                    RoundTripCase{"LB+ctrls", Arch::RiscV},
                    RoundTripCase{"LB+ctrls", Arch::Ppc},
                    RoundTripCase{"LB+ctrls", Arch::Mips},
                    RoundTripCase{"SB+scs", Arch::AArch64},
                    RoundTripCase{"SB+scs", Arch::X86_64},
                    RoundTripCase{"IRIW", Arch::Ppc}),
    [](const testing::TestParamInfo<RoundTripCase> &Info) {
      std::string Name = Info.param.Classic + "_" +
                         archName(Info.param.Target);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(AsmProgramTest, ArchModelNames) {
  EXPECT_EQ(archModelName(Arch::AArch64), "aarch64");
  EXPECT_EQ(archModelName(Arch::AArch64, true), "aarch64+const");
  EXPECT_EQ(archModelName(Arch::Mips), "mips");
}
