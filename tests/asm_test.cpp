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
#include "diy/Config.h"
#include "diy/Generator.h"
#include "diy/RealWorld.h"
#include "litmus/Parser.h"
#include "sim/Simulator.h"

#include "Mutate.h"

#include <gtest/gtest.h>

using namespace telechat;

namespace telechat {
/// gtest shows an assembly test that differs as its printed text.
void PrintTo(const AsmLitmusTest &T, std::ostream *OS) {
  *OS << "\n" << printAsmLitmus(T);
}
} // namespace telechat

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

TEST(AsmParserTest, ErrorsNameTheirFileLine) {
  // P0's code starts on line 7; the final condition starts on line 10
  // when the code takes two lines.
  auto Test = [](const std::string &Code, const std::string &Final) {
    return "AArch64 lines\n{\n  x = 0;\n  P0:x1 = &x;\n}\nP0 {\n" + Code +
           "}\n" + Final;
  };
  const std::string Code = "  mov w0, #1\n  ldr w2, [x1]\n";
  const std::string Parens(20000, '(');
  struct Case {
    std::string Src;
    const char *Want; ///< The error, from its start.
  };
  const Case Cases[] = {
      {Test("  mov w0, #zz\n  ldr w2, [x1]\n", "exists (P0:X2=0)\n"),
       "line 7: bad immediate #zz in 'mov w0, #zz'"},
      // The condition's lines keep their numbers: a typo on line 12 is
      // line 12, and so is one after a blank and a comment line.
      {Test(Code, "exists (P0:X2=0 /\\\n  P0:X0=1 /\\\n  x=zz)\n"),
       "line 12: expected numeric value"},
      {Test(Code, "exists (P0:X2=0 /\\\n\n  // x=zz\n  x=zz)\n"),
       "line 13: expected numeric value"},
      {Test(Code, "exists " + Parens + "x=0" + std::string(20000, ')')),
       "line 10: nesting deeper than 64 levels"},
      {"\n\nAArch64\n{\n}\n", "line 3: bad header: AArch64"},
      {"NOARCH t\n{\n}\nexists (x=0)\n", "line 1: unknown architecture"},
      {"AArch64 t\n\n  x = 0;\n", "line 3: expected '{' after header"},
      {"AArch64 t\n{\n  x = 0;\n}\nnonsense\n",
       "line 5: expected thread header, got: nonsense"},
      // At the end of the text, the error names its last line.
      {"AArch64 t\n{\n  x = 0;\n}\nP0 {\n  ret\n",
       "line 7: unterminated thread P0"},
      {"AArch64 t\n{\n  x = 0;\n", "line 4: unterminated initial state"},
      {"AArch64 t\n{\n  x = 0;\n}\nP0 {\n  ret\n}",
       "line 7: missing final condition"},
      // An unterminated block is the error, not a bad entry inside it.
      {"AArch64 t\n{\n  x = 7junk;\n", "line 4: unterminated initial state"},
      // An entry that spans lines names the line it starts on.
      {"AArch64 t\n{\n  x = 0; y\n  =\n  7junk;\n}\n",
       "line 3: malformed initial value: y\n=\n7junk"},
  };
  for (const Case &C : Cases) {
    ErrorOr<AsmLitmusTest> T = parseAsmLitmus(C.Src);
    ASSERT_FALSE(T.hasValue()) << C.Src;
    EXPECT_EQ(T.error().rfind(C.Want, 0), 0u) << C.Src << "\n" << T.error();
  }
  // parseAsmInst has no file line to name.
  ErrorOr<AsmInst> I = parseAsmInst(Arch::AArch64, "mov w0, #zz");
  ASSERT_FALSE(I.hasValue());
  EXPECT_EQ(I.error(), "bad immediate #zz in 'mov w0, #zz'");
}

TEST(AsmParserTest, InitEntriesMaySpanLines) {
  ErrorOr<AsmLitmusTest> T = parseAsmLitmus(
      "AArch64 t\n{ const uint8_t x\n  = 7; y =\n  1:2; P0:x1\n  = &x }\n"
      "P0 {\n  ret\n}\nexists (x=7)\n");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ASSERT_EQ(T->Locations.size(), 2u);
  EXPECT_TRUE(T->Locations[0].Const);
  EXPECT_EQ(T->Locations[0].Type, (IntType{8, false}));
  EXPECT_EQ(T->Locations[0].Name, "x");
  EXPECT_EQ(T->Locations[0].Init, Value(7));
  EXPECT_EQ(T->Locations[1].Name, "y");
  EXPECT_EQ(T->Locations[1].Init, Value(2, 1));
  ASSERT_EQ(T->Threads.size(), 1u);
  EXPECT_EQ(T->Threads[0].InitRegs,
            (std::vector<std::pair<std::string, std::string>>{{"x1", "x"}}));
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
  // Printing again must be stable, and the parsed test is the compiled
  // one, field by field.
  EXPECT_EQ(printAsmLitmus(*Reparsed), Text);
  EXPECT_EQ(*Reparsed, Out->Asm);
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

//===----------------------------------------------------------------------===//
// The s2l round trip gives back the compiled test, field by field
//===----------------------------------------------------------------------===//

namespace {

/// Every ISA, both compilers, and AArch64 with LSE and RCpc.
const char *const RoundTripProfiles[] = {
    "llvm-O2-AArch64", "gcc-O3-AArch64", "llvm-O3-AArch64+lse+rcpc",
    "gcc-O3-x86-64",   "gcc-O2-ARMv7",   "llvm-O3-PPC",
    "gcc-O2-RISCV",    "gcc-O2-MIPS"};

/// \p Test as c2s hands it to s2l under the profile \p ProfileName.
ErrorOr<AsmLitmusTest> compiledUnder(const LitmusTest &Test,
                                     const std::string &ProfileName) {
  Profile P;
  if (!profileFromName(ProfileName, P))
    return makeError("unknown profile " + ProfileName);
  ErrorOr<CompileOutput> Out = compileLitmus(augmentLocalObservations(Test), P);
  if (!Out)
    return makeError(Out.error());
  return std::move(Out->Asm);
}

/// True when \p Compiled prints to a text that parses back to it and
/// prints the same again.
::testing::AssertionResult roundTrips(const AsmLitmusTest &Compiled) {
  std::string Text = printAsmLitmus(Compiled);
  ErrorOr<AsmLitmusTest> Parsed = parseAsmLitmus(Text);
  if (!Parsed)
    return ::testing::AssertionFailure() << Parsed.error() << "\n" << Text;
  if (!(*Parsed == Compiled))
    return ::testing::AssertionFailure() << "parses to another test:\n"
                                         << printAsmLitmus(*Parsed);
  if (printAsmLitmus(*Parsed) != Text)
    return ::testing::AssertionFailure() << "prints differently:\n" << Text;
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(AsmRoundTripTest, ParsedTestIsTheCompiledTest) {
  // The classics, the c11 suite, the realworld suite and one diy seed.
  std::vector<LitmusTest> Corpus;
  for (const std::string &Name : classicNames())
    Corpus.push_back(classicTest(Name));
  for (LitmusTest &T : generateSuite(SuiteConfig::c11()))
    Corpus.push_back(std::move(T));
  for (LitmusTest &T : realWorldTests())
    Corpus.push_back(std::move(T));
  RandomGenOptions Gen;
  Gen.Seed = 7;
  Gen.Count = 100;
  for (LitmusTest &T : generateRandomTests(Gen))
    Corpus.push_back(std::move(T));
  for (const char *Profile : RoundTripProfiles)
    for (const LitmusTest &T : Corpus) {
      ErrorOr<AsmLitmusTest> Compiled = compiledUnder(T, Profile);
      ASSERT_TRUE(Compiled.hasValue()) << Profile << " " << T.Name;
      ASSERT_TRUE(roundTrips(*Compiled)) << Profile << " " << T.Name;
    }
}

TEST(AsmRoundTripTest, ThreadsKeepTheirCompiledOrder) {
  // Eleven threads: a sort by name would put P10 between P1 and P2.
  std::string Src = "C eleven\n{ *x = 0; }\n";
  for (int I = 0; I != 11; ++I)
    Src += "void P" + std::to_string(I) +
           "(atomic_int* x) {\n  atomic_store_explicit(x, " +
           std::to_string(I + 1) + ", memory_order_relaxed);\n}\n";
  Src += "exists (x=11)\n";
  ErrorOr<LitmusTest> Eleven = parseLitmusC(Src);
  ASSERT_TRUE(Eleven.hasValue()) << Eleven.error();
  for (const char *Profile : {"llvm-O2-AArch64", "gcc-O3-x86-64"}) {
    ErrorOr<AsmLitmusTest> Compiled = compiledUnder(*Eleven, Profile);
    ASSERT_TRUE(Compiled.hasValue()) << Compiled.error();
    ASSERT_EQ(Compiled->Threads.size(), 11u);
    EXPECT_EQ(Compiled->Threads[10].Name, "P10");
    EXPECT_TRUE(roundTrips(*Compiled)) << Profile;
  }
  // "P<n>" sorts by n, leading zeros aside; other names follow in name
  // order, whether code or a register initialiser names them first.
  ErrorOr<AsmLitmusTest> T = parseAsmLitmus(
      "AArch64 t\n{ x = 0; P10:x1 = &x; }\n"
      "P2 {\n  ret\n}\nPx {\n  ret\n}\nP01 {\n  ret\n}\nP1 {\n  ret\n}\n"
      "Q {\n  ret\n}\nP10 {\n  ret\n}\nP {\n  ret\n}\nexists (x=0)\n");
  ASSERT_TRUE(T.hasValue()) << T.error();
  std::vector<std::string> Names;
  for (const AsmThread &Thread : T->Threads)
    Names.push_back(Thread.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"P01", "P1", "P2", "P10", "P",
                                             "Px", "Q"}));
}

//===----------------------------------------------------------------------===//
// Seeded mutation battery: hostile text parses to a test or an error
//===----------------------------------------------------------------------===//

TEST(AsmParserBattery, MutantsParseOrFail) {
  // Seeds: compiled tests of all six ISAs, with labels, relocations,
  // every memory operand shape and narrow types.
  std::vector<std::string> Seeds;
  for (const char *Profile :
       {"llvm-O2-AArch64", "llvm-O3-AArch64+lse+rcpc", "gcc-O2-ARMv7",
        "gcc-O3-x86-64", "gcc-O2-RISCV", "llvm-O3-PPC", "gcc-O2-MIPS"})
    for (const LitmusTest &T :
         {classicTest("MP+rel+acq"), classicTest("LB+ctrls"),
          realWorldTest("rw.mpmc+tkt.ar+pub.rel+con.rlx+w32"),
          realWorldTest("rw.dclp+pub.rel+chk.acq+pl.sc+w32"),
          realWorldTest("rw.spsc+pub.rlx+con.rlx+w8")}) {
      ErrorOr<AsmLitmusTest> Compiled = compiledUnder(T, Profile);
      ASSERT_TRUE(Compiled.hasValue()) << Profile << " " << T.Name;
      Seeds.push_back(printAsmLitmus(*Compiled));
    }
  // A condition nested past the limit is an error on the line it starts.
  for (const std::string &Seed : Seeds) {
    size_t Final = Seed.rfind("exists");
    ASSERT_NE(Final, std::string::npos);
    size_t Line = 1 + std::count(Seed.begin(), Seed.begin() + Final, '\n');
    std::string Deep = Seed.substr(0, Final) + "exists " +
                       std::string(20000, '(') + "x=0" +
                       std::string(20000, ')') + "\n";
    ErrorOr<AsmLitmusTest> T = parseAsmLitmus(Deep);
    ASSERT_FALSE(T.hasValue());
    EXPECT_EQ(T.error(), "line " + std::to_string(Line) +
                             ": nesting deeper than 64 levels (at '(')");
  }
  // Each mutant must give a test or an error; a test it gives must
  // print. Re-print stability holds for compiled output only: a mutant
  // such as "[x9]" under a PPC header parses, then prints as "(x9)".
  Mutator Mutants(
      25, Seeds,
      {"(", ")", "[", "]", ",", "#", ":", "::", "%hi(", "@l", "{", "}", ";",
       "=", "&", "-", "/\\", "//", "\n", " ", "exists", "~exists", "forall",
       "P0 {", "P10:x1 = &", ".L0:", "lock ", "#:got:", "0x", "1:2",
       "99999999999999999999", "-9223372036854775808", "uint8_t", "const"},
      "()[],:#%@{};=&-~ \n\t0123456789abcPxrw./\\");
  unsigned Accepted = 0;
  const unsigned Count = 4000;
  for (unsigned I = 0; I != Count; ++I) {
    ErrorOr<AsmLitmusTest> T = parseAsmLitmus(Mutants.next());
    if (T) {
      ++Accepted;
      printAsmLitmus(*T);
    }
  }
  // The battery reaches both outcomes.
  EXPECT_GT(Accepted, 0u);
  EXPECT_LT(Accepted, Count);
}

TEST(AsmProgramTest, ArchModelNames) {
  EXPECT_EQ(archModelName(Arch::AArch64), "aarch64");
  EXPECT_EQ(archModelName(Arch::AArch64, true), "aarch64+const");
  EXPECT_EQ(archModelName(Arch::Mips), "mips");
}
