//===--- litmus_test.cpp - Litmus AST, parser, printer tests --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"

#include <gtest/gtest.h>

using namespace telechat;

TEST(ValueTest, Basics) {
  EXPECT_TRUE(Value().isZero());
  EXPECT_EQ(Value(3).toString(), "3");
  EXPECT_EQ(Value(1, 2).toString(), "2:1");
  EXPECT_EQ(Value::fromInt(-1).Hi, ~uint64_t(0));
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(Value(2).add(Value(3)), Value(5));
  EXPECT_EQ(Value(5).sub(Value(3)), Value(2));
  EXPECT_EQ(Value(0b1100).bitXor(Value(0b1010)), Value(0b0110));
  EXPECT_EQ(Value(0b1100).bitAnd(Value(0b1010)), Value(0b1000));
}

TEST(ValueTest, CarryAcrossHalves) {
  Value Max(~uint64_t(0), 0);
  EXPECT_EQ(Max.add(Value(1)), Value(0, 1));
  EXPECT_EQ(Value(0, 1).sub(Value(1)), Value(~uint64_t(0), 0));
}

TEST(ValueTest, Truncation) {
  EXPECT_EQ(Value(0x1FF).truncated(IntType{8, false}), Value(0xFF));
  EXPECT_EQ(Value(7, 9).truncated(IntType{64, false}), Value(7));
  EXPECT_EQ(Value(7, 9).truncated(IntType{128, true}), Value(7, 9));
}

TEST(ValueTest, HalvesSwapped) {
  EXPECT_EQ(Value(1, 2).halvesSwapped(), Value(2, 1));
}

TEST(MemOrderTest, Predicates) {
  EXPECT_TRUE(isAcquire(MemOrder::Acquire));
  EXPECT_TRUE(isAcquire(MemOrder::SeqCst));
  EXPECT_TRUE(isAcquire(MemOrder::Consume));
  EXPECT_FALSE(isAcquire(MemOrder::Release));
  EXPECT_TRUE(isRelease(MemOrder::AcqRel));
  EXPECT_FALSE(isRelease(MemOrder::Relaxed));
  EXPECT_FALSE(isAtomicOrder(MemOrder::NA));
}

TEST(MemOrderTest, Names) {
  EXPECT_EQ(memOrderName(MemOrder::SeqCst), "memory_order_seq_cst");
  EXPECT_EQ(memOrderTag(MemOrder::Relaxed), "Rlx");
}

TEST(OutcomeTest, SetAndLookup) {
  Outcome O;
  O.set("P0:r0", Value(1));
  O.set("[x]", Value(2));
  O.set("P0:r0", Value(3)); // overwrite
  EXPECT_EQ(O.lookup("P0:r0"), Value(3));
  EXPECT_EQ(O.lookup("[x]"), Value(2));
  EXPECT_FALSE(O.lookup("[y]").has_value());
  EXPECT_EQ(O.entries().size(), 2u);
}

TEST(OutcomeTest, ProjectionAndRename) {
  Outcome O;
  O.set("a", Value(1));
  O.set("b", Value(2));
  Outcome P = O.projected({"a", "zzz"});
  EXPECT_EQ(P.entries().size(), 1u);
  Outcome R = O.renamed({{"a", "x"}, {"missing", "y"}});
  EXPECT_EQ(R.lookup("x"), Value(1));
  EXPECT_EQ(R.entries().size(), 1u);
}

TEST(OutcomeTest, OrderingIsCanonical) {
  Outcome A, B;
  A.set("k1", Value(1));
  A.set("k2", Value(2));
  B.set("k2", Value(2));
  B.set("k1", Value(1));
  EXPECT_EQ(A, B);
}

TEST(PredicateTest, EvalAtoms) {
  Outcome O;
  O.set("P1:r0", Value(1));
  O.set("[y]", Value(2));
  EXPECT_TRUE(Predicate::regEq("P1", "r0", Value(1)).eval(O));
  EXPECT_FALSE(Predicate::regEq("P1", "r0", Value(0)).eval(O));
  EXPECT_TRUE(Predicate::locEq("y", Value(2)).eval(O));
  // Missing keys read as zero (herd convention).
  EXPECT_TRUE(Predicate::regEq("P9", "r9", Value(0)).eval(O));
}

TEST(PredicateTest, Connectives) {
  Outcome O;
  O.set("[x]", Value(1));
  Predicate T = Predicate::locEq("x", Value(1));
  Predicate F = Predicate::locEq("x", Value(9));
  std::vector<Predicate> TF;
  TF.push_back(T);
  TF.push_back(F);
  EXPECT_FALSE(Predicate::conj(TF).eval(O));
  EXPECT_TRUE(Predicate::disj(TF).eval(O));
  EXPECT_TRUE(Predicate::negate(F).eval(O));
}

TEST(PredicateTest, CollectKeys) {
  std::vector<Predicate> Ops;
  Ops.push_back(Predicate::regEq("P0", "r0", Value(1)));
  Ops.push_back(Predicate::locEq("y", Value(2)));
  Predicate P = Predicate::conj(std::move(Ops));
  std::vector<std::string> Keys;
  P.collectKeys(Keys);
  EXPECT_EQ(Keys, (std::vector<std::string>{"P0:r0", "[y]"}));
}

TEST(ParserTest, ParsesFig1Shape) {
  LitmusTest T = paperFig1();
  EXPECT_EQ(T.Name, "Fig1");
  ASSERT_EQ(T.Threads.size(), 2u);
  ASSERT_EQ(T.Locations.size(), 2u);
  // P1: exchange (no dst), fence, load.
  const Thread &P1 = T.Threads[1];
  ASSERT_EQ(P1.Body.size(), 3u);
  EXPECT_EQ(P1.Body[0].K, Stmt::Kind::Rmw);
  EXPECT_TRUE(P1.Body[0].Dst.empty());
  EXPECT_EQ(P1.Body[0].Rmw, RmwKind::Xchg);
  EXPECT_EQ(P1.Body[1].K, Stmt::Kind::Fence);
  EXPECT_EQ(P1.Body[1].Order, MemOrder::Acquire);
  EXPECT_EQ(P1.Body[2].K, Stmt::Kind::Load);
}

TEST(ParserTest, DefinesExpandOrders) {
  auto T = parseLitmusC(R"(C defs
{ *x = 0; }
#define rlx memory_order_relaxed
void P0(atomic_int* x) { atomic_store_explicit(x, 1, rlx); }
exists (x=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Threads[0].Body[0].Order, MemOrder::Relaxed);
}

TEST(ParserTest, NonAtomicAccesses) {
  auto T = parseLitmusC(R"(C na
{ *x = 0; *y = 0; }
void P0(int* x, int* y) { int r0 = *x; *y = r0 + 1; }
exists (P0:r0=0)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Threads[0].Body[0].Order, MemOrder::NA);
  EXPECT_EQ(T->Threads[0].Body[1].K, Stmt::Kind::Store);
  EXPECT_EQ(T->Threads[0].Body[1].Val.K, Expr::Kind::Add);
}

TEST(ParserTest, IfElseAndNesting) {
  auto T = parseLitmusC(R"(C branches
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0) {
    atomic_store_explicit(y, 1, memory_order_relaxed);
  } else {
    if (r0 ^ r0) { *y = 2; }
  }
}
exists (y=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  const Stmt &If = T->Threads[0].Body[1];
  ASSERT_EQ(If.K, Stmt::Kind::If);
  EXPECT_EQ(If.Then.size(), 1u);
  ASSERT_EQ(If.Else.size(), 1u);
  EXPECT_EQ(If.Else[0].K, Stmt::Kind::If);
}

TEST(ParserTest, TypesAndConst) {
  auto T = parseLitmusC(R"(C types
{ uint8_t *a = 250; const int64_t *b = 5; __int128 *c = 0; }
void P0(int* a) { int r0 = *a; }
exists (P0:r0=250)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Locations[0].Type.Bits, 8u);
  EXPECT_FALSE(T->Locations[0].Type.Signed);
  EXPECT_TRUE(T->Locations[1].Const);
  EXPECT_EQ(T->Locations[1].Type.Bits, 64u);
  EXPECT_EQ(T->Locations[2].Type.Bits, 128u);
}

TEST(ParserTest, Wide128Literals) {
  auto T = parseLitmusC(R"(C wide
{ __int128 *x = 0; }
void P0(atomic_int128* x) {
  atomic_store_explicit(x, 2:1, memory_order_relaxed);
}
exists (x=2:1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Threads[0].Body[0].Val.Imm, Value(1, 2));
  // The predicate value too.
  Outcome O;
  O.set("[x]", Value(1, 2));
  EXPECT_TRUE(T->Final.P.eval(O));
}

TEST(ParserTest, FinalConditionForms) {
  auto T1 = parseLitmusC(
      "C a\n{ *x = 0; }\nvoid P0(int* x){ *x = 1; }\n~exists (x=0)\n");
  ASSERT_TRUE(T1.hasValue()) << T1.error();
  EXPECT_EQ(T1->Final.Q, FinalCond::Quant::NotExists);
  auto T2 = parseLitmusC(
      "C b\n{ *x = 0; }\nvoid P0(int* x){ *x = 1; }\nforall (x=1)\n");
  ASSERT_TRUE(T2.hasValue()) << T2.error();
  EXPECT_EQ(T2->Final.Q, FinalCond::Quant::Forall);
  auto T3 = parseLitmusC(
      "C c\n{ *x = 0; }\nvoid P0(int* x){ *x = 1; }\nexists (0:r0=0)\n");
  ASSERT_TRUE(T3.hasValue()) << T3.error();
  std::vector<std::string> Keys;
  T3->Final.P.collectKeys(Keys);
  EXPECT_EQ(Keys, std::vector<std::string>{"P0:r0"});
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  struct BadCase {
    const char *Src;
    const char *Expect; ///< Substring of the error.
  };
  const BadCase Cases[] = {
      {"C x\n{ *x = 0; }\nvoid P0(int* x) {\n  *x = ;\n}\nexists (x=0)\n",
       "line 4"},
      // Numeric literals: trailing characters and overflow are refused
      // in the initial state, in thread code and in the final condition.
      {"C x\n{ *x = 12abc; }\nvoid P0(int* x) {\n  *x = 1;\n}\n"
       "exists (x=0)\n",
       "line 2: malformed number"},
      {"C x\n{ *x = 12345678901234567890123; }\nvoid P0(int* x) {\n"
       "  *x = 1;\n}\nexists (x=0)\n",
       "line 2: malformed number"},
      {"C x\n{ *x = 0; }\nvoid P0(atomic_int* x) {\n"
       "  atomic_store_explicit(x, 1zz, memory_order_relaxed);\n}\n"
       "exists (x=0)\n",
       "line 4: malformed number"},
      {"C x\n{ *x = 0; }\nvoid P0(int* x) {\n  *x = 1;\n}\nexists (x=1q)\n",
       "line 6: malformed number"},
      {"C x\n{ *x = 0; }\nvoid P0(int* x) {\n  *x = 1;\n}\n"
       "exists (x=0:1q)\n",
       "line 6: malformed number"},
  };
  for (const BadCase &C : Cases) {
    auto T = parseLitmusC(C.Src);
    ASSERT_FALSE(T.hasValue()) << C.Src;
    EXPECT_NE(T.error().find(C.Expect), std::string::npos)
        << "error for\n"
        << C.Src << "\nwas: " << T.error();
  }
}

TEST(ParserTest, RejectsUndeclaredLocation) {
  auto T = parseLitmusC(
      "C x\n{ *x = 0; }\nvoid P0(int* y){ *y = 1; }\nexists (x=0)\n");
  ASSERT_FALSE(T.hasValue());
  EXPECT_NE(T.error().find("undeclared location"), std::string::npos);
}

TEST(ParserTest, RejectsUndefinedRegister) {
  auto T = parseLitmusC(
      "C x\n{ *x = 0; }\nvoid P0(int* x){ *x = r7; }\nexists (x=0)\n");
  ASSERT_FALSE(T.hasValue());
  EXPECT_NE(T.error().find("undefined register"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateThreads) {
  auto T = parseLitmusC("C x\n{ *x = 0; }\nvoid P0(int* x){ *x = 1; }\n"
                        "void P0(int* x){ *x = 2; }\nexists (x=0)\n");
  ASSERT_FALSE(T.hasValue());
  EXPECT_NE(T.error().find("duplicate thread"), std::string::npos);
}

TEST(ParserTest, CommentsAreSkipped) {
  auto T = parseLitmusC(R"(C comments
// leading comment
{ *x = 0; } /* block
   spanning lines */
void P0(int* x) {
  *x = 1; // trailing
}
exists (x=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
}

namespace {

class RoundTripTest : public testing::TestWithParam<std::string> {};

} // namespace

TEST_P(RoundTripTest, PrintParseIsStable) {
  LitmusTest Original = classicTest(GetParam());
  std::string Printed = printLitmusC(Original);
  ErrorOr<LitmusTest> Reparsed = parseLitmusC(Printed);
  ASSERT_TRUE(Reparsed.hasValue())
      << GetParam() << ": " << Reparsed.error() << "\n"
      << Printed;
  // Second print must be identical (fixpoint after one round).
  EXPECT_EQ(printLitmusC(*Reparsed), Printed) << GetParam();
  EXPECT_EQ(Reparsed->Threads.size(), Original.Threads.size());
  EXPECT_EQ(Reparsed->Final.toString(), Original.Final.toString());
}

INSTANTIATE_TEST_SUITE_P(Classics, RoundTripTest,
                         testing::ValuesIn(classicNames()));

TEST(AstTest, AssignedRegisters) {
  LitmusTest T = classicTest("MP");
  // The reading thread assigns r0 and r1.
  bool Found = false;
  for (const Thread &Th : T.Threads) {
    std::vector<std::string> Regs = assignedRegisters(Th);
    if (Regs.size() == 2)
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(AstTest, ForEachStmtVisitsBranches) {
  LitmusTest T = classicTest("LB+ctrls");
  unsigned Stores = 0;
  for (const Thread &Th : T.Threads)
    forEachStmt(Th.Body, [&](const Stmt &S) {
      if (S.K == Stmt::Kind::Store)
        ++Stores;
    });
  EXPECT_EQ(Stores, 4u); // two identical stores per diamond, two threads
}

TEST(AstTest, ValidateDetectsBadTest) {
  LitmusTest T = classicTest("MP");
  T.Threads[0].Body.push_back(Stmt::store("nosuch", Value(1), MemOrder::NA));
  EXPECT_FALSE(T.validate().empty());
}
