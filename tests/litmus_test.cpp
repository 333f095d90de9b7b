//===--- litmus_test.cpp - Litmus AST, parser, printer tests --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "cat/Parser.h"
#include "diy/Classics.h"
#include "diy/RealWorld.h"
#include "dist/Serialize.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "litmus/Snippet.h"
#include "models/Models.h"
#include "support/Limits.h"

#include "Mutate.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  // A directive splits on any blank, tabs included.
  auto Tabs = parseLitmusC("C defs\n{ *x = 0; }\n"
                           "#define\tacq\tmemory_order_acquire\n"
                           "void P0(atomic_int* x) {\n"
                           "  int r0 = atomic_load_explicit(x, acq);\n}\n"
                           "exists (P0:r0=0)\n");
  ASSERT_TRUE(Tabs.hasValue()) << Tabs.error();
  EXPECT_EQ(Tabs->Threads[0].Body[0].Order, MemOrder::Acquire);
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

//===----------------------------------------------------------------------===//
// The nesting limit: the parser refuses exactly what the wire decoder
// refuses, with a line-numbered error, and never recurses past it.
//===----------------------------------------------------------------------===//

namespace {

/// A one-thread test: P0 loads x into r0, then runs \p Body.
std::string deepTest(const std::string &Body,
                     const std::string &Final = "exists (P0:r0=0)") {
  return "C deep\n{ *x = 0; }\nvoid P0(atomic_int* x) {\n"
         "  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n" +
         Body + "}\n" + Final + "\n";
}

/// "int r1 = r0 + 1 + ... + 1;" with \p Terms terms: a left-leaning
/// tree \p Terms levels tall.
std::string sumOf(unsigned Terms) {
  std::string S = "  int r1 = r0";
  for (unsigned I = 1; I != Terms; ++I)
    S += " + 1";
  return S + ";\n";
}

/// \p Levels nested ifs around \p Inner, one line each.
std::string nestedIfs(
    unsigned Levels,
    const std::string &Inner =
        "atomic_store_explicit(x, 1, memory_order_relaxed);\n") {
  std::string S;
  for (unsigned I = 0; I != Levels; ++I)
    S += "if (r0) {\n";
  S += Inner;
  for (unsigned I = 0; I != Levels; ++I)
    S += "}\n";
  return S;
}

/// True when \p Text parses, and the test survives the wire: it decodes,
/// and prints and reparses to the same text.
::testing::AssertionResult parsesAndRoundTrips(const std::string &Text) {
  ErrorOr<LitmusTest> T = parseLitmusC(Text);
  if (!T.hasValue())
    return ::testing::AssertionFailure() << T.error();
  WireBuffer B;
  encodeLitmusTest(B, *T);
  WireCursor C(B.data(), B.size());
  LitmusTest Out;
  if (!decodeLitmusTest(C, Out) || C.remaining() != 0)
    return ::testing::AssertionFailure() << "the decoder refuses it";
  std::string Printed = printLitmusC(*T);
  if (printLitmusC(Out) != Printed)
    return ::testing::AssertionFailure() << "decodes to another test";
  ErrorOr<LitmusTest> Reparsed = parseLitmusC(Printed);
  if (!Reparsed.hasValue() || printLitmusC(*Reparsed) != Printed)
    return ::testing::AssertionFailure() << "printed form does not reparse";
  return ::testing::AssertionSuccess();
}

/// True when \p Text is refused for its nesting, at line \p Line.
::testing::AssertionResult refusedAsTooDeep(const std::string &Text,
                                            unsigned Line) {
  ErrorOr<LitmusTest> T = parseLitmusC(Text);
  if (T.hasValue())
    return ::testing::AssertionFailure() << "parsed";
  std::string Want = "line " + std::to_string(Line) + ": nesting deeper";
  if (T.error().find(Want) == std::string::npos)
    return ::testing::AssertionFailure() << T.error();
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(ParserTest, DeepNestingIsAnErrorNotACrash) {
  // 20,000 parentheses overflowed the parser's stack; a 100-term sum
  // parsed, but the wire decoder refused it, so it ran locally and
  // failed under --serve.
  std::string Parens(20000, '(');
  EXPECT_TRUE(refusedAsTooDeep(
      deepTest("  int r1 = " + Parens + "1" + std::string(20000, ')') +
               ";\n"),
      5));
  EXPECT_TRUE(refusedAsTooDeep(deepTest(sumOf(100)), 5));
  EXPECT_TRUE(refusedAsTooDeep(deepTest(nestedIfs(20000)), 5 + MaxTreeDepth));
  EXPECT_TRUE(refusedAsTooDeep(
      deepTest("", "exists " + Parens + "x=0" + std::string(20000, ')')),
      6));
  std::string Nots;
  for (unsigned I = 0; I != 20000; ++I)
    Nots += "~";
  EXPECT_TRUE(refusedAsTooDeep(deepTest("", "exists (" + Nots + "x=0)"), 6));
}

TEST(ParserTest, NestingLimitMatchesTheWireDecoder) {
  // Expression trees: a statement's expressions sit one level below it,
  // and no node may sit deeper than MaxTreeDepth.
  EXPECT_TRUE(parsesAndRoundTrips(deepTest(sumOf(MaxTreeDepth))));
  EXPECT_TRUE(refusedAsTooDeep(deepTest(sumOf(MaxTreeDepth + 1)), 5));
  // Statement nesting: the innermost store's value needs a level too.
  EXPECT_TRUE(parsesAndRoundTrips(deepTest(nestedIfs(MaxTreeDepth - 1))));
  EXPECT_TRUE(
      refusedAsTooDeep(deepTest(nestedIfs(MaxTreeDepth)), 5 + MaxTreeDepth));
  // Both together: an expression under ten ifs has ten levels less room.
  auto Under10 = [](unsigned Terms) {
    return deepTest(nestedIfs(10, sumOf(Terms)));
  };
  EXPECT_TRUE(parsesAndRoundTrips(Under10(MaxTreeDepth - 10)));
  EXPECT_TRUE(refusedAsTooDeep(Under10(MaxTreeDepth - 9), 15));
  // Parentheses add no node, so they only bound the recursion.
  auto Parens = [](unsigned Depth) {
    return deepTest("  int r1 = " + std::string(Depth, '(') + "r0" +
                    std::string(Depth, ')') + ";\n");
  };
  EXPECT_TRUE(parsesAndRoundTrips(Parens(MaxTreeDepth)));
  EXPECT_TRUE(refusedAsTooDeep(Parens(MaxTreeDepth + 1), 5));
  // The final condition's root sits at depth 0: one level more room.
  auto Negations = [](unsigned N) {
    std::string Nots;
    for (unsigned I = 0; I != N; ++I)
      Nots += "not ";
    return deepTest("", "exists (" + Nots + "x=0)");
  };
  EXPECT_TRUE(parsesAndRoundTrips(Negations(MaxTreeDepth)));
  EXPECT_TRUE(refusedAsTooDeep(Negations(MaxTreeDepth + 1), 6));
}

//===----------------------------------------------------------------------===//
// Seeded mutation battery: every text frontend answers hostile input with
// a value or an error, and what the C and snippet frontends accept
// survives the wire and the printer.
//===----------------------------------------------------------------------===//

namespace {

/// The kernels the snippet tests and the CI corpus drill spell out.
const char *const Kernels[] = {
    R"(kernel spsc_cell
std::atomic<int> widx = 0;
std::atomic<int> slot = 0;
thread P0 {
  slot.store(42, std::memory_order_relaxed);
  widx.store(1, std::memory_order_release);
}
thread P1 {
  int r0 = widx.load(std::memory_order_acquire);
  if (r0) { int r1 = slot.load(std::memory_order_relaxed); }
}
exists (P1:r0=1 && P1:r1=0)
)",
    R"(
std::atomic<int8_t> x = 0;
atomic<long> y = 1;
int z = 0;
void P0() {
  x.store(1, memory_order_release);
  y.store(2, std::memory_order::seq_cst);
  int a = x.exchange(3, rl::mo_acq_rel);
  int b = y.fetch_add(1, mo_relaxed);
  y.fetch_sub(1);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  x = 5;
  int c = y;
  z = 7;
  int d = z;
  int e = (a + b) ^ (c & d) - 1;
}
forall (P0:e=0 || x=5)
)",
    R"(
std::atomic<int> cell = 0;
std::atomic<int> ready = 0;
thread W {
  cell.store(1, std::memory_order_relaxed);
  ready.store(1, std::memory_order_release);
}
thread R {
  int seen = ready.load(std::memory_order_acquire);
  if (seen) { int got = cell.load(std::memory_order_relaxed); }
}
exists (R:seen=1 && R:got=0)
)",
    R"(kernel mp_rel_acq
std::atomic<int> flag = 0;
std::atomic<int> data = 0;
thread P0 {
  data.store(1, std::memory_order_relaxed);
  flag.store(1, std::memory_order_release);
}
thread P1 {
  int r0 = flag.load(std::memory_order_acquire);
  int r1 = data.load(std::memory_order_relaxed);
}
exists (P1:r0=1 && P1:r1=0)
)",
    R"(kernel store_buffer
std::atomic<int> x = 0;
std::atomic<int> y = 0;
thread P0 {
  x.store(1, std::memory_order_relaxed);
  int r0 = y.load(std::memory_order_relaxed);
}
thread P1 {
  y.store(1, std::memory_order_relaxed);
  int r1 = x.load(std::memory_order_relaxed);
}
exists (P0:r0=0 && P1:r1=0)
)",
};

/// True when \p T comes back unchanged from the wire, and print -> parse
/// -> print is a fixpoint.
::testing::AssertionResult survivesWireAndPrinter(const LitmusTest &T) {
  WireBuffer B;
  encodeLitmusTest(B, T);
  WireCursor C(B.data(), B.size());
  LitmusTest Out;
  if (!decodeLitmusTest(C, Out) || C.remaining() != 0)
    return ::testing::AssertionFailure() << "the decoder refuses it";
  if (!(Out == T))
    return ::testing::AssertionFailure() << "decodes to another test";
  std::string Printed = printLitmusC(T);
  ErrorOr<LitmusTest> Reparsed = parseLitmusC(Printed);
  if (!Reparsed.hasValue())
    return ::testing::AssertionFailure()
           << "prints to text the parser refuses: " << Reparsed.error()
           << "\n"
           << Printed;
  if (printLitmusC(*Reparsed) != Printed)
    return ::testing::AssertionFailure() << "prints differently:\n"
                                         << Printed;
  return ::testing::AssertionSuccess();
}

/// \p Seed with its final condition replaced by one nested 20,000
/// levels, on a line of its own; sets \p Line to that line.
std::string deepFinal(const std::string &Seed, unsigned &Line) {
  size_t Final = Seed.rfind("exists");
  if (Final == std::string::npos)
    Final = Seed.rfind("forall");
  Line = 2 + unsigned(std::count(Seed.begin(), Seed.begin() + Final, '\n'));
  return Seed.substr(0, Final) + "exists\n" + std::string(20000, '(') +
         "x=0" + std::string(20000, ')') + "\n";
}

/// Runs \p Count mutants from \p Mutants through \p Parse; \p Check
/// returns whether an accepted value holds up. Returns the number
/// accepted and fails the test for each value that does not hold up.
template <typename ParseFn, typename CheckFn>
unsigned runMutants(Mutator &Mutants, unsigned Count, ParseFn Parse,
                    CheckFn Check) {
  unsigned Accepted = 0;
  for (unsigned I = 0; I != Count; ++I) {
    std::string M = Mutants.next();
    auto V = Parse(M);
    if (!V)
      continue;
    ++Accepted;
    ::testing::AssertionResult R = Check(*V);
    EXPECT_TRUE(R) << "mutant:\n" << M;
  }
  return Accepted;
}

} // namespace

TEST(FrontendBattery, MutantsParseOrFail) {
  std::vector<std::string> CSeeds;
  for (const std::string &Name : classicNames())
    CSeeds.push_back(printLitmusC(classicTest(Name)));
  for (const LitmusTest &T : {paperFig1(), paperFig10(), paperFig11()})
    CSeeds.push_back(printLitmusC(T));
  for (const LitmusTest &T : realWorldTests())
    CSeeds.push_back(printLitmusC(T));
  std::vector<std::string> KernelSeeds(std::begin(Kernels), std::end(Kernels));
  std::vector<std::string> CatSeeds;
  for (const std::string &Name : modelNames())
    CatSeeds.push_back(modelText(Name));

  // One depth bomb per seed set, refused on its own line.
  unsigned Line = 0;
  ErrorOr<LitmusTest> Deep = parseLitmusC(deepFinal(CSeeds[0], Line));
  ASSERT_FALSE(Deep.hasValue());
  EXPECT_EQ(Deep.error(), "line " + std::to_string(Line) +
                              ": nesting deeper than 64 levels (at '(')");
  Deep = parseKernelSnippet(deepFinal(KernelSeeds[0], Line));
  ASSERT_FALSE(Deep.hasValue());
  EXPECT_EQ(Deep.error(), "final condition: line " + std::to_string(Line) +
                              ": nesting deeper than 64 levels (at '(')");
  std::string CatBomb = CatSeeds[0] + "\nlet deep = " +
                        std::string(20000, '(') + "po" +
                        std::string(20000, ')') + "\n";
  ErrorOr<CatModel> DeepCat = parseCat(CatBomb);
  ASSERT_FALSE(DeepCat.hasValue());
  EXPECT_EQ(DeepCat.error().rfind(
                "cat:" +
                    std::to_string(2 + std::count(CatSeeds[0].begin(),
                                                  CatSeeds[0].end(), '\n')) +
                    ": expression nests deeper than 64 levels",
                0),
            0u)
      << DeepCat.error();

  // Byte flips, truncations, splices and each dialect's tokens. Every
  // mutant gives a value or an error, and each frontend reaches both.
  const unsigned Count = 20000;
  Mutator CMutants(
      27, CSeeds,
      {"(", ")", "{", "}", ";", ",", "*", "=", "+", "-", "^", "&", ":", "~",
       "[", "]", "/\\", "\\/", "&&", "||", "::", "#", "#define rlx "
       "memory_order_relaxed\n", "#define\tacq\tmemory_order_acquire\n",
       "\n", " ", "\t", "//", "/*", "*/", "if (r0) {", "else", "exists",
       "~exists", "forall", "not ", "P0:", "1:", "atomic_load_explicit(",
       "atomic_store_explicit(", "atomic_exchange_explicit(",
       "atomic_fetch_add_explicit(", "atomic_thread_fence(",
       "memory_order_relaxed", "memory_order_seq_cst", "rlx", "acq", "int ",
       "const ", "uint8_t ", "__int128 ", "atomic_int* ", "void P9(", "r0",
       "2:1", "0x", "99999999999999999999", "std::"},
      "(){}[];,*=+-^&:~/\\# \n\t0123456789abcPrxy_");
  unsigned CAccepted =
      runMutants(CMutants, Count, [](const std::string &M) {
        return parseLitmusC(M);
      }, survivesWireAndPrinter);
  Mutator KernelMutants(
      27, KernelSeeds,
      {"(", ")", "{", "}", ";", ",", "=", "+", "-", "^", "&", ":", "::", "~",
       ".", "<", ">", "&&", "||", "/\\", "\\/", "#", "#define one 1\n",
       "\n", " ", "\t", "//", "/*", "*/", "if (r0) {", "else", "exists",
       "~exists", "forall", "not ", "kernel ", "std::", "rl::", "ns::",
       "std::atomic<int> ", "atomic<long> ", "int ", "const ", "thread P9 {",
       "void P9() {", ".load(", ".store(", ".exchange(", ".fetch_add(",
       ".fetch_sub(", "std::memory_order_acquire", "memory_order::seq_cst",
       "rl::mo_relaxed", "mo_release", "std::atomic_thread_fence(", "r0",
       "2:1", "0x", "99999999999999999999"},
      "(){}[];,=+-^&|:~.<>/\\# \n\t0123456789abcPrxy_");
  unsigned KernelAccepted =
      runMutants(KernelMutants, Count, [](const std::string &M) {
        return parseKernelSnippet(M);
      }, survivesWireAndPrinter);
  Mutator CatMutants(
      27, CatSeeds,
      {"(", ")", "[", "]", "|", "&", ";", "\\", "*", "+", "?", "~", "=",
       "^-1", "^+", "^*", "let ", "rec ", "and ", "as ", "acyclic ",
       "irreflexive ", "empty ", "flag ", "show ", "include ", "0", "_",
       "po", "rf", "co", "fr", "(*", "*)", "//", "\n", " "},
      "()[]|&;\\*+?~=^- \n\t0123456789abcdefgloprsw_.");
  unsigned CatAccepted =
      runMutants(CatMutants, Count, [](const std::string &M) {
        return parseCat(M);
      }, [](const CatModel &) { return ::testing::AssertionSuccess(); });
  for (unsigned Accepted : {CAccepted, KernelAccepted, CatAccepted}) {
    EXPECT_GT(Accepted, 0u);
    EXPECT_LT(Accepted, Count);
  }
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

namespace {

/// Whether \p T comes back from the wire.
bool decodes(const LitmusTest &T) {
  WireBuffer B;
  encodeLitmusTest(B, T);
  WireCursor C(B.data(), B.size());
  LitmusTest Out;
  return decodeLitmusTest(C, Out) && C.remaining() == 0;
}

/// r0 + 1 + ... + 1, a left-leaning tree \p Levels tall.
Expr sumTree(unsigned Levels) {
  Expr E = Expr::reg("r0");
  for (unsigned I = 1; I != Levels; ++I)
    E = Expr::binary(Expr::Kind::Add, std::move(E), Expr::imm(Value(1)));
  return E;
}

/// One thread that loads x into r0 and runs \p Body after it.
LitmusTest builtTest(std::vector<Stmt> Body,
                     Predicate P = Predicate::locEq("x", Value(0))) {
  LitmusTest T;
  T.Name = "built";
  T.Locations.push_back(LocDecl{"x", IntType{32, true}, true, false, Value()});
  Body.insert(Body.begin(), Stmt::load("r0", "x", MemOrder::Relaxed));
  T.Threads.push_back(Thread{"P0", std::move(Body)});
  T.Final.P = std::move(P);
  return T;
}

/// \p Levels nested ifs around a store of r0.
std::vector<Stmt> builtIfs(unsigned Levels) {
  std::vector<Stmt> Body = {Stmt::store("x", Expr::reg("r0"), MemOrder::NA)};
  for (unsigned I = 0; I != Levels; ++I) {
    std::vector<Stmt> Outer;
    Outer.push_back(Stmt::ifNonZero(Expr::reg("r0"), std::move(Body)));
    Body = std::move(Outer);
  }
  return Body;
}

Predicate builtNots(unsigned N) {
  Predicate P = Predicate::locEq("x", Value(0));
  for (unsigned I = 0; I != N; ++I)
    P = Predicate::negate(std::move(P));
  return P;
}

} // namespace

TEST(AstTest, ValidateCountsDepthAsTheDecoderDoes) {
  // Each tree at the limit passes both; one level deeper, both refuse it.
  const LitmusTest AtLimit[] = {
      builtTest({Stmt::localAssign("r1", sumTree(MaxTreeDepth))}),
      builtTest(builtIfs(MaxTreeDepth - 1)),
      builtTest({}, builtNots(MaxTreeDepth)),
  };
  const LitmusTest TooDeep[] = {
      builtTest({Stmt::localAssign("r1", sumTree(MaxTreeDepth + 1))}),
      builtTest(builtIfs(MaxTreeDepth)),
      builtTest({}, builtNots(MaxTreeDepth + 1)),
  };
  for (const LitmusTest &T : AtLimit) {
    EXPECT_EQ(T.validate(), "");
    EXPECT_TRUE(decodes(T));
  }
  for (const LitmusTest &T : TooDeep) {
    EXPECT_NE(T.validate().find("nests deeper than 64 levels"),
              std::string::npos)
        << T.validate();
    EXPECT_FALSE(decodes(T));
  }
  // A tree far past the limit is refused without walking all of it.
  EXPECT_NE(builtTest(builtIfs(1000)).validate(), "");
}
