//===--- realworld_test.cpp - Real-world kernel suite batteries -----------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The realworld suite's pinning batteries. Three claims are checked
/// over every one of the 250+ instantiations:
///
///   1. The oracle verdicts hold: at sweep points the idiom contract
///      marks Forbidden, no RC11 outcome satisfies the exists-clause;
///      at Observable points some outcome does (the documented weak
///      behaviour).
///   2. The sweep and solve backends produce byte-identical outcome
///      sets at j1 and j4 -- the cross-backend differential gate.
///   3. print -> parse -> print is a fixpoint (the PR 7 width-collapse
///      printer bug would have conflated order/width sweep siblings).
///
/// Plus the canonical-identity properties dedupe relies on: sweep
/// siblings keep distinct CanonKeys, thread permutations collapse, and
/// a doubled corpus through a deduping CampaignLedger answers exactly
/// the duplicate half from representatives.
///
//===----------------------------------------------------------------------===//

#include "core/Campaign.h"
#include "dist/CampaignLedger.h"
#include "diy/RealWorld.h"
#include "litmus/Canon.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "litmus/Snippet.h"
#include "sim/Backend.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

using namespace telechat;

namespace {

SimResult runBackend(const LitmusTest &T, SimBackendKind Backend,
                     unsigned Jobs) {
  SimOptions O;
  O.Backend = Backend;
  O.Jobs = Jobs;
  return simulateC(T, "rc11", O);
}

/// Whether some allowed outcome satisfies the test's exists-clause.
bool existsWitnessed(const LitmusTest &T, const SimResult &R) {
  for (const Outcome &O : R.Allowed)
    if (T.Final.P.eval(O))
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Suite shape
//===----------------------------------------------------------------------===//

TEST(RealWorldSuiteTest, ShapeAndAddressing) {
  std::vector<RealWorldCase> Suite = realWorldSuite();
  // The acceptance bar: hundreds of instantiations from six templates.
  EXPECT_GE(Suite.size(), 200u);
  EXPECT_EQ(realWorldFamilies().size(), 6u);

  std::set<std::string> Names;
  std::map<std::string, unsigned> PerFamily;
  for (const RealWorldCase &C : Suite) {
    EXPECT_TRUE(Names.insert(C.Test.Name).second)
        << "duplicate instantiation name " << C.Test.Name;
    EXPECT_EQ(C.Test.validate(), "") << C.Test.Name;
    EXPECT_EQ(C.Test.Final.Q, FinalCond::Quant::Exists) << C.Test.Name;
    ++PerFamily[C.Family];
  }
  for (const std::string &F : realWorldFamilies()) {
    EXPECT_GT(PerFamily[F], 0u) << F;
    ErrorOr<std::vector<RealWorldCase>> Family = realWorldFamily(F);
    ASSERT_TRUE(Family.hasValue()) << F;
    EXPECT_EQ(Family->size(), PerFamily[F]) << F;
  }
  EXPECT_FALSE(realWorldFamily("nosuch").hasValue());

  // Name lookup round-trips through the suite, like classicTest().
  LitmusTest ByName = realWorldTest(Suite.front().Test.Name);
  EXPECT_EQ(printLitmusC(ByName), printLitmusC(Suite.front().Test));

  // realWorldTests()/realWorldNames() mirror the suite in order.
  EXPECT_EQ(realWorldTests().size(), Suite.size());
  std::vector<std::string> AllNames = realWorldNames();
  ASSERT_EQ(AllNames.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I)
    EXPECT_EQ(AllNames[I], Suite[I].Test.Name);
}

//===----------------------------------------------------------------------===//
// The big battery: verdicts + cross-backend j1/j4 byte-identity +
// printer fixpoint, one pass over every instantiation
//===----------------------------------------------------------------------===//

TEST(RealWorldSuiteTest, VerdictAndCrossBackendBattery) {
  std::vector<RealWorldCase> Suite = realWorldSuite();
  ASSERT_GE(Suite.size(), 200u);

  // One simulation per (case, backend, jobs) spread across the pool;
  // each individual run is j-controlled explicitly, so parallelising
  // across cases does not disturb what is being pinned.
  ThreadPool Pool(0);
  std::vector<std::string> Failures(Suite.size());
  Pool.parallelFor(Suite.size(), [&](size_t I) {
    const RealWorldCase &C = Suite[I];
    const LitmusTest &T = C.Test;
    std::string &Fail = Failures[I];
    auto Check = [&](bool Cond, const std::string &Msg) {
      if (!Cond && Fail.empty())
        Fail = T.Name + ": " + Msg;
    };

    SimResult Sweep1 = runBackend(T, SimBackendKind::Sweep, 1);
    Check(Sweep1.ok(), "sweep j1 error: " + Sweep1.Error);
    Check(!Sweep1.TimedOut, "sweep j1 timeout");
    if (!Fail.empty())
      return;

    // Differential gate: solve and j4 variants byte-identical.
    const std::string Ref = outcomeSetToString(Sweep1.Allowed);
    for (SimBackendKind B : {SimBackendKind::Sweep, SimBackendKind::Solve})
      for (unsigned Jobs : {1u, 4u}) {
        if (B == SimBackendKind::Sweep && Jobs == 1)
          continue;
        SimResult R = runBackend(T, B, Jobs);
        std::string Label = std::string(B == SimBackendKind::Sweep
                                            ? "sweep"
                                            : "solve") +
                            " j" + std::to_string(Jobs);
        Check(R.ok(), Label + " error: " + R.Error);
        Check(outcomeSetToString(R.Allowed) == Ref,
              Label + " outcome set diverges from sweep j1");
        Check(R.Flags == Sweep1.Flags, Label + " flags diverge");
      }

    // Oracle verdicts from the idiom contracts.
    bool Witnessed = existsWitnessed(T, Sweep1);
    if (C.Status == WeakStatus::Forbidden)
      Check(!Witnessed, "forbidden weak outcome is reachable");
    else if (C.Status == WeakStatus::Observable)
      Check(Witnessed, "documented weak outcome was not observed");

    // Printer fixpoint: the printed form reparses to the same print.
    std::string Printed = printLitmusC(T);
    ErrorOr<LitmusTest> Reparsed = parseLitmusC(Printed);
    if (!Reparsed.hasValue()) {
      Check(false, "printed test fails to reparse: " + Reparsed.error());
      return;
    }
    Check(printLitmusC(*Reparsed) == Printed,
          "print -> parse -> print is not a fixpoint");
    Check(Reparsed->Name == T.Name, "name does not survive the round trip");
  });

  unsigned Failed = 0;
  for (const std::string &F : Failures)
    if (!F.empty()) {
      ADD_FAILURE() << F;
      ++Failed;
    }
  EXPECT_EQ(Failed, 0u);

  // The sweep must exercise every verdict class.
  unsigned Forbidden = 0, Observable = 0, Unspecified = 0;
  for (const RealWorldCase &C : Suite)
    (C.Status == WeakStatus::Forbidden
         ? Forbidden
         : C.Status == WeakStatus::Observable ? Observable : Unspecified)++;
  EXPECT_GT(Forbidden, 0u);
  EXPECT_GT(Observable, 0u);
  EXPECT_GT(Unspecified, 0u);
  EXPECT_GT(Forbidden + Observable, Suite.size() / 2);
}

//===----------------------------------------------------------------------===//
// Canonical identity: sweep siblings separate, permutations collapse
//===----------------------------------------------------------------------===//

TEST(RealWorldSuiteTest, OrderSweepSiblingsKeepDistinctCanonKeys) {
  // Orders and widths are identity (the PR 7 printer fix pins widths
  // into the canonical text), so within a family every sweep point must
  // canonicalize apart -- if two collapsed, dedupe would answer one
  // sweep point with another's outcome set and the sweep would be a lie.
  for (const std::string &F : realWorldFamilies()) {
    ErrorOr<std::vector<RealWorldCase>> Family = realWorldFamily(F);
    ASSERT_TRUE(Family.hasValue()) << F;
    std::map<std::string, std::string> TextToName;
    for (const RealWorldCase &C : *Family) {
      CanonResult R = canonicalizeTest(C.Test);
      auto [It, Inserted] = TextToName.emplace(R.Text, C.Test.Name);
      EXPECT_TRUE(Inserted)
          << F << ": " << C.Test.Name << " canonicalizes identically to "
          << It->second;
    }
  }
}

TEST(RealWorldSuiteTest, ThreadPermutedReinstantiationsCollapse) {
  // Re-instantiating a kernel with its threads listed in another order
  // (same bodies, same predicate) is the same test; canonicalization
  // tries every thread permutation, so the keys must match.
  unsigned Checked = 0;
  for (const RealWorldCase &C : realWorldSuite()) {
    if (C.Test.Threads.size() < 2)
      continue;
    LitmusTest Permuted = C.Test;
    std::rotate(Permuted.Threads.begin(), Permuted.Threads.begin() + 1,
                Permuted.Threads.end());
    CanonResult A = canonicalizeTest(C.Test);
    CanonResult B = canonicalizeTest(Permuted);
    EXPECT_EQ(A.Text, B.Text) << C.Test.Name;
    EXPECT_TRUE(A.Key == B.Key) << C.Test.Name;
    ++Checked;
  }
  EXPECT_GE(Checked, 200u);
}

TEST(RealWorldSuiteTest, DedupeAnswersTheDoubledCorpusFromRepresentatives) {
  // A campaign fed the suite twice must simulate each canonical class
  // once: the second copy (and any cross-family coincidences, e.g. an
  // spsc point whose shape equals a flagmsg point at the same orders
  // and widths) comes back as renamed representative results.
  std::vector<LitmusTest> Tests = realWorldTests();
  std::vector<LitmusTest> Doubled = Tests;
  Doubled.insert(Doubled.end(), Tests.begin(), Tests.end());

  std::set<std::string> Classes;
  for (const LitmusTest &T : Tests)
    Classes.insert(canonicalizeTest(T).Text);

  // Admit the whole stream before anything completes, so every
  // duplicate parks behind its representative.
  CampaignLedger Ledger(/*Dedupe=*/true);
  std::set<uint64_t> Served;
  size_t Dups = 0;
  auto ParkedBehindServed = [&] {
    size_t N = 0;
    for (uint64_t Id : Served)
      N += Ledger.parkedBehind(Id);
    return N;
  };
  for (const CampaignUnit &U : makeCampaignUnits(Doubled)) {
    if (Ledger.admit(U) == Admission::Execute) {
      Served.insert(U.Id);
      continue;
    }
    // A duplicate parks behind a representative admitted (and served)
    // before it.
    EXPECT_EQ(ParkedBehindServed(), ++Dups) << "duplicate " << U.Id;
  }

  EXPECT_EQ(Served.size(), Classes.size());
  EXPECT_EQ(Ledger.report().DedupedUnits, Doubled.size() - Classes.size());
  // Everything in the second copy is by definition a duplicate.
  EXPECT_GE(Ledger.report().DedupedUnits, Tests.size());
  // Completing the representatives answers every duplicate.
  for (uint64_t Id : Served)
    Ledger.complete(Id, TelechatResult());
  EXPECT_TRUE(Ledger.settled());
}

//===----------------------------------------------------------------------===//
// Snippet frontend
//===----------------------------------------------------------------------===//

TEST(KernelSnippetTest, ParsesTheDocumentedKernel) {
  const char *Src = R"(kernel spsc_cell
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
)";
  ErrorOr<LitmusTest> T = parseKernelSnippet(Src);
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Name, "spsc_cell");
  ASSERT_EQ(T->Threads.size(), 2u);
  ASSERT_EQ(T->Locations.size(), 2u);
  EXPECT_EQ(T->Threads[0].Body[1].Order, MemOrder::Release);
  EXPECT_EQ(T->Threads[1].Body[0].Order, MemOrder::Acquire);
  EXPECT_EQ(T->Final.Q, FinalCond::Quant::Exists);
  // The release/acquire handoff forbids the stale read; the parsed
  // kernel must agree with its hand-built rw.spsc sibling.
  SimResult R = runBackend(*T, SimBackendKind::Sweep, 1);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(existsWitnessed(*T, R));
}

TEST(KernelSnippetTest, AcceptsEverySpellingOfOrdersAndSugar) {
  const char *Src = R"(
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
)";
  ErrorOr<LitmusTest> T = parseKernelSnippet(Src);
  ASSERT_TRUE(T.hasValue()) << T.error();
  EXPECT_EQ(T->Name, "snippet");
  const std::vector<Stmt> &B = T->Threads[0].Body;
  EXPECT_EQ(B[0].Order, MemOrder::Release);
  EXPECT_EQ(B[1].Order, MemOrder::SeqCst);
  EXPECT_EQ(B[2].Order, MemOrder::AcqRel);
  EXPECT_EQ(B[2].Rmw, RmwKind::Xchg);
  EXPECT_EQ(B[3].Order, MemOrder::Relaxed);
  EXPECT_EQ(B[3].Rmw, RmwKind::FetchAdd);
  // Discarded RMW result still lowers to an Rmw with a fresh register.
  EXPECT_EQ(B[4].K, Stmt::Kind::Rmw);
  EXPECT_EQ(B[4].Rmw, RmwKind::FetchSub);
  EXPECT_EQ(B[4].Order, MemOrder::SeqCst); // omitted order = seq_cst
  EXPECT_TRUE(B[4].DstUsedNowhere);
  EXPECT_EQ(B[5].K, Stmt::Kind::Fence);
  // Atomic assignment sugar is seq_cst; plain locations stay NA.
  EXPECT_EQ(B[6].K, Stmt::Kind::Store);
  EXPECT_EQ(B[6].Order, MemOrder::SeqCst);
  EXPECT_EQ(B[7].K, Stmt::Kind::Load);
  EXPECT_EQ(B[7].Order, MemOrder::SeqCst);
  EXPECT_EQ(B[8].Order, MemOrder::NA);
  EXPECT_EQ(B[9].Order, MemOrder::NA);
  EXPECT_EQ(B[10].K, Stmt::Kind::LocalAssign);
  // Declared widths flow through: atomic<int8_t> is 8 bits.
  EXPECT_EQ(T->findLocation("x")->Type.Bits, 8u);
  EXPECT_EQ(T->findLocation("y")->Type.Bits, 64u);
  EXPECT_FALSE(T->findLocation("z")->Atomic);
  EXPECT_EQ(T->Final.Q, FinalCond::Quant::Forall);
}

TEST(KernelSnippetTest, RejectsMalformedKernelsWithLineNumbers) {
  struct BadCase {
    const char *Src;
    const char *Expect; ///< Substring of the error.
  };
  const BadCase Cases[] = {
      {"std::atomic<int> x = 0;\nthread P0 { x.store(1, banana); }\n"
       "exists (x=1)",
       "memory order"},
      {"std::atomic<float> x = 0;\nexists (x=1)", "element type"},
      {"std::atomic<int> x = 0;\nthread P0 { y.store(1); }\nexists (x=1)",
       "not a declared location"},
      {"std::atomic<int> x = 0;\nthread P0 { x.compare_exchange_weak(1); }\n"
       "exists (x=1)",
       "unsupported atomic method"},
      {"std::atomic<int> x = 0;\nthread P0 { int r = x + 1; }\nexists (x=1)",
       "use .load"},
      {"std::atomic<int> x = 0;\nthread P0 { x.store(1); }", "final"},
      {"std::atomic<int> x;\nexists (x=0)", "initial value"},
      {"std::atomic<int> x = 7qq;\nexists (x=0)", "line 1: malformed number"},
      {"std::atomic<int> x = 0;\nthread P0 { x.store(1zz); }\nexists (x=1)",
       "line 2: malformed number"},
  };
  for (const BadCase &C : Cases) {
    ErrorOr<LitmusTest> T = parseKernelSnippet(C.Src);
    ASSERT_FALSE(T.hasValue()) << C.Src;
    EXPECT_NE(T.error().find(C.Expect), std::string::npos)
        << "error for\n"
        << C.Src << "\nwas: " << T.error();
  }
  // Line numbers point at the offending line.
  ErrorOr<LitmusTest> T = parseKernelSnippet(
      "std::atomic<int> x = 0;\nthread P0 {\n  x.store(1, nope);\n}\n"
      "exists (x=1)");
  ASSERT_FALSE(T.hasValue());
  EXPECT_NE(T.error().find("line 3"), std::string::npos) << T.error();
}

TEST(KernelSnippetTest, SnippetAndAstBuiltSiblingsCanonicalizeTogether) {
  // The frontend is just another way to spell a LitmusTest: a snippet
  // kernel written to match an AST-built suite instance must land in
  // the same canonical class.
  LitmusTest Ast = realWorldTest("rw.spsc+pub.rel+con.acq+w32");
  const char *Src = R"(
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
)";
  ErrorOr<LitmusTest> Snip = parseKernelSnippet(Src);
  ASSERT_TRUE(Snip.hasValue()) << Snip.error();
  // Different location/thread/register names, same kernel: the
  // canonical texts must coincide.
  EXPECT_EQ(canonicalizeTest(Ast).Text, canonicalizeTest(*Snip).Text);
}
