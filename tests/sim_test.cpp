//===--- sim_test.cpp - herd-style enumerator tests -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/Semantics.h"
#include "compiler/Compiler.h"
#include "core/LitmusOpt.h"
#include "diy/Classics.h"
#include "litmus/Parser.h"
#include "models/Registry.h"
#include "sim/AbsDomain.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <map>

using namespace telechat;

namespace {

/// The engine and option variants a known answer must hold under: the
/// three engines, sharded enumeration and no rf pruning.
std::vector<SimOptions> knownAnswerVariants() {
  std::vector<SimOptions> V(5);
  V[1].Backend = SimBackendKind::Solve;
  V[2].Backend = SimBackendKind::Explore;
  V[3].Jobs = 4;
  V[4].RfValuePruning = false;
  return V;
}

} // namespace

TEST(CFrontendTest, PathsExpandBranches) {
  auto T = parseLitmusC(R"(C b
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  if (r0) { atomic_store_explicit(y, 2, memory_order_relaxed); }
}
exists (y=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  EXPECT_EQ(P.Threads[0].Paths.size(), 4u); // 2 branches -> 4 paths
}

TEST(CFrontendTest, ObservedFromPredicate) {
  LitmusTest T = classicTest("MP");
  SimProgram P = lowerLitmusC(T);
  unsigned Observed = 0;
  for (const SimThread &Th : P.Threads)
    Observed += Th.Observed.size();
  EXPECT_EQ(Observed, 2u);
}

TEST(CFrontendTest, TagsFollowOrders) {
  LitmusTest T = classicTest("MP+rel+acq");
  SimProgram P = lowerLitmusC(T);
  bool SawAcq = false, SawRel = false;
  for (const SimThread &Th : P.Threads)
    for (const SimPath &Path : Th.Paths)
      for (const SimOp &Op : Path.Ops) {
        if (Op.Tags.count("ACQ"))
          SawAcq = true;
        if (Op.WTags.count("REL"))
          SawRel = true;
      }
  EXPECT_TRUE(SawAcq);
  EXPECT_TRUE(SawRel);
}

TEST(SimulatorTest, MpOutcomeCount) {
  SimResult R = simulateC(classicTest("MP+rel+acq"), "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  // Stale read forbidden: three outcomes remain.
  EXPECT_EQ(R.Allowed.size(), 3u);
}

TEST(SimulatorTest, LbOutcomeCountUnderBothModels) {
  EXPECT_EQ(simulateC(classicTest("LB"), "rc11").Allowed.size(), 3u);
  EXPECT_EQ(simulateC(classicTest("LB"), "rc11+lb").Allowed.size(), 4u);
}

TEST(SimulatorTest, StatsArePopulated) {
  SimResult R = simulateC(classicTest("SB"), "rc11");
  ASSERT_TRUE(R.ok());
  EXPECT_GE(R.Stats.PathCombos, 1u);
  EXPECT_GT(R.Stats.RfCandidates, 0u);
  EXPECT_GT(R.Stats.ValueConsistent, 0u);
  EXPECT_GT(R.Stats.AllowedExecutions, 0u);
  EXPECT_GE(R.Stats.Seconds, 0.0);
}

TEST(SimulatorTest, BudgetExhaustionReportsTimeout) {
  SimOptions Tight;
  Tight.MaxSteps = 2;
  SimResult R = simulateC(classicTest("IRIW"), "rc11", Tight);
  EXPECT_TRUE(R.TimedOut);
}

TEST(SimulatorTest, CollectExecutionsForFig2) {
  SimOptions Opts;
  Opts.CollectExecutions = true;
  SimResult R = simulateC(paperFig1(), "rc11", Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  // The paper's Fig. 2 draws four candidate executions of which dabc is
  // forbidden; three distinct (rf, co) graphs remain (acbd and cabd are
  // the same axiomatic execution).
  EXPECT_EQ(R.Stats.AllowedExecutions, 3u);
  EXPECT_EQ(R.Executions.size(), 3u);
  for (const Execution &Ex : R.Executions) {
    EXPECT_GT(Ex.size(), 0u);
    EXPECT_FALSE(Ex.Rf.empty());
  }
}

TEST(SimulatorTest, CoherenceGroupsPermuteInLocationNameOrder) {
  // Both threads write y, then x, and y is declared first. Coherence
  // candidates permute the per-location write groups with the group of
  // the last location *name* (y) innermost, so the first candidate
  // after the identity orders y's writes the other way round. The
  // model forbids exactly the identity and the double swap, which makes
  // that candidate the first collected execution.
  auto T = parseLitmusC(R"(C yx
{ *y = 0; *x = 0; }
void P0(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 2, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
exists (x=1 /\ y=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  ErrorOr<CatModel> M = parseModelText("let cw = [W \\ IW]; co; [W \\ IW]\n"
                                       "empty (cw; po) & (po; cw) as twice\n");
  ASSERT_TRUE(M.hasValue()) << M.error();
  for (SimOptions Opts : knownAnswerVariants()) {
    Opts.CollectExecutions = true;
    SimResult R = simulate(P, *M, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;
    ASSERT_FALSE(R.Executions.empty());
    const Execution &Ex = R.Executions.front();
    auto WriteOf = [&](unsigned Thread, const std::string &Loc) {
      for (const Event &E : Ex.Events)
        if (E.isWrite() && E.Thread == Thread && E.Loc == Loc)
          return E.Id;
      ADD_FAILURE() << "no write of " << Loc << " in P" << Thread;
      return 0u;
    };
    EXPECT_TRUE(Ex.Co.test(WriteOf(0, "x"), WriteOf(1, "x")));
    EXPECT_TRUE(Ex.Co.test(WriteOf(1, "y"), WriteOf(0, "y")));
  }
}

TEST(SimulatorTest, RmwValueSemantics) {
  auto T = parseLitmusC(R"(C addtwice
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 2, memory_order_relaxed);
  int r1 = atomic_fetch_add_explicit(x, 3, memory_order_relaxed);
}
exists (P0:r0=0 /\ P0:r1=2 /\ x=5)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(finalConditionHolds(P, R));
}

TEST(SimulatorTest, FetchSubAndXchg) {
  auto T = parseLitmusC(R"(C subx
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = atomic_exchange_explicit(x, 7, memory_order_relaxed);
  int r1 = atomic_fetch_sub_explicit(x, 2, memory_order_relaxed);
}
exists (P0:r0=0 /\ P0:r1=7 /\ x=5)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(finalConditionHolds(P, R));
}

TEST(SimulatorTest, RmwAtomicityForbidsInterleaving) {
  // Two concurrent increments: final value must be 2, never 1.
  auto T = parseLitmusC(R"(C incs
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
void P1(atomic_int* x) {
  atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (x=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(finalConditionHolds(P, R)) << "lost update slipped through";
  Outcome Two;
  Two.set("[x]", Value(2));
  EXPECT_TRUE(R.Allowed.count(Two));
}

TEST(SimulatorTest, NoThinAirValues) {
  // LB where each store forwards the loaded *value*: observing 1 would
  // require the value to appear from thin air. Even rc11+lb (no
  // no-thin-air axiom) cannot show it -- concrete value resolution has
  // no stable fixpoint justifying it, exactly like herd.
  auto T = parseLitmusC(R"(C oota
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, r0, memory_order_relaxed);
}
void P1(atomic_int* y, atomic_int* x) {
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_store_explicit(x, r1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r1=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11+lb");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Allowed.size(), 1u) << outcomeSetToString(R.Allowed);
  EXPECT_FALSE(finalConditionHolds(P, R));
  // By contrast the constant-value variant (LB+datas) is fine under
  // rc11+lb: its stored values do not depend on the loads.
  LitmusTest Datas = classicTest("LB+datas");
  SimProgram P2 = lowerLitmusC(Datas);
  SimResult R2 = simulateProgram(P2, "rc11+lb");
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(finalConditionHolds(P2, R2));
}

TEST(SimulatorTest, BranchConstraintsPruneInfeasiblePaths) {
  auto T = parseLitmusC(R"(C feas
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0) {
    atomic_store_explicit(y, 1, memory_order_relaxed);
  } else {
    atomic_store_explicit(y, 2, memory_order_relaxed);
  }
}
exists (y=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  // x is never written: r0 = 0 always, so y = 2 is the only final value.
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Allowed.size(), 1u);
  EXPECT_EQ(R.Allowed.begin()->lookup("[y]"), Value(2));
}

TEST(SimulatorTest, WidthTruncationOnNarrowLocations) {
  auto T = parseLitmusC(R"(C narrow
{ uint8_t *x = 0; }
void P0(atomic_int* x) {
  atomic_store_explicit(x, 300, memory_order_relaxed);
}
exists (x=44)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(finalConditionHolds(P, R)) << "300 mod 256 = 44";

  // An RMW's written value truncates too: 255 + 1 wraps to 0.
  auto Rmw = parseLitmusC(R"(C narrowrmw
{ uint8_t *x = 255; }
void P0(atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
forall (x=0)
)");
  ASSERT_TRUE(Rmw.hasValue()) << Rmw.error();
  SimProgram RP = lowerLitmusC(*Rmw);
  for (const SimOptions &Opts : knownAnswerVariants()) {
    SimResult RR = simulateProgram(RP, "rc11", Opts);
    ASSERT_TRUE(RR.ok()) << RR.Error;
    EXPECT_TRUE(finalConditionHolds(RP, RR)) << "255 + 1 mod 256 = 0";
  }
}

TEST(SimulatorTest, ConstWriteGetsTagged) {
  auto T = parseLitmusC(R"(C cw
{ const *c = 5; }
void P0(int* c) { *c = 6; }
exists (c=6)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  // A model flagging ConstWrite sees the tag.
  SimProgram P = lowerLitmusC(*T);
  ErrorOr<CatModel> M = parseModelText(
      "flag ~empty ConstWrite as const-violation\nacyclic po as ok\n");
  ASSERT_TRUE(M.hasValue());
  SimResult R = simulate(P, *M);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Flags.count("const-violation"));

  // A store through a pointer loaded from memory finds its location
  // only during value resolution; the tag must follow it there.
  auto A = parseAsmLitmus(R"(AArch64 cwdyn
{ const c = 5; pc = &c; P0:x0 = &pc; }
P0 {
  ldr x1, [x0]
  mov w2, #6
  str w2, [x1]
  ret
}
exists (c=6)
)");
  ASSERT_TRUE(A.hasValue()) << A.error();
  ErrorOr<SimProgram> AP = lowerAsmTest(*A);
  ASSERT_TRUE(AP.hasValue()) << AP.error();
  for (const SimOptions &Opts : knownAnswerVariants()) {
    SimResult AR = simulateProgram(*AP, "aarch64+const", Opts);
    ASSERT_TRUE(AR.ok()) << AR.Error;
    EXPECT_TRUE(AR.Flags.count("const-violation"));
  }
}

TEST(SimulatorTest, FinalConditionQuantifiers) {
  auto T = parseLitmusC(R"(C q
{ *x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
forall (x=1)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult R = simulateProgram(P, "rc11");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(finalConditionHolds(P, R));
  P.Final.Q = FinalCond::Quant::NotExists;
  EXPECT_FALSE(finalConditionHolds(P, R));
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  // The paper's Table II: Télétchat observes the same outcomes every
  // time.
  for (const char *Name : {"MP", "SB", "IRIW"}) {
    SimResult A = simulateC(classicTest(Name), "rc11");
    SimResult B = simulateC(classicTest(Name), "rc11");
    EXPECT_EQ(A.Allowed, B.Allowed) << Name;
  }
}

// ---------------------------------------------------------------------------
// Abstract-domain regressions (sim/AbsDomain.h): sweep-parity holes the
// symbolic-transform pruning must not reopen. Each test pins the rule
// by comparing outcome sets with pruning on and off.

namespace {

/// Outcome sets with pruning on and off must agree; returns the
/// pruning-on result for further assertions.
SimResult expectPruningParity(const SimProgram &P, const std::string &Model,
                              const std::string &What) {
  SimResult On = simulateProgram(P, Model);
  SimOptions NoPrune;
  NoPrune.RfValuePruning = false;
  SimResult Off = simulateProgram(P, Model, NoPrune);
  EXPECT_TRUE(On.ok()) << What << ": " << On.Error;
  EXPECT_EQ(On.Allowed, Off.Allowed) << What << " (on vs off)";
  EXPECT_EQ(On.Flags, Off.Flags) << What;
  EXPECT_EQ(On.Stats.ValueConsistent, Off.Stats.ValueConsistent) << What;
  EXPECT_EQ(On.Stats.CoCandidates, Off.Stats.CoCandidates) << What;
  EXPECT_EQ(On.Stats.AllowedExecutions, Off.Stats.AllowedExecutions)
      << What;
  return On;
}

} // namespace

TEST(AbsDomainRegressionTest, UninitialisedRegisterInArithmetic) {
  // Branches on a register that is never assigned, mixed into
  // arithmetic with a loaded value (the C validator refuses undefined
  // registers, but assembly lowering produces them, so build the
  // SimProgram directly). The concrete sweep zero-initialises
  // unassigned registers (herd's rule); the abstract pass must apply
  // the *same* default on its Reg fast path, inside compound
  // expressions, and when capturing constraints -- a mismatch would
  // prune assignments the fixpoint accepts (or break combo-infeasible
  // collapsing).
  SimProgram P;
  P.Name = "uninit-arith";
  SimLoc X;
  X.Name = "x";
  P.Locations.push_back(X);

  SimThread T0;
  T0.Name = "P0";
  SimPath Stores;
  for (uint64_t V : {uint64_t(1), uint64_t(2)}) {
    SimOp St;
    St.K = SimOp::Kind::Store;
    St.Addr = SimAddr::staticSym("x");
    St.Val = Expr::imm(Value(V));
    Stores.Ops.push_back(St);
  }
  T0.Paths.push_back(Stores);

  SimThread T1;
  T1.Name = "P1";
  T1.Observed.emplace_back("r0", "P1:r0");
  SimOp Ld;
  Ld.K = SimOp::Kind::Load;
  Ld.Dst = "r0";
  Ld.Addr = SimAddr::staticSym("x");
  SimOp Asn; // r2 = r0 + runinit, with runinit never assigned
  Asn.K = SimOp::Kind::Assign;
  Asn.Dst = "r2";
  Asn.Val = Expr::binary(Expr::Kind::Add, Expr::reg("r0"),
                         Expr::reg("runinit"));
  SimOp C; // (r2 - 1) != 0
  C.K = SimOp::Kind::Constraint;
  C.Val = Expr::binary(Expr::Kind::Sub, Expr::reg("r2"),
                       Expr::imm(Value(1)));
  C.ConstraintNonZero = true;
  SimPath P1;
  P1.Ops = {Ld, Asn, C};
  T1.Paths.push_back(P1);

  P.Threads = {T0, T1};
  P.Final.Q = FinalCond::Quant::Exists;

  SimResult On = expectPruningParity(P, "sc", "uninit-arith");
  // runinit reads as zero, so the constraint is r0 != 1: exactly the
  // value-1 candidate write is pruned from r0's rf list -- the capture
  // must have happened despite the unassigned register.
  EXPECT_GT(On.Stats.RfSourcesPruned, 0u);
  for (const Outcome &O : On.Allowed)
    EXPECT_NE(O.lookup("P1:r0"), Value(1));
}

TEST(AbsDomainRegressionTest, UninitialisedRegisterAloneInfeasible) {
  // A path constrained on the bare unassigned register mixed into
  // arithmetic yielding a constant: the abstract pass must fold it with
  // the zero default (constant-only capture), collapse the combo as
  // infeasible, and agree with the fixpoint's rejection.
  SimProgram P;
  P.Name = "uninit-bare";
  SimLoc Y;
  Y.Name = "y";
  P.Locations.push_back(Y);
  P.ObservedLocs.push_back("y");

  SimThread T0;
  T0.Name = "P0";
  // Taken path: demands rghost + 1 == 0 (never true), stores y = 1.
  {
    SimOp C;
    C.K = SimOp::Kind::Constraint;
    C.Val = Expr::binary(Expr::Kind::Add, Expr::reg("rghost"),
                         Expr::imm(Value(1)));
    C.ConstraintNonZero = false;
    SimOp St;
    St.K = SimOp::Kind::Store;
    St.Addr = SimAddr::staticSym("y");
    St.Val = Expr::imm(Value(1));
    SimPath Taken;
    Taken.Ops = {C, St};
    T0.Paths.push_back(Taken);
  }
  // Fallthrough path: demands rghost + 1 != 0 (always), stores y = 2.
  {
    SimOp C;
    C.K = SimOp::Kind::Constraint;
    C.Val = Expr::binary(Expr::Kind::Add, Expr::reg("rghost"),
                         Expr::imm(Value(1)));
    C.ConstraintNonZero = true;
    SimOp St;
    St.K = SimOp::Kind::Store;
    St.Addr = SimAddr::staticSym("y");
    St.Val = Expr::imm(Value(2));
    SimPath Fall;
    Fall.Ops = {C, St};
    T0.Paths.push_back(Fall);
  }
  P.Threads.push_back(T0);
  P.Final.Q = FinalCond::Quant::Exists;

  SimResult On = expectPruningParity(P, "sc", "uninit-bare");
  ASSERT_EQ(On.Allowed.size(), 1u);
  EXPECT_EQ(On.Allowed.begin()->lookup("[y]"), Value(2));
}

namespace {

/// A one-thread LL/SC program: exclusive load of x, exclusive store of
/// 1 to x with status register "s0", then a path constraint on s0.
/// \p StatusSuccess is the ISA's success value (0 on Arm/RISC-V, 1 on
/// MIPS); \p ConstrainSuccess picks which status the path demands.
SimProgram scStatusProgram(uint64_t StatusSuccess, bool ConstrainSuccess) {
  SimProgram P;
  P.Name = "sc-status";
  SimLoc X;
  X.Name = "x";
  P.Locations.push_back(X);
  P.ObservedLocs.push_back("x");

  SimOp Ld;
  Ld.K = SimOp::Kind::Load;
  Ld.Dst = "r0";
  Ld.Addr = SimAddr::staticSym("x");
  Ld.Exclusive = true;

  SimOp St;
  St.K = SimOp::Kind::Store;
  St.Dst = "s0"; // status register
  St.Addr = SimAddr::staticSym("x");
  St.Val = Expr::imm(Value(1));
  St.Exclusive = true;
  St.StatusSuccess = StatusSuccess;

  SimOp C;
  C.K = SimOp::Kind::Constraint;
  C.Val = Expr::reg("s0");
  // s0 nonzero <=> (StatusSuccess != 0) == success. The path demands
  // success iff ConstrainSuccess.
  C.ConstraintNonZero = ConstrainSuccess == (StatusSuccess != 0);

  SimThread T0;
  T0.Name = "P0";
  T0.Observed.emplace_back("r0", "P0:r0");
  SimPath Path;
  Path.Ops = {Ld, St, C};
  T0.Paths.push_back(Path);
  P.Threads.push_back(T0);

  Predicate True;
  True.K = Predicate::Kind::True;
  P.Final.P = True;
  P.Final.Q = FinalCond::Quant::Exists;
  return P;
}

} // namespace

TEST(AbsDomainRegressionTest, StoreConditionalStatusConstrained) {
  // The enumerator models store-conditionals herd-style: exclusive
  // pairs always succeed, so the status register is the ISA's success
  // value on every feasible path. The abstract pass hardcodes the same
  // constant -- sound exactly because the concrete sweep (the oracle
  // pruning must mirror) does too. Pin both directions, for both
  // success-value conventions:
  for (uint64_t Success : {uint64_t(0), uint64_t(1)}) {
    // A path demanding success is feasible; identical outcomes in all
    // three pruning modes.
    SimProgram Ok = scStatusProgram(Success, /*ConstrainSuccess=*/true);
    SimResult R = expectPruningParity(Ok, "sc", "sc-status-success");
    EXPECT_EQ(R.Allowed.size(), 1u);

    // A path demanding a *failed* store-conditional can never resolve:
    // pruning must collapse it as infeasible, the fixpoint must reject
    // it, and both must report the same (empty) outcome set.
    SimProgram Fail = scStatusProgram(Success, /*ConstrainSuccess=*/false);
    SimResult F = expectPruningParity(Fail, "sc", "sc-status-fail");
    EXPECT_TRUE(F.Allowed.empty());
  }
}

namespace {

/// Two threads around a 128-bit location: P0 stores the pair (5, 7);
/// P1 128-loads into half registers (rl, rh) and branches on arithmetic
/// over one half. The halves are bit-slice transforms of one read, so
/// the transform domain can prune the init write.
SimProgram pairHalvesProgram() {
  SimProgram P;
  P.Name = "pair-halves";
  SimLoc X;
  X.Name = "x";
  X.Type = IntType{128, false};
  P.Locations.push_back(X);

  SimOp St;
  St.K = SimOp::Kind::Store;
  St.Addr = SimAddr::staticSym("x");
  St.Is128 = true;
  St.Val = Expr::imm(Value(5));
  St.ValHi = Expr::imm(Value(7));
  SimThread T0;
  T0.Name = "P0";
  SimPath P0;
  P0.Ops = {St};
  T0.Paths.push_back(P0);

  SimOp Ld;
  Ld.K = SimOp::Kind::Load;
  Ld.Dst = "rl";
  Ld.Dst2 = "rh";
  Ld.Addr = SimAddr::staticSym("x");
  Ld.Is128 = true;
  SimOp C;
  C.K = SimOp::Kind::Constraint;
  // (rh - 7) == 0: only the (5, 7) write satisfies this.
  C.Val = Expr::binary(Expr::Kind::Sub, Expr::reg("rh"),
                       Expr::imm(Value(7)));
  C.ConstraintNonZero = false;
  SimThread T1;
  T1.Name = "P1";
  T1.Observed.emplace_back("rl", "P1:rl");
  T1.Observed.emplace_back("rh", "P1:rh");
  SimPath P1;
  P1.Ops = {Ld, C};
  T1.Paths.push_back(P1);

  P.Threads = {T0, T1};
  Predicate True;
  True.K = Predicate::Kind::True;
  P.Final.P = True;
  P.Final.Q = FinalCond::Quant::Exists;
  return P;
}

} // namespace

TEST(AbsDomainRegressionTest, PairLoadHalvesAreBitSliceTransforms) {
  SimProgram P = pairHalvesProgram();
  SimResult On = expectPruningParity(P, "sc", "pair-halves");
  // Only the (5, 7) pair write resolves the constraint: one outcome.
  ASSERT_EQ(On.Allowed.size(), 1u);
  EXPECT_EQ(On.Allowed.begin()->lookup("P1:rl"), Value(5));
  EXPECT_EQ(On.Allowed.begin()->lookup("P1:rh"), Value(7));
  // The init write (0, 0) violates rh == 7 and must be pruned from the
  // candidate list -- possible only because the halves are modelled as
  // Lo64/Hi64 transforms of the read.
  EXPECT_GT(On.Stats.RfSourcesPruned, 0u);
}

TEST(AbsDomainRegressionTest, PairLoadZeroRegisterFirstOperand) {
  // `ldxp xzr, xN` lowers to a 128-bit load with Dst == "" -- and the
  // concrete sweep then assigns NEITHER half register (both keep their
  // previous values). The abstract pass must mirror that gate: tracking
  // the second half as Hi64(read) anyway would prune candidates the
  // fixpoint accepts. Here rh is never written, so a constraint rh == 0
  // holds concretely for every rf choice; a mis-tracked Hi64 would
  // wrongly drop the (5, 7) pair write.
  SimProgram P = pairHalvesProgram();
  SimOp &Ld = P.Threads[1].Paths[0].Ops[0];
  ASSERT_EQ(Ld.K, SimOp::Kind::Load);
  Ld.Dst = ""; // zero-register first operand
  SimOp &C = P.Threads[1].Paths[0].Ops[1];
  ASSERT_EQ(C.K, SimOp::Kind::Constraint);
  C.Val = Expr::reg("rh");
  C.ConstraintNonZero = false; // rh == 0: true, rh is never assigned
  SimResult On = expectPruningParity(P, "sc", "pair-xzr");
  // Nothing is prunable: the halves are untracked because they are
  // unwritten, and every rf choice is value-consistent.
  EXPECT_EQ(On.Stats.RfSourcesPruned, 0u);
  EXPECT_GT(On.Stats.ValueConsistent, 1u);
}

TEST(AbsDomainRegressionTest, FoldInfeasibleComboCollapses) {
  // A path whose infeasibility only the algebraic fold can prove
  // statically (r2 = r1 ^ r1 folds to 0, so `if (r2)` is a constant
  // contradiction) while the same path also carries a check on a plain
  // copy (`if (r0 - 1)`) that prunes pair by pair in the other combos.
  auto T = parseLitmusC(R"(C foldinf
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 - 1) { atomic_store_explicit(z, 1, memory_order_relaxed); }
  else { atomic_store_explicit(z, 2, memory_order_relaxed); }
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  int r2 = r1 ^ r1;
  if (r2) { atomic_store_explicit(y, 1, memory_order_relaxed); }
}
exists (P1:r0=2)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  SimProgram P = lowerLitmusC(*T);
  SimResult On = expectPruningParity(P, "rc11", "fold-infeasible");
  SimOptions NoPrune;
  NoPrune.RfValuePruning = false;
  SimResult Off = simulateProgram(P, "rc11", NoPrune);
  // The fold-condemned combos collapse instead of enumerating (a
  // domain without the fold would filter them pair by pair and draw 9
  // candidates); the r0 checks prune 3 pairs in the surviving combos,
  // and a collapsed combo counts no pruned pairs.
  EXPECT_EQ(Off.Stats.RfCandidates, 18u);
  EXPECT_EQ(On.Stats.RfCandidates, 3u);
  EXPECT_EQ(On.Stats.RfSourcesPruned, 3u);
}

// A read that takes its value from a write of that value plus a nonzero
// constant (its own fetch_add, or the store of an LL/SC increment) has no
// stable value: resolveValues rejects the assignment without sweeping.
// Rejected or swept to exhaustion, the assignment counts the same, so
// each case pins the counts the sweeps gave and holds the pruning-
// invariant rows to the run without pruning.

namespace {

/// P0 and P1 each run one RMW on x, declared as \p Ty, into r0.
SimProgram rmwPair(const std::string &Ty, const std::string &Op0,
                   const std::string &Op1) {
  auto Thread = [&](const char *Name, const std::string &Op) {
    return std::string("void ") + Name + "(" + Ty + "* x) {\n  int r0 = " +
           Op + ";\n}\n";
  };
  auto T = parseLitmusC("C rmw-pair\n{ " + Ty + " x = 0; }\n" +
                        Thread("P0", Op0) + Thread("P1", Op1) +
                        "exists (P0:r0=0 /\\ P1:r0=0)\n");
  EXPECT_TRUE(T.hasValue()) << T.error();
  return lowerLitmusC(*T);
}

const char *const FetchAdd1 =
    "atomic_fetch_add_explicit(x, 1, memory_order_relaxed)";

void expectCounts(const SimResult &R, uint64_t Rf, uint64_t Consistent,
                  uint64_t Co, uint64_t AllowedExecs,
                  const std::string &What) {
  EXPECT_EQ(R.Stats.RfCandidates, Rf) << What;
  EXPECT_EQ(R.Stats.ValueConsistent, Consistent) << What;
  EXPECT_EQ(R.Stats.CoCandidates, Co) << What;
  EXPECT_EQ(R.Stats.AllowedExecutions, AllowedExecs) << What;
  EXPECT_EQ(R.Stats.RfPruned, 0u) << What;
}

} // namespace

TEST(AbsDomainRegressionTest, SelfIncrementHasNoFixedPoint) {
  SimVal One{SimVal::Kind::Int, Value(1), Symbol()};
  SimVal K256{SimVal::Kind::Int, Value(256), Symbol()};
  SimVal Zero{};
  AbsXform Arg = AbsXform::arg();
  auto Bin = [](AbsXform::Kind K, AbsXform L, AbsXform R) {
    return AbsXform::binary(K, std::move(L), std::move(R));
  };
  using K = AbsXform::Kind;
  IntType U8{8, false}, I32{32, true}, I64{64, true}, I128{128, true};
  // v + c, c + v and v - c, bare or under truncations.
  EXPECT_TRUE(Bin(K::RmwAdd, Arg, AbsXform::constant(One))
                  .hasNoFixedPoint(nullptr));
  EXPECT_TRUE(Bin(K::Add, AbsXform::constant(One), Arg)
                  .hasNoFixedPoint(&I32));
  EXPECT_TRUE(AbsXform::trunc(I32, Bin(K::Sub, Arg, AbsXform::constant(One)))
                  .hasNoFixedPoint(&I32));
  EXPECT_TRUE(
      AbsXform::trunc(I128, Bin(K::RmwSub, Arg, AbsXform::constant(One)))
          .hasNoFixedPoint(&I128));
  // A constant the widths reduce to zero is a stable increment: by the
  // store's truncation, by the read's, or by a 64-bit one on a 128-bit
  // constant.
  AbsXform Add256 = Bin(K::RmwAdd, Arg, AbsXform::constant(K256));
  EXPECT_TRUE(Add256.hasNoFixedPoint(nullptr));
  EXPECT_FALSE(AbsXform::trunc(U8, Add256).hasNoFixedPoint(nullptr));
  EXPECT_FALSE(Add256.hasNoFixedPoint(&U8));
  EXPECT_TRUE(AbsXform::trunc(I32, Add256).hasNoFixedPoint(&I32));
  SimVal Two64{SimVal::Kind::Int, Value(0, 1), Symbol()};
  AbsXform AddTwo64 = Bin(K::Add, Arg, AbsXform::constant(Two64));
  EXPECT_FALSE(AbsXform::trunc(I64, AddTwo64).hasNoFixedPoint(&I128));
  EXPECT_TRUE(AbsXform::trunc(I128, AddTwo64).hasNoFixedPoint(&I128));
  // Anything else has a fixed point, or may have one.
  EXPECT_FALSE(Bin(K::RmwSub, Arg, AbsXform::constant(Zero))
                   .hasNoFixedPoint(nullptr));
  EXPECT_FALSE(Bin(K::Sub, AbsXform::constant(One), Arg)
                   .hasNoFixedPoint(nullptr));
  EXPECT_FALSE(Bin(K::Xor, Arg, AbsXform::constant(One))
                   .hasNoFixedPoint(nullptr));
  EXPECT_FALSE(Bin(K::Add, Arg, Arg).hasNoFixedPoint(nullptr));
  EXPECT_FALSE(
      AbsXform::unary(K::ToInt, Bin(K::Add, Arg, AbsXform::constant(One)))
          .hasNoFixedPoint(nullptr));
  SimVal Addr{SimVal::Kind::Addr, Value(0x1000), internSymbol("x")};
  EXPECT_FALSE(Bin(K::Add, Arg, AbsXform::constant(Addr))
                   .hasNoFixedPoint(nullptr));
}

TEST(AbsDomainRegressionTest, FetchAddSelfReadsAreRejected) {
  SimProgram P = rmwPair("atomic_int", FetchAdd1, FetchAdd1);
  SimResult On = expectPruningParity(P, "rc11", "fetch_add pair");
  expectCounts(On, 9, 3, 6, 2, "fetch_add pair");
}

TEST(AbsDomainRegressionTest, SelfIncrementRespectsWidths) {
  // 256 truncates to 0 in a byte: P0's read of its own write is stable.
  // (A bare "*x = 0" would declare x 32-bit.)
  SimProgram P = rmwPair(
      "atomic_uchar", "atomic_fetch_add_explicit(x, 256, memory_order_relaxed)",
      FetchAdd1);
  SimResult On = expectPruningParity(P, "rc11", "uchar +256");
  expectCounts(On, 9, 5, 10, 2, "uchar +256");
  // 128-bit values wrap at 128 bits, not 64.
  P = rmwPair("atomic_int128", FetchAdd1, FetchAdd1);
  On = expectPruningParity(P, "rc11", "int128 fetch_add pair");
  expectCounts(On, 9, 3, 6, 2, "int128 fetch_add pair");
}

TEST(AbsDomainRegressionTest, FetchSubZeroReadsItsOwnWrite) {
  SimProgram P = rmwPair(
      "atomic_int", "atomic_fetch_sub_explicit(x, 0, memory_order_relaxed)",
      FetchAdd1);
  SimResult On = expectPruningParity(P, "rc11", "fetch_sub 0");
  expectCounts(On, 9, 5, 10, 2, "fetch_sub 0");
}

TEST(AbsDomainRegressionTest, LlScIncrementSelfReadsAreRejected) {
  // The fetch_add pair compiled for AArch64 without LSE: each thread's
  // exclusive load feeds an add and the exclusive store of its result.
  auto T = parseLitmusC(std::string("C llsc\n{ *x = 0; }\n") +
                        "void P0(atomic_int* x) {\n  int r0 = " + FetchAdd1 +
                        ";\n}\nvoid P1(atomic_int* x) {\n  int r0 = " +
                        FetchAdd1 + ";\n}\nexists (P0:r0=0 /\\ P1:r0=0)\n");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ErrorOr<CompileOutput> Out = compileLitmus(
      *T, Profile::current(CompilerKind::Llvm, OptLevel::O2, Arch::AArch64));
  ASSERT_TRUE(Out.hasValue()) << Out.error();
  ErrorOr<SimProgram> P = lowerAsmTest(optimiseAsmLitmus(Out->Asm));
  ASSERT_TRUE(P.hasValue()) << P.error();
  SimResult On = expectPruningParity(*P, "aarch64", "LL/SC pair");
  expectCounts(On, 9, 3, 6, 2, "LL/SC pair");
}

namespace {

/// Every SimStats row by its results-JSON key.
std::map<std::string, uint64_t> statRows(const SimStats &S) {
  std::map<std::string, uint64_t> Rows;
#define STAT_ROW(Member, Key) Rows[Key] = S.Member;
  TELECHAT_SIM_STATS(STAT_ROW, STAT_ROW)
#undef STAT_ROW
  return Rows;
}

} // namespace

TEST(AbsDomainRegressionTest, StaticAddressesFollowCopiesNotLoads) {
  // P0's first store reaches x+8 through adrp, a register copy and an
  // immediate add: its address is known before any rf choice, so the
  // access is static. Its second store goes through the same register
  // after a load overwrote it with &y, so that access is dynamic. P1
  // branches on what it reads from x+8, so the rf filter prunes on a
  // read whose address is itself a copy plus an offset.
  auto T = parseAsmLitmus(R"(AArch64 addrfold
{
  x = 0;
  x+8 = 0;
  y = 0;
  uint64_t p = &y;
}
P0 {
  adrp x1, x
  mov x2, x1
  add x2, x2, #8
  mov w3, #1
  str w3, [x2]
  adrp x4, p
  ldr x2, [x4]
  str w3, [x2]
  ret
}
P1 {
  adrp x5, x
  ldr w6, [x5, #8]
  adrp x7, y
  ldr w8, [x7]
  cbnz w6, .Lone
  mov w9, #2
.Lone:
  ret
}
exists (P1:X6=1 /\ P1:X8=0 /\ P1:X9=0)
)");
  ASSERT_TRUE(T.hasValue()) << T.error();
  ErrorOr<SimProgram> P = lowerAsmTest(*T);
  ASSERT_TRUE(P.hasValue()) << P.error();
  SimResult On = simulateProgram(*P, "aarch64");
  ASSERT_TRUE(On.ok()) << On.Error;
  // Every row is pinned. P1's reads take 3 x 2 sources per path (the
  // dynamic store is a candidate of both), P0's read of p takes 2, and
  // each path's branch prunes one known write of x+8: 2 x (2 x 2 x 2)
  // assignments instead of 2 x 12. Had the second store stayed static
  // at x+8, y would have no write but its init and the counts would
  // differ.
  std::map<std::string, uint64_t> Want = {
      {"path_combos", 2},         {"rf_candidates", 16},
      {"value_consistent", 4},    {"co_candidates", 4},
      {"allowed_executions", 4},  {"rf_sources_pruned", 2},
      {"rf_pruned", 0},           {"cat_evals_avoided", 0},
      {"backend", 0},             {"solve_decisions", 0},
      {"solve_propagations", 0},  {"solve_conflicts", 0},
      {"solve_clauses", 0},       {"explore_iterations", 0},
      {"explore_schedules", 0},   {"explore_outcomes_found", 0}};
  EXPECT_EQ(statRows(On.Stats), Want);
  // The dynamic store writes y: P1 can read 1 there.
  ASSERT_EQ(On.Allowed.size(), 4u);
  bool ReadsY1 = false;
  for (const Outcome &O : On.Allowed)
    ReadsY1 = ReadsY1 || O.lookup("P1:X8") == Value(1);
  EXPECT_TRUE(ReadsY1);
  EXPECT_TRUE(finalConditionHolds(*P, On));
  SimOptions NoPrune;
  NoPrune.RfValuePruning = false;
  SimResult Off = simulateProgram(*P, "aarch64", NoPrune);
  EXPECT_EQ(Off.Stats.RfCandidates, 24u);
  EXPECT_EQ(On.Allowed, Off.Allowed);
  SimOptions Solve;
  Solve.Backend = SimBackendKind::Solve;
  SimResult Solved = simulateProgram(*P, "aarch64", Solve);
  EXPECT_EQ(On.Allowed, Solved.Allowed);
  EXPECT_EQ(Solved.Stats.SolveDecisions, 28u);
}
