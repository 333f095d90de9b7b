//===--- AbsDomain.cpp - Abstract value domain for rf pruning -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "sim/AbsDomain.h"

#include <algorithm>

using namespace telechat;

namespace {

/// Transforms stay cheap to copy and to apply: a tree growing past this
/// many nodes degrades to Top instead (pruning is best-effort; Top is
/// always sound).
constexpr unsigned kMaxXformNodes = 24;

/// The one zero-default rule for registers the abstract pass has never
/// seen a write to. Must match evalSimExpr's concrete rule (and through
/// it the resolution sweep): unassigned registers read as integer zero.
/// Every abstract lookup -- the Reg fast path, compound-expression
/// leaves, constraint captures -- goes through here, so the three sites
/// cannot disagree about uninitialised registers.
AbsVal absRegLookup(const std::map<std::string, AbsVal> &Regs,
                    const std::string &Name) {
  auto It = Regs.find(Name);
  if (It == Regs.end())
    return AbsVal::known(SimVal{}); // herd zero-initialises registers
  return It->second;
}

AbsXform::Kind xformKindFor(Expr::Kind K) {
  switch (K) {
  case Expr::Kind::Add:
    return AbsXform::Kind::Add;
  case Expr::Kind::Sub:
    return AbsXform::Kind::Sub;
  case Expr::Kind::Xor:
    return AbsXform::Kind::Xor;
  case Expr::Kind::And:
    return AbsXform::Kind::And;
  case Expr::Kind::Imm:
  case Expr::Kind::Reg:
    break;
  }
  return AbsXform::Kind::Add; // unreachable: callers pass binary kinds
}

/// Lifts a non-Top abstract value to a transform-tree node.
AbsXform toNode(const AbsVal &A) {
  if (A.K == AbsVal::Kind::Known)
    return AbsXform::constant(A.V);
  return A.F;
}

} // namespace

SimVal telechat::combineSimVals(Expr::Kind K, const SimVal &L,
                                const SimVal &R) {
  Value Out;
  if (K == Expr::Kind::Add)
    Out = L.V.add(R.V);
  else if (K == Expr::Kind::Sub)
    Out = L.V.sub(R.V);
  else if (K == Expr::Kind::Xor)
    Out = L.V.bitXor(R.V);
  else
    Out = L.V.bitAnd(R.V);
  // Address arithmetic that adds zero preserves the symbol (ADD
  // Xd, Xn, #:lo12:sym patterns resolve earlier, but be permissive).
  if (K == Expr::Kind::Add && L.K == SimVal::Kind::Addr && R.V.isZero())
    return L;
  return SimVal{SimVal::Kind::Int, Out, Symbol()};
}

SimVal telechat::evalSimExpr(const Expr &E,
                             const std::map<std::string, SimVal> &Regs) {
  switch (E.K) {
  case Expr::Kind::Imm:
    return SimVal{SimVal::Kind::Int, E.Imm, Symbol()};
  case Expr::Kind::Reg: {
    auto It = Regs.find(E.RegName);
    if (It == Regs.end())
      return SimVal{}; // herd zero-initialises registers
    return It->second;
  }
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    return combineSimVals(E.K, evalSimExpr(E.Ops[0], Regs),
                          evalSimExpr(E.Ops[1], Regs));
  }
  return SimVal{};
}

SimVal telechat::truncAtLoc(const SimLoc *L, SimVal V) {
  if (L && V.K == SimVal::Kind::Int)
    V.V = V.V.truncated(L->Type);
  return V;
}

unsigned AbsXform::size() const {
  unsigned N = 1;
  for (const AbsXform &Sub : Ops)
    N += Sub.size();
  return N;
}

SimVal AbsXform::apply(const SimVal &Arg) const {
  switch (K) {
  case Kind::Arg:
    return Arg;
  case Kind::Const:
    return C;
  case Kind::Add:
    return combineSimVals(Expr::Kind::Add, Ops[0].apply(Arg),
                          Ops[1].apply(Arg));
  case Kind::Sub:
    return combineSimVals(Expr::Kind::Sub, Ops[0].apply(Arg),
                          Ops[1].apply(Arg));
  case Kind::Xor:
    return combineSimVals(Expr::Kind::Xor, Ops[0].apply(Arg),
                          Ops[1].apply(Arg));
  case Kind::And:
    return combineSimVals(Expr::Kind::And, Ops[0].apply(Arg),
                          Ops[1].apply(Arg));
  case Kind::RmwAdd: {
    // The RMW combine forces Kind::Int and never preserves address
    // symbols (sweep(): New.K = Int; New.V = Old.V.add(Operand.V)).
    SimVal L = Ops[0].apply(Arg), R = Ops[1].apply(Arg);
    return SimVal{SimVal::Kind::Int, L.V.add(R.V), Symbol()};
  }
  case Kind::RmwSub: {
    SimVal L = Ops[0].apply(Arg), R = Ops[1].apply(Arg);
    return SimVal{SimVal::Kind::Int, L.V.sub(R.V), Symbol()};
  }
  case Kind::ToInt: {
    SimVal V = Ops[0].apply(Arg);
    return SimVal{SimVal::Kind::Int, V.V, Symbol()};
  }
  case Kind::Trunc: {
    SimVal V = Ops[0].apply(Arg);
    if (V.K == SimVal::Kind::Int)
      V.V = V.V.truncated(Ty);
    return V;
  }
  case Kind::Lo64: {
    SimVal V = Ops[0].apply(Arg);
    return SimVal{SimVal::Kind::Int, Value(V.V.Lo), Symbol()};
  }
  case Kind::Hi64: {
    SimVal V = Ops[0].apply(Arg);
    return SimVal{SimVal::Kind::Int, Value(V.V.Hi), Symbol()};
  }
  case Kind::Pack128: {
    SimVal Lo = Ops[0].apply(Arg), Hi = Ops[1].apply(Arg);
    return SimVal{SimVal::Kind::Int, Value(Lo.V.Lo, Hi.V.Lo), Symbol()};
  }
  }
  return SimVal{};
}

bool AbsXform::hasNoFixedPoint(const IntType *ReadTy) const {
  const AbsXform *X = this;
  while (X->K == Kind::Trunc)
    X = &X->Ops[0];
  bool Adds = X->K == Kind::Add || X->K == Kind::RmwAdd;
  if (!Adds && X->K != Kind::Sub && X->K != Kind::RmwSub)
    return false;
  const AbsXform &L = X->Ops[0], &R = X->Ops[1];
  const AbsXform *C = L.K == Kind::Arg             ? &R
                      : Adds && R.K == Kind::Arg ? &L
                                                 : nullptr;
  if (!C || C->K != Kind::Const || C->C.K != SimVal::Kind::Int)
    return false;
  // The result is an integer, so a fixed point needs v == trunc(v + c)
  // (or v - c) as numbers. Each truncation keeps the value modulo a power
  // of two, and so does the 128-bit wrap, so a solution needs c to vanish
  // modulo the smallest of them: truncated there, c is 0.
  auto Vanishes = [&](IntType Ty) { return C->C.V.truncated(Ty).isZero(); };
  if (C->C.V.isZero() || (ReadTy && Vanishes(*ReadTy)))
    return false;
  for (X = this; X->K == Kind::Trunc; X = &X->Ops[0])
    if (Vanishes(X->Ty))
      return false;
  return true;
}

AbsVal AbsInterpreter::combine(Expr::Kind K, AbsVal L, AbsVal R) const {
  if (L.K == AbsVal::Kind::Top || R.K == AbsVal::Kind::Top)
    return AbsVal();
  if (L.K == AbsVal::Kind::Known && R.K == AbsVal::Kind::Known)
    return AbsVal::known(combineSimVals(K, L.V, R.V));
  // At least one operand is a transform of a read: expressible as long
  // as a single read feeds the whole tree.
  if (L.K == AbsVal::Kind::Xform && R.K == AbsVal::Kind::Xform &&
      L.ReadEv != R.ReadEv)
    return AbsVal(); // two sources: outside the single-source domain
  // Algebraic fold: t ^ t and t - t are zero for *every* value of the
  // read (combineSimVals yields Int(V^V) / Int(V-V) whatever the kind),
  // so identical trees collapse to a known constant. This is the herd-
  // style value-propagation shortcut that turns diy's dependency idiom
  // `v + (r ^ r)` back into a filterable known store value.
  if ((K == Expr::Kind::Xor || K == Expr::Kind::Sub) &&
      L.K == AbsVal::Kind::Xform && R.K == AbsVal::Kind::Xform &&
      L.F == R.F)
    return AbsVal::known(SimVal{SimVal::Kind::Int, Value(), Symbol()});
  unsigned Ev = L.K == AbsVal::Kind::Xform ? L.ReadEv : R.ReadEv;
  AbsXform F = AbsXform::binary(xformKindFor(K), toNode(L), toNode(R));
  if (F.size() > kMaxXformNodes)
    return AbsVal();
  return AbsVal::xform(Ev, std::move(F));
}

AbsVal AbsInterpreter::absEval(const Expr &E,
                               const std::map<std::string, AbsVal> &Regs)
    const {
  switch (E.K) {
  case Expr::Kind::Imm:
    return AbsVal::known(SimVal{SimVal::Kind::Int, E.Imm, Symbol()});
  case Expr::Kind::Reg:
    return absRegLookup(Regs, E.RegName);
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    return combine(E.K, absEval(E.Ops[0], Regs), absEval(E.Ops[1], Regs));
  }
  return AbsVal();
}

void AbsInterpreter::captureConstraint(
    const SimOp &Op, const std::map<std::string, AbsVal> &Regs) {
  std::vector<std::string> Used;
  Op.Val.collectRegs(Used);
  std::sort(Used.begin(), Used.end());
  Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
  PruneCheck PC;
  PC.E = &Op.Val;
  PC.ExpectNonZero = Op.ConstraintNonZero;
  bool AllKnown = true;
  for (const std::string &U : Used) {
    AbsVal A = absRegLookup(Regs, U);
    if (A.K == AbsVal::Kind::Top)
      return; // Untracked input: the fixpoint must decide.
    if (A.K != AbsVal::Kind::Known)
      AllKnown = false;
    PC.Regs.emplace_back(U, std::move(A));
  }
  if (AllKnown) {
    std::map<std::string, SimVal> Concrete;
    for (const auto &[Reg, A] : PC.Regs)
      Concrete[Reg] = A.V;
    SimVal C = evalSimExpr(*PC.E, Concrete);
    bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
    if (NonZero != PC.ExpectNonZero)
      Infeasible = true;
    return; // Holds for every candidate: nothing to check later.
  }
  Checks.push_back(std::move(PC));
}

void AbsInterpreter::run(
    unsigned NumEvents,
    const std::vector<std::pair<unsigned, SimVal>> &InitWrites,
    const std::vector<std::vector<AbsThreadOp>> &Threads) {
  EvAbs.assign(NumEvents, AbsVal());
  Checks.clear();
  Infeasible = false;
  for (const auto &[Ev, V] : InitWrites)
    EvAbs[Ev] = AbsVal::known(V);
  for (const std::vector<AbsThreadOp> &Thread : Threads) {
    std::map<std::string, AbsVal> Regs;
    for (const AbsThreadOp &TO : Thread) {
      const SimOp &Op = *TO.Op;
      switch (Op.K) {
      case SimOp::Kind::Assign:
        Regs[Op.Dst] = absEval(Op.Val, Regs);
        break;
      case SimOp::Kind::AddrOf:
        Regs[Op.Dst] = AbsVal::known(TO.Addr);
        break;
      case SimOp::Kind::Constraint:
        captureConstraint(Op, Regs);
        break;
      case SimOp::Kind::Fence:
        break;
      case SimOp::Kind::Load:
        if (Op.Is128) {
          // The destination halves are bit-slices of the read value
          // (sweep(): Value(V.Lo) / Value(V.Hi)), exactly expressible
          // as Lo64/Hi64 transforms of the read. The sweep assigns the
          // halves only when Dst is non-empty (an `ldxp xzr, xN` lowers
          // to Dst == "" and leaves BOTH register values untouched);
          // mirror that gate exactly or the pass would track a half the
          // sweep never wrote.
          if (!Op.Dst.empty()) {
            Regs[Op.Dst] = AbsVal::xform(
                TO.Ev0,
                AbsXform::unary(AbsXform::Kind::Lo64, AbsXform::arg()));
            if (!Op.Dst2.empty())
              Regs[Op.Dst2] = AbsVal::xform(
                  TO.Ev0,
                  AbsXform::unary(AbsXform::Kind::Hi64, AbsXform::arg()));
          }
        } else if (!Op.Dst.empty()) {
          Regs[Op.Dst] = AbsVal::read(TO.Ev0);
        }
        break;
      case SimOp::Kind::Store: {
        AbsVal V;
        if (Op.Is128) {
          AbsVal Lo = absEval(Op.Val, Regs);
          AbsVal Hi = absEval(Op.ValHi, Regs);
          if (Lo.K == AbsVal::Kind::Known && Hi.K == AbsVal::Kind::Known) {
            V = AbsVal::known(SimVal{SimVal::Kind::Int,
                                     Value(Lo.V.V.Lo, Hi.V.V.Lo), Symbol()});
          } else if (Lo.K != AbsVal::Kind::Top &&
                     Hi.K != AbsVal::Kind::Top &&
                     !(Lo.K == AbsVal::Kind::Xform &&
                       Hi.K == AbsVal::Kind::Xform &&
                       Lo.ReadEv != Hi.ReadEv)) {
            // One read feeds both halves (e.g. an LDXP/STXP round trip
            // through the half registers): still single-source.
            unsigned Ev =
                Lo.K == AbsVal::Kind::Xform ? Lo.ReadEv : Hi.ReadEv;
            AbsXform F = AbsXform::binary(AbsXform::Kind::Pack128,
                                          toNode(Lo), toNode(Hi));
            if (F.size() <= kMaxXformNodes)
              V = AbsVal::xform(Ev, std::move(F));
          }
        } else {
          V = absEval(Op.Val, Regs);
        }
        // A dynamic destination hides the width rule; give up on the
        // value. Known values pre-truncate at the store site (the sweep
        // truncates on Update); transforms bake the store-site
        // truncation into the tree, applied when the chain is resolved.
        if (!TO.Static)
          V = AbsVal();
        else if (V.K == AbsVal::Kind::Known)
          V.V = truncAtLoc(TO.Decl, V.V);
        else if (V.K == AbsVal::Kind::Xform && TO.Decl)
          V.F = AbsXform::trunc(TO.Decl->Type, std::move(V.F));
        EvAbs[TO.Ev0] = std::move(V);
        // Exclusive-store status register. Sound to model as a known
        // constant: the concrete sweep -- the oracle pruning must
        // mirror -- itself assigns StatusSuccess unconditionally
        // (herd's "exclusive pairs succeed" rule), so a path whose
        // constraints require a failed store-conditional is rejected by
        // the fixpoint on every rf assignment, and the all-known
        // capture above condemns the combo identically.
        if (!Op.Dst.empty())
          Regs[Op.Dst] = AbsVal::known(
              SimVal{SimVal::Kind::Int, Value(Op.StatusSuccess), Symbol()});
        break;
      }
      case SimOp::Kind::Rmw: {
        unsigned ReadEv = TO.Ev0, WriteEv = TO.Ev1;
        AbsVal Operand = absEval(Op.Val, Regs);
        AbsVal New; // Top unless the combine is expressible below.
        if (TO.Static) {
          const SimLoc *L = TO.Decl;
          auto StoreTrunc = [&](AbsXform F) {
            return L ? AbsXform::trunc(L->Type, std::move(F))
                     : std::move(F);
          };
          switch (Op.RmwOp) {
          case SimOp::RmwOpKind::Xchg:
            if (Operand.K == AbsVal::Kind::Known) {
              // The sweep coerces the stored value to Kind::Int.
              New = AbsVal::known(truncAtLoc(
                  L, SimVal{SimVal::Kind::Int, Operand.V.V, Symbol()}));
            } else if (Operand.K == AbsVal::Kind::Xform) {
              New = AbsVal::xform(
                  Operand.ReadEv,
                  StoreTrunc(AbsXform::unary(AbsXform::Kind::ToInt,
                                             Operand.F)));
            }
            break;
          case SimOp::RmwOpKind::Add:
          case SimOp::RmwOpKind::Sub:
            // old `op` operand over this op's own read: single-source
            // when the operand is a constant (an operand transformed
            // from *another* read would make two sources).
            if (Operand.K == AbsVal::Kind::Known) {
              AbsXform F = AbsXform::binary(
                  Op.RmwOp == SimOp::RmwOpKind::Add
                      ? AbsXform::Kind::RmwAdd
                      : AbsXform::Kind::RmwSub,
                  AbsXform::arg(), AbsXform::constant(Operand.V));
              New = AbsVal::xform(ReadEv, StoreTrunc(std::move(F)));
            }
            break;
          }
          if (New.K == AbsVal::Kind::Xform &&
              New.F.size() > kMaxXformNodes)
            New = AbsVal();
        }
        EvAbs[WriteEv] = std::move(New);
        if (!Op.Dst.empty() && !Op.NoRet)
          Regs[Op.Dst] = AbsVal::read(ReadEv);
        break;
      }
      }
    }
  }
}
