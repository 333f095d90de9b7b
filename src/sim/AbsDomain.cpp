//===--- AbsDomain.cpp - Abstract value domain for rf pruning -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "sim/AbsDomain.h"

using namespace telechat;

namespace {

/// Transforms stay cheap to copy and to apply: a tree growing past this
/// many nodes degrades to Top instead (pruning is best-effort; Top is
/// always sound).
constexpr unsigned kMaxXformNodes = 24;

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

AbsVal AbsVal::bounded(unsigned Ev, AbsXform F) {
  if (F.size() > kMaxXformNodes)
    return AbsVal();
  return xform(Ev, std::move(F));
}

AbsVal telechat::combineAbsVals(Expr::Kind K, const AbsVal &L,
                                const AbsVal &R) {
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
  return AbsVal::bounded(Ev,
                         AbsXform::binary(xformKindFor(K), L.node(), R.node()));
}
