//===--- AbsDomain.h - Abstract value domain for rf pruning -----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-source symbolic-transform domain behind
/// SimOptions::RfValuePruning. A value the abstract pass tracks is one
/// of:
///
///   Known(c)      -- a concrete constant (integer or location address),
///   Xform(e, f)   -- f applied to whatever read event e observes, where
///                    f is a *bounded* expression tree over exactly one
///                    read result with constant leaves (affine a*r+b via
///                    Add/Sub chains, bitwise r^c / r&m, width
///                    truncations, 128-bit half slices), or
///   Top           -- anything the pass cannot mirror exactly.
///
/// The lattice is flat: Known and Xform never merge (the pass runs one
/// straight-line path, so no joins are needed); any operation that
/// would need a second read source, exceed the node bound, or leave the
/// mirrored semantics degrades to Top and is never pruned on. One
/// algebraic fold strengthens the domain: t^t and t-t collapse to
/// Known(0) for identical single-source trees (true for every read
/// value), which turns diy's dependency idiom `v + (r^r)` back into a
/// known store value.
///
/// Soundness rests on one invariant, checked against Enumerator.cpp's
/// concrete sweep(): for every candidate rf assignment the fixpoint
/// accepts, the value sweep() computes for a tracked event equals
/// Known's constant / f(read value) exactly -- same truncation sites,
/// same address/integer coercions, same zero-default for registers that
/// were never assigned. The sweep runs on slot-resolved ops (registers
/// are register-file slots, locations dense ids), but it combines
/// values with combineSimVals and truncates with truncAtLoc, the same
/// two helpers AbsXform::apply and this pass use, so the two cannot
/// drift.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_ABSDOMAIN_H
#define TELECHAT_SIM_ABSDOMAIN_H

#include "sim/Program.h"
#include "support/Interner.h"

#include <map>
#include <string>
#include <vector>

namespace telechat {

/// A runtime value: an integer or the address of a named location.
/// Trivially copyable: the location name is interned.
struct SimVal {
  enum class Kind { Int, Addr } K = Kind::Int;
  Value V;    ///< Numeric value (addresses get a synthetic numeric).
  Symbol Sym; ///< Kind::Addr: the location name.

  bool operator==(const SimVal &RHS) const {
    return K == RHS.K && V == RHS.V && Sym == RHS.Sym;
  }
};

/// The concrete combine rule for one binary Expr kind, shared verbatim
/// by the resolution sweep (via evalSimExpr) and AbsXform::apply so the
/// abstract transforms cannot drift from the fixpoint's semantics.
SimVal combineSimVals(Expr::Kind K, const SimVal &L, const SimVal &R);

/// Evaluates an expression over a register file, zero-defaulting
/// registers that were never assigned (herd's rule).
SimVal evalSimExpr(const Expr &E, const std::map<std::string, SimVal> &Regs);

/// The width rule shared by the sweep and the abstract pass: values
/// stored to / loaded from a location truncate to its declared type \p L
/// (no-op for undeclared locations, null \p L, and address values).
SimVal truncAtLoc(const SimLoc *L, SimVal V);

/// A bounded expression tree over one read result ("Arg") with constant
/// leaves. Each node kind mirrors one concrete operation of the sweep;
/// apply() must be bit-identical to what the sweep computes when Arg is
/// bound to the value the read observes.
struct AbsXform {
  enum class Kind : uint8_t {
    Arg,     ///< The read value (after the read-site width truncation).
    Const,   ///< SimVal constant leaf.
    Add,     ///< Expr-combine semantics (combineSimVals), 2 children.
    Sub,     //
    Xor,     //
    And,     //
    RmwAdd,  ///< RMW combine: raw Value add, result forced Kind::Int.
    RmwSub,  ///< RMW combine: raw Value sub, result forced Kind::Int.
    ToInt,   ///< Coerce to Kind::Int keeping the numeric (Xchg store rule).
    Trunc,   ///< Truncate Kind::Int values to Ty (store/read width rule).
    Lo64,    ///< Low 64-bit half of a 128-bit read (LDXP first register).
    Hi64,    ///< High 64-bit half of a 128-bit read.
    Pack128, ///< 128-bit store value from two halves: Value(lo.Lo, hi.Lo).
  };

  Kind K = Kind::Arg;
  SimVal C;                  ///< Kind::Const payload.
  IntType Ty;                ///< Kind::Trunc payload.
  std::vector<AbsXform> Ops; ///< Children: 2 for binary kinds, 1 unary.

  static AbsXform arg() { return AbsXform(); }
  static AbsXform constant(SimVal V) {
    AbsXform X;
    X.K = Kind::Const;
    X.C = std::move(V);
    return X;
  }
  static AbsXform unary(Kind K, AbsXform Sub) {
    AbsXform X;
    X.K = K;
    X.Ops.push_back(std::move(Sub));
    return X;
  }
  static AbsXform binary(Kind K, AbsXform L, AbsXform R) {
    AbsXform X;
    X.K = K;
    X.Ops.push_back(std::move(L));
    X.Ops.push_back(std::move(R));
    return X;
  }
  static AbsXform trunc(IntType Ty, AbsXform Sub) {
    AbsXform X = unary(Kind::Trunc, std::move(Sub));
    X.Ty = Ty;
    return X;
  }

  unsigned size() const;

  bool operator==(const AbsXform &RHS) const {
    return K == RHS.K && C == RHS.C && Ty == RHS.Ty && Ops == RHS.Ops;
  }

  /// Evaluates the tree with the read value bound to \p Arg.
  SimVal apply(const SimVal &Arg) const;

  /// True when the tree is v + c, c + v or v - c of the read value v
  /// (Add, Sub, RmwAdd or RmwSub of Arg and one integer constant c)
  /// under width truncations, and c stays nonzero when truncated by
  /// every Trunc on the way and by \p ReadTy, the read's own width (null
  /// when the read does not truncate). Then no v that the read observes
  /// satisfies v == trunc(apply(v)), so a read that takes its value from
  /// a write storing this transform of it has no stable value.
  bool hasNoFixedPoint(const IntType *ReadTy) const;
};

/// What the abstract pass knows about a value without fixing rf. See
/// the file comment for the domain.
struct AbsVal {
  enum class Kind { Known, Xform, Top } K = Kind::Top;
  SimVal V;            ///< Kind::Known payload.
  unsigned ReadEv = 0; ///< Kind::Xform: the single read source.
  AbsXform F;          ///< Kind::Xform: the transform over that read.

  static AbsVal known(SimVal V) {
    AbsVal A;
    A.K = Kind::Known;
    A.V = std::move(V);
    return A;
  }
  /// A plain copy of read \p Ev's value (the identity transform).
  static AbsVal read(unsigned Ev) { return xform(Ev, AbsXform::arg()); }
  static AbsVal xform(unsigned Ev, AbsXform F) {
    AbsVal A;
    A.K = Kind::Xform;
    A.ReadEv = Ev;
    A.F = std::move(F);
    return A;
  }

  /// Kind::Xform only: the tracked value when the read observes
  /// \p ReadVal.
  SimVal apply(const SimVal &ReadVal) const { return F.apply(ReadVal); }
};

/// One path constraint whose inputs the abstract pass fully tracked:
/// every register the expression reads is either a known constant or a
/// transform of one read event's value. Checkable per rf assignment
/// without running the resolution fixpoint.
struct PruneCheck {
  const Expr *E = nullptr; ///< Points into the program's paths.
  bool ExpectNonZero = true;
  /// Register snapshot at the constraint site, restricted to registers
  /// the expression uses. No entry is Top (such constraints are not
  /// captured).
  std::vector<std::pair<std::string, AbsVal>> Regs;
};

/// One op of one chosen path together with the events it emitted (in
/// creation order; ~0u when the op emits fewer events) and the facts
/// the enumerator resolved for it. The enumerator flattens its
/// per-combo skeleton into this form so the abstract pass needs no
/// knowledge of the event table's layout or of location names.
struct AbsThreadOp {
  const SimOp *Op = nullptr;
  unsigned Ev0 = ~0u;
  unsigned Ev1 = ~0u;
  /// Accesses: the address is static (known before any rf choice,
  /// possibly through registers holding address constants).
  bool Static = false;
  /// Static accesses: the declared location (the width rule), null
  /// when undeclared.
  const SimLoc *Decl = nullptr;
  /// AddrOf: the address value the sweep assigns.
  SimVal Addr;
};

/// The abstract value pass: runs each chosen path once over the domain,
/// recording per write event what it stores (evAbs) and which path
/// constraints are checkable without the fixpoint (checks /
/// infeasible). Mirrors the concrete sweep()'s value semantics exactly;
/// anything it cannot mirror becomes Top and is never pruned on.
class AbsInterpreter {
public:
  /// Runs the pass over one path combo. \p InitWrites lists (event id,
  /// initial value) of the init writes; \p Threads holds each chosen
  /// path's ops with their events.
  void run(unsigned NumEvents,
           const std::vector<std::pair<unsigned, SimVal>> &InitWrites,
           const std::vector<std::vector<AbsThreadOp>> &Threads);

  const std::vector<AbsVal> &evAbs() const { return EvAbs; }
  std::vector<AbsVal> takeEvAbs() { return std::move(EvAbs); }
  std::vector<PruneCheck> takeChecks() { return std::move(Checks); }
  bool infeasible() const { return Infeasible; }

private:
  AbsVal absEval(const Expr &E,
                 const std::map<std::string, AbsVal> &Regs) const;
  AbsVal combine(Expr::Kind K, AbsVal L, AbsVal R) const;
  void captureConstraint(const SimOp &Op,
                         const std::map<std::string, AbsVal> &Regs);

  std::vector<AbsVal> EvAbs;
  std::vector<PruneCheck> Checks;
  bool Infeasible = false;
};

} // namespace telechat

#endif // TELECHAT_SIM_ABSDOMAIN_H
