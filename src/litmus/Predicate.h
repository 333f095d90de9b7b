//===--- Predicate.h - Final-state predicates -------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicates over the final state of a litmus test, e.g.
/// `exists (P1:r0=0 /\ y=2)` from Fig. 1 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_PREDICATE_H
#define TELECHAT_LITMUS_PREDICATE_H

#include "litmus/Outcome.h"
#include "litmus/Value.h"

#include <functional>
#include <string>
#include <vector>

namespace telechat {

/// An atomic condition: register equality ("P1:r0=0") or final memory
/// equality ("y=2" / "[y]=2").
struct PredAtom {
  enum class Kind { RegEq, LocEq } K = Kind::LocEq;
  std::string Thread; ///< RegEq: "P1".
  std::string Name;   ///< Register or location name.
  Value V;

  /// The outcome key this atom constrains ("P1:r0" or "[y]").
  std::string key() const;

  bool operator==(const PredAtom &) const = default;
};

/// Boolean combination of atoms.
struct Predicate {
  enum class Kind { Atom, And, Or, Not, True } K = Kind::True;
  PredAtom A;
  std::vector<Predicate> Ops;

  static Predicate atom(PredAtom At);
  static Predicate conj(std::vector<Predicate> Ops);
  static Predicate disj(std::vector<Predicate> Ops);
  static Predicate negate(Predicate P);
  static Predicate regEq(std::string Thread, std::string Reg, Value V);
  static Predicate locEq(std::string Loc, Value V);

  /// Evaluates against an outcome; missing keys read as zero, matching
  /// herd's zero-initialisation convention (paper §IV-B discusses how this
  /// masks deleted locals).
  bool eval(const Outcome &O) const;

  /// All keys mentioned anywhere in the predicate.
  void collectKeys(std::vector<std::string> &Out) const;

  std::string toString() const;

  bool operator==(const Predicate &) const = default;
};

/// Quantified final condition.
struct FinalCond {
  enum class Quant {
    Exists,    ///< Satisfiable by some outcome.
    NotExists, ///< "~exists": satisfied by no outcome.
    Forall,    ///< Every outcome satisfies.
  } Q = Quant::Exists;
  Predicate P;

  std::string toString() const;

  bool operator==(const FinalCond &) const = default;
};

} // namespace telechat

#endif // TELECHAT_LITMUS_PREDICATE_H
