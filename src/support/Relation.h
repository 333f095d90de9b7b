//===--- Relation.h - Binary relations over small universes ----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense bit-matrix binary relations with the relational algebra needed by
/// Cat memory models: union, intersection, difference, sequential
/// composition, inverse, transitive/reflexive closures, acyclicity and
/// emptiness checks, domain/range, and restriction.
///
/// Candidate executions have tens of events, so an O(N^2/64)-per-row dense
/// representation beats sparse structures in both time and simplicity.
/// Up to 64 events a row is one 64-bit word, and the kernels run with that
/// width fixed at compile time; larger universes take the same kernels
/// with the width read at run time (see Relation.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_RELATION_H
#define TELECHAT_SUPPORT_RELATION_H

#include "support/Bitset.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace telechat {

/// A binary relation over {0..N-1}, stored as a row-major bit matrix.
///
/// Every derived relation has two forms: a value-returning one, and an
/// in-place one that writes into an existing relation and reuses its
/// storage, so a caller that keeps its relations alive across calls (the
/// Cat evaluator's registers) allocates nothing once they have grown to
/// size. The value-returning forms are defined through the in-place ones.
class Relation {
public:
  Relation() = default;
  explicit Relation(unsigned UniverseSize)
      : N(UniverseSize), WordsPerRow((UniverseSize + 63) / 64),
        Bits(std::size_t(N) * WordsPerRow, 0) {}

  /// The identity relation {(i,i)}.
  static Relation identity(unsigned N);
  /// The full relation {0..N-1} x {0..N-1}.
  static Relation full(unsigned N);
  /// The cartesian product A x B of two sets over the same universe.
  static Relation cross(const Bitset &A, const Bitset &B);
  /// The identity restricted to a set: [S] = {(i,i) | i in S}.
  static Relation identityOn(const Bitset &S);

  /// In-place twins of cross() and identityOn().
  static void crossInto(const Bitset &A, const Bitset &B, Relation &Out);
  static void identityOnInto(const Bitset &S, Relation &Out);

  /// Makes this the empty relation over \p UniverseSize events, reusing
  /// the storage it already has.
  void assignEmpty(unsigned UniverseSize);

  unsigned universeSize() const { return N; }

  bool test(unsigned A, unsigned B) const {
    assert(A < N && B < N && "Relation::test out of range");
    return (row(A)[B / 64] >> (B % 64)) & 1;
  }

  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "Relation::set out of range");
    row(A)[B / 64] |= uint64_t(1) << (B % 64);
  }

  void reset(unsigned A, unsigned B) {
    assert(A < N && B < N && "Relation::reset out of range");
    row(A)[B / 64] &= ~(uint64_t(1) << (B % 64));
  }

  /// Number of pairs in the relation.
  unsigned count() const;
  bool empty() const;

  Relation &operator|=(const Relation &RHS);
  Relation &operator&=(const Relation &RHS);
  /// Pair-wise difference.
  Relation &operator-=(const Relation &RHS);

  friend Relation operator|(Relation L, const Relation &R) { return L |= R; }
  friend Relation operator&(Relation L, const Relation &R) { return L &= R; }
  friend Relation operator-(Relation L, const Relation &R) { return L -= R; }

  bool operator==(const Relation &RHS) const {
    return N == RHS.N && Bits == RHS.Bits;
  }
  bool operator!=(const Relation &RHS) const { return !(*this == RHS); }

  /// Sequential composition: (a,c) iff exists b with (a,b) and (b,c).
  Relation seq(const Relation &RHS) const;
  /// seq() into \p Out, which must be neither operand.
  void seqInto(const Relation &RHS, Relation &Out) const;

  /// Row filter: keeps the pairs (a,b) with a in \p S. Equals
  /// identityOn(S).seq(*this), the Cat term "[S]; r".
  void keepRows(const Bitset &S);
  /// Column filter: keeps the pairs (a,b) with b in \p S. Equals
  /// seq(identityOn(S)), the Cat term "r; [S]".
  void keepColumns(const Bitset &S);

  /// The inverse relation r^-1.
  Relation inverse() const;
  /// inverse() into \p Out, which must not be this relation.
  void inverseInto(Relation &Out) const;

  /// Transitive closure r^+ (warshall over bit rows, O(N^2 * N/64)).
  Relation transitiveClosure() const;
  void closeTransitively();

  /// Reflexive-transitive closure r^*.
  Relation reflexiveTransitiveClosure() const;
  void closeReflexiveTransitively();

  /// r? = r union identity.
  Relation optional() const;
  void addIdentity();

  /// True iff r^+ has an empty diagonal. A depth-first search over bit
  /// rows: no closure is built.
  bool isAcyclic() const;

  /// True iff no (i,i) pair is present (does not close transitively).
  bool isIrreflexive() const;

  /// Pairs (a,b) with a in Dom and b in Ran.
  Relation restricted(const Bitset &Dom, const Bitset &Ran) const;

  /// The set {a | exists b. (a,b)}.
  Bitset domain() const;
  void domainInto(Bitset &Out) const;
  /// The set {b | exists a. (a,b)}.
  Bitset range() const;
  void rangeInto(Bitset &Out) const;

  /// All pairs as (from,to), in row-major order.
  std::vector<std::pair<unsigned, unsigned>> pairs() const;

  /// Calls \p Fn(a, b) for every pair.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (unsigned A = 0; A != N; ++A) {
      const uint64_t *Row = row(A);
      for (unsigned WI = 0; WI != WordsPerRow; ++WI) {
        uint64_t W = Row[WI];
        while (W) {
          unsigned Bit = __builtin_ctzll(W);
          Fn(A, WI * 64 + Bit);
          W &= W - 1;
        }
      }
    }
  }

private:
  uint64_t *row(unsigned A) {
    return Bits.data() + std::size_t(A) * WordsPerRow;
  }
  const uint64_t *row(unsigned A) const {
    return Bits.data() + std::size_t(A) * WordsPerRow;
  }

  unsigned N = 0;
  unsigned WordsPerRow = 0;
  std::vector<uint64_t> Bits;
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_RELATION_H
