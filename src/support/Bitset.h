//===--- Bitset.h - Dense set over small ids --------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bitset over ids 0..Size-1 used for event sets in candidate
/// executions and Cat model evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_BITSET_H
#define TELECHAT_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace telechat {

/// The width of a bit row or set in 64-bit words, as a kernel sees it:
/// OneWord, a compile-time 1, for universes of at most 64 ids, else the
/// run-time word count. A kernel is written once over the width, and
/// withWidth() calls the instance that fits, so the one-word instance has
/// no word loop and the compiler can keep a row in a register.
using OneWord = std::integral_constant<unsigned, 1>;

template <typename KernelT>
void withWidth(std::size_t Words, KernelT &&Kernel) {
  if (Words == 1)
    Kernel(OneWord());
  else
    Kernel(unsigned(Words));
}

/// Dense set of small unsigned ids with value semantics.
///
/// All binary operations require both operands to have the same universe
/// size; this is asserted, not checked at runtime in release builds.
class Bitset {
public:
  Bitset() = default;
  explicit Bitset(unsigned UniverseSize)
      : Size(UniverseSize), Words((UniverseSize + 63) / 64, 0) {}

  /// Returns the set {0, ..., UniverseSize-1}.
  static Bitset all(unsigned UniverseSize) {
    Bitset S;
    S.assignAll(UniverseSize);
    return S;
  }

  /// Makes this the empty set over \p UniverseSize ids, reusing the
  /// storage it already has.
  void assignEmpty(unsigned UniverseSize) {
    Size = UniverseSize;
    Words.assign((UniverseSize + 63) / 64, 0);
  }

  /// Makes this the set {0, ..., UniverseSize-1}, reusing storage.
  void assignAll(unsigned UniverseSize) {
    Size = UniverseSize;
    Words.assign((UniverseSize + 63) / 64, ~uint64_t(0));
    if (UniverseSize % 64 != 0)
      Words.back() &= (uint64_t(1) << (UniverseSize % 64)) - 1;
  }

  unsigned universeSize() const { return Size; }

  bool test(unsigned I) const {
    assert(I < Size && "Bitset::test out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(unsigned I) {
    assert(I < Size && "Bitset::set out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(unsigned I) {
    assert(I < Size && "Bitset::reset out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  /// Number of elements in the set.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  Bitset &operator|=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    withWidth(Words.size(), [&](auto W) {
      for (unsigned I = 0; I != W; ++I)
        Words[I] |= RHS.Words[I];
    });
    return *this;
  }

  Bitset &operator&=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    withWidth(Words.size(), [&](auto W) {
      for (unsigned I = 0; I != W; ++I)
        Words[I] &= RHS.Words[I];
    });
    return *this;
  }

  /// Set difference: removes every element of \p RHS from this set.
  Bitset &operator-=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    withWidth(Words.size(), [&](auto W) {
      for (unsigned I = 0; I != W; ++I)
        Words[I] &= ~RHS.Words[I];
    });
    return *this;
  }

  friend Bitset operator|(Bitset LHS, const Bitset &RHS) { return LHS |= RHS; }
  friend Bitset operator&(Bitset LHS, const Bitset &RHS) { return LHS &= RHS; }
  friend Bitset operator-(Bitset LHS, const Bitset &RHS) { return LHS -= RHS; }

  /// Complement relative to the universe.
  Bitset complement() const {
    Bitset S = all(Size);
    S -= *this;
    return S;
  }

  bool operator==(const Bitset &RHS) const {
    return Size == RHS.Size && Words == RHS.Words;
  }
  bool operator!=(const Bitset &RHS) const { return !(*this == RHS); }

  /// Calls \p Fn for every element, in increasing order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (unsigned WI = 0, WE = Words.size(); WI != WE; ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = __builtin_ctzll(W);
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Elements as a vector, in increasing order.
  std::vector<unsigned> elements() const {
    std::vector<unsigned> Out;
    Out.reserve(count());
    forEach([&](unsigned I) { Out.push_back(I); });
    return Out;
  }

private:
  friend class Relation; // row/column filters read the words directly

  unsigned Size = 0;
  std::vector<uint64_t> Words;
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_BITSET_H
