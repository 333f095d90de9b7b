//===--- Relation.cpp - Binary relations over small universes ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include <algorithm>
#include <cstddef>

using namespace telechat;
using std::size_t;

Relation Relation::identity(unsigned N) {
  Relation R(N);
  R.addIdentity();
  return R;
}

Relation Relation::full(unsigned N) {
  Relation R(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned WI = 0; WI != R.WordsPerRow; ++WI)
      R.row(A)[WI] = ~uint64_t(0);
  // Clear bits beyond N in the last word of every row.
  if (N % 64 != 0) {
    uint64_t Mask = (uint64_t(1) << (N % 64)) - 1;
    for (unsigned A = 0; A != N; ++A)
      R.row(A)[R.WordsPerRow - 1] &= Mask;
  }
  return R;
}

Relation Relation::cross(const Bitset &A, const Bitset &B) {
  Relation R;
  crossInto(A, B, R);
  return R;
}

void Relation::crossInto(const Bitset &A, const Bitset &B, Relation &Out) {
  assert(A.universeSize() == B.universeSize() && "universe mismatch");
  Out.assignEmpty(A.universeSize());
  A.forEach([&](unsigned I) {
    std::copy(B.Words.begin(), B.Words.end(), Out.row(I));
  });
}

Relation Relation::identityOn(const Bitset &S) {
  Relation R;
  identityOnInto(S, R);
  return R;
}

void Relation::identityOnInto(const Bitset &S, Relation &Out) {
  Out.assignEmpty(S.universeSize());
  S.forEach([&](unsigned I) { Out.set(I, I); });
}

void Relation::assignEmpty(unsigned UniverseSize) {
  N = UniverseSize;
  WordsPerRow = (UniverseSize + 63) / 64;
  Bits.assign(std::size_t(N) * WordsPerRow, 0);
}

unsigned Relation::count() const {
  unsigned Total = 0;
  for (uint64_t W : Bits)
    Total += __builtin_popcountll(W);
  return Total;
}

bool Relation::empty() const {
  for (uint64_t W : Bits)
    if (W)
      return false;
  return true;
}

Relation &Relation::operator|=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  for (size_t I = 0, E = Bits.size(); I != E; ++I)
    Bits[I] |= RHS.Bits[I];
  return *this;
}

Relation &Relation::operator&=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  for (size_t I = 0, E = Bits.size(); I != E; ++I)
    Bits[I] &= RHS.Bits[I];
  return *this;
}

Relation &Relation::operator-=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  for (size_t I = 0, E = Bits.size(); I != E; ++I)
    Bits[I] &= ~RHS.Bits[I];
  return *this;
}

Relation Relation::seq(const Relation &RHS) const {
  Relation Out;
  seqInto(RHS, Out);
  return Out;
}

void Relation::seqInto(const Relation &RHS, Relation &Out) const {
  assert(N == RHS.N && "universe mismatch");
  assert(&Out != this && &Out != &RHS && "seqInto output aliases an operand");
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *RowA = row(A);
    uint64_t *RowOut = Out.row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI) {
      uint64_t W = RowA[WI];
      while (W) {
        unsigned B = WI * 64 + __builtin_ctzll(W);
        W &= W - 1;
        const uint64_t *RowB = RHS.row(B);
        for (unsigned WJ = 0; WJ != WordsPerRow; ++WJ)
          RowOut[WJ] |= RowB[WJ];
      }
    }
  }
}

void Relation::keepRows(const Bitset &S) {
  assert(N == S.universeSize() && "universe mismatch");
  for (unsigned A = 0; A != N; ++A)
    if (!S.test(A))
      std::fill(row(A), row(A) + WordsPerRow, 0);
}

void Relation::keepColumns(const Bitset &S) {
  assert(N == S.universeSize() && "universe mismatch");
  for (unsigned A = 0; A != N; ++A) {
    uint64_t *Row = row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI)
      Row[WI] &= S.Words[WI];
  }
}

Relation Relation::inverse() const {
  Relation Out;
  inverseInto(Out);
  return Out;
}

void Relation::inverseInto(Relation &Out) const {
  assert(&Out != this && "inverseInto output aliases its operand");
  Out.assignEmpty(N);
  forEach([&](unsigned A, unsigned B) { Out.set(B, A); });
}

Relation Relation::transitiveClosure() const {
  Relation Out = *this;
  Out.closeTransitively();
  return Out;
}

void Relation::closeTransitively() {
  // Warshall's algorithm with bit-parallel row unions: if (A,K) then
  // row(A) |= row(K). Iterating K in the outer loop preserves correctness.
  for (unsigned K = 0; K != N; ++K) {
    const uint64_t *RowK = row(K);
    for (unsigned A = 0; A != N; ++A) {
      if (A == K || !test(A, K))
        continue;
      uint64_t *RowA = row(A);
      for (unsigned WI = 0; WI != WordsPerRow; ++WI)
        RowA[WI] |= RowK[WI];
    }
  }
}

Relation Relation::reflexiveTransitiveClosure() const {
  Relation Out = *this;
  Out.closeReflexiveTransitively();
  return Out;
}

void Relation::closeReflexiveTransitively() {
  closeTransitively();
  addIdentity();
}

Relation Relation::optional() const {
  Relation Out = *this;
  Out.addIdentity();
  return Out;
}

void Relation::addIdentity() {
  for (unsigned I = 0; I != N; ++I)
    set(I, I);
}

bool Relation::isAcyclic() const {
  // Iterative depth-first search. A node whose row meets the set of nodes
  // on the current DFS path closes a cycle; a node whose successors are
  // all finished is finished itself. Small universes keep the path and
  // the two node sets on the stack.
  constexpr unsigned InlineNodes = 256;
  unsigned PathBuf[InlineNodes];
  uint64_t SetBuf[2 * InlineNodes / 64];
  std::vector<unsigned> PathHeap;
  std::vector<uint64_t> SetHeap;
  unsigned *Path = PathBuf;
  uint64_t *OnPath = SetBuf;
  if (N > InlineNodes) {
    PathHeap.resize(N);
    SetHeap.assign(2 * std::size_t(WordsPerRow), 0);
    Path = PathHeap.data();
    OnPath = SetHeap.data();
  } else {
    std::fill(SetBuf, SetBuf + 2 * WordsPerRow, 0);
  }
  uint64_t *Done = OnPath + WordsPerRow;
  auto Has = [](const uint64_t *Set, unsigned I) {
    return (Set[I / 64] >> (I % 64)) & 1;
  };
  for (unsigned Root = 0; Root != N; ++Root) {
    if (Has(Done, Root))
      continue;
    unsigned Depth = 0;
    Path[Depth++] = Root;
    OnPath[Root / 64] |= uint64_t(1) << (Root % 64);
    while (Depth != 0) {
      unsigned V = Path[Depth - 1];
      const uint64_t *Row = row(V);
      unsigned Next = ~0u;
      for (unsigned WI = 0; WI != WordsPerRow; ++WI) {
        if (Row[WI] & OnPath[WI])
          return false;
        uint64_t Fresh = Row[WI] & ~Done[WI] & ~OnPath[WI];
        if (Fresh && Next == ~0u)
          Next = WI * 64 + __builtin_ctzll(Fresh);
      }
      if (Next == ~0u) {
        --Depth;
        OnPath[V / 64] &= ~(uint64_t(1) << (V % 64));
        Done[V / 64] |= uint64_t(1) << (V % 64);
      } else {
        Path[Depth++] = Next;
        OnPath[Next / 64] |= uint64_t(1) << (Next % 64);
      }
    }
  }
  return true;
}

bool Relation::isIrreflexive() const {
  for (unsigned I = 0; I != N; ++I)
    if (test(I, I))
      return false;
  return true;
}

Relation Relation::restricted(const Bitset &Dom, const Bitset &Ran) const {
  Relation Out(N);
  forEach([&](unsigned A, unsigned B) {
    if (Dom.test(A) && Ran.test(B))
      Out.set(A, B);
  });
  return Out;
}

Bitset Relation::domain() const {
  Bitset Out;
  domainInto(Out);
  return Out;
}

void Relation::domainInto(Bitset &Out) const {
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *Row = row(A);
    if (std::any_of(Row, Row + WordsPerRow, [](uint64_t W) { return W; }))
      Out.set(A);
  }
}

Bitset Relation::range() const {
  Bitset Out;
  rangeInto(Out);
  return Out;
}

void Relation::rangeInto(Bitset &Out) const {
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *Row = row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI)
      Out.Words[WI] |= Row[WI];
  }
}

std::vector<std::pair<unsigned, unsigned>> Relation::pairs() const {
  std::vector<std::pair<unsigned, unsigned>> Out;
  forEach([&](unsigned A, unsigned B) { Out.emplace_back(A, B); });
  return Out;
}
