//===--- Relation.cpp - Binary relations over small universes ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>

using namespace telechat;
using std::size_t;

//===----------------------------------------------------------------------===//
// Row kernels
//
// Each kernel is written once over a row width W, OneWord or the run-time
// word count (Bitset.h), and withWidth() picks the instance. With one word
// known, the compiler unrolls the word loops and keeps a row in a
// register, so the row loops run branch-free and vectorise.
//===----------------------------------------------------------------------===//

namespace {

template <typename WidthT>
constexpr bool IsOneWord = std::is_same_v<WidthT, OneWord>;

/// The word of a row that holds column \p I: 0 in a one-word row.
template <typename WidthT> unsigned wordOf(unsigned I) {
  return IsOneWord<WidthT> ? 0 : I / 64;
}

uint64_t bitOf(unsigned I) { return uint64_t(1) << (I % 64); }

/// All ones when column \p I is in \p Row, else 0.
template <typename WidthT> uint64_t maskOf(const uint64_t *Row, unsigned I) {
  return -((Row[wordOf<WidthT>(I)] >> (I % 64)) & 1);
}

/// Warshall's algorithm over whole rows: every row holding pivot K absorbs
/// row K. A pivot with an empty row adds nothing. Row K does not change
/// while it is the pivot (it would only absorb itself), so the one-word
/// form reads it from a register.
template <typename WidthT>
void closeRows(uint64_t *Bits, unsigned N, WidthT W) {
  for (unsigned K = 0; K != N; ++K) {
    const uint64_t *RowK = Bits + size_t(K) * W;
    uint64_t Copy = RowK[0];
    const uint64_t *Pivot = IsOneWord<WidthT> ? &Copy : RowK;
    if (std::all_of(Pivot, Pivot + W, [](uint64_t X) { return X == 0; }))
      continue;
    for (unsigned A = 0; A != N; ++A) {
      uint64_t *RowA = Bits + size_t(A) * W;
      uint64_t Mask = maskOf<WidthT>(RowA, K);
      for (unsigned WI = 0; WI != W; ++WI)
        RowA[WI] |= Pivot[WI] & Mask;
    }
  }
}

/// Out = L;R: row A of Out is the union of the rows of R that row A of L
/// names. Out is zero and aliases neither operand.
template <typename WidthT>
void seqRows(const uint64_t *L, const uint64_t *R, uint64_t *__restrict Out,
             unsigned N, WidthT W) {
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *RowA = L + size_t(A) * W;
    uint64_t *RowOut = Out + size_t(A) * W;
    for (unsigned WI = 0; WI != W; ++WI)
      for (uint64_t X = RowA[WI]; X; X &= X - 1) {
        const uint64_t *RowB = R + (size_t(WI) * 64 + __builtin_ctzll(X)) * W;
        for (unsigned WJ = 0; WJ != W; ++WJ)
          RowOut[WJ] |= RowB[WJ];
      }
  }
}

/// Out = the inverse of Bits. Out is zero and does not alias Bits.
template <typename WidthT>
void inverseRows(const uint64_t *Bits, uint64_t *__restrict Out, unsigned N,
                 WidthT W) {
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *Row = Bits + size_t(A) * W;
    unsigned AWord = wordOf<WidthT>(A);
    for (unsigned WI = 0; WI != W; ++WI)
      for (uint64_t X = Row[WI]; X; X &= X - 1)
        Out[(size_t(WI) * 64 + __builtin_ctzll(X)) * W + AWord] |= bitOf(A);
  }
}

/// Out = A x B, for sets A and B (a Bitset's words): the rows in A are B.
template <typename WidthT>
void crossRows(const uint64_t *A, const uint64_t *B, uint64_t *__restrict Out,
               unsigned N, WidthT W) {
  for (unsigned I = 0; I != N; ++I) {
    uint64_t Keep = maskOf<WidthT>(A, I);
    for (unsigned WI = 0; WI != W; ++WI)
      Out[size_t(I) * W + WI] = B[WI] & Keep;
  }
}

/// Out |= the rows that hold a pair, as a Bitset's words.
template <typename WidthT>
void domainRows(const uint64_t *Bits, uint64_t *__restrict Out, unsigned N,
                WidthT W) {
  for (unsigned A = 0; A != N; ++A) {
    uint64_t Any = 0;
    for (unsigned WI = 0; WI != W; ++WI)
      Any |= Bits[size_t(A) * W + WI];
    Out[wordOf<WidthT>(A)] |= uint64_t(Any != 0) << (A % 64);
  }
}

/// Out |= the union of the rows, as a Bitset's words.
template <typename WidthT>
void rangeRows(const uint64_t *Bits, uint64_t *__restrict Out, unsigned N,
               WidthT W) {
  for (unsigned A = 0; A != N; ++A)
    for (unsigned WI = 0; WI != W; ++WI)
      Out[WI] |= Bits[size_t(A) * W + WI];
}

/// Clears the rows outside the set \p S, a Bitset's words.
template <typename WidthT>
void keepRowsIn(uint64_t *__restrict Bits, const uint64_t *S, unsigned N,
                WidthT W) {
  for (unsigned A = 0; A != N; ++A) {
    uint64_t Keep = maskOf<WidthT>(S, A);
    for (unsigned WI = 0; WI != W; ++WI)
      Bits[size_t(A) * W + WI] &= Keep;
  }
}

/// Clears the columns outside the set \p S, a Bitset's words.
template <typename WidthT>
void keepColumnsIn(uint64_t *__restrict Bits, const uint64_t *S, unsigned N,
                   WidthT W) {
  for (unsigned A = 0; A != N; ++A)
    for (unsigned WI = 0; WI != W; ++WI)
      Bits[size_t(A) * W + WI] &= S[WI];
}

template <typename WidthT>
void addDiagonal(uint64_t *Bits, unsigned N, WidthT W) {
  for (unsigned I = 0; I != N; ++I)
    Bits[size_t(I) * W + wordOf<WidthT>(I)] |= bitOf(I);
}

template <typename WidthT>
bool diagonalEmpty(const uint64_t *Bits, unsigned N, WidthT W) {
  uint64_t Any = 0;
  for (unsigned I = 0; I != N; ++I)
    Any |= Bits[size_t(I) * W + wordOf<WidthT>(I)] & bitOf(I);
  return Any == 0;
}

/// Iterative depth-first search. A node whose row meets the set of nodes
/// on the current DFS path closes a cycle; a node whose successors are all
/// finished is finished itself. Universes of up to 256 events keep the
/// path and the two node sets on the stack.
template <typename WidthT>
bool acyclicRows(const uint64_t *Bits, unsigned N, WidthT W) {
  constexpr unsigned InlineNodes = 256;
  unsigned PathBuf[InlineNodes];
  uint64_t SetBuf[2 * InlineNodes / 64];
  std::vector<unsigned> PathHeap;
  std::vector<uint64_t> SetHeap;
  unsigned *Path = PathBuf;
  uint64_t *OnPath = SetBuf;
  if (!IsOneWord<WidthT> && N > InlineNodes) {
    PathHeap.resize(N);
    SetHeap.assign(2 * size_t(W), 0);
    Path = PathHeap.data();
    OnPath = SetHeap.data();
  } else {
    std::fill(SetBuf, SetBuf + 2 * W, 0);
  }
  uint64_t *Done = OnPath + W;
  for (unsigned Root = 0; Root != N; ++Root) {
    if (maskOf<WidthT>(Done, Root))
      continue;
    unsigned Depth = 0;
    Path[Depth++] = Root;
    OnPath[wordOf<WidthT>(Root)] |= bitOf(Root);
    while (Depth != 0) {
      unsigned V = Path[Depth - 1];
      const uint64_t *Row = Bits + size_t(V) * W;
      unsigned Next = ~0u;
      for (unsigned WI = 0; WI != W; ++WI) {
        if (Row[WI] & OnPath[WI])
          return false;
        uint64_t Fresh = Row[WI] & ~Done[WI] & ~OnPath[WI];
        if (Fresh && Next == ~0u)
          Next = WI * 64 + __builtin_ctzll(Fresh);
      }
      if (Next == ~0u) {
        --Depth;
        OnPath[wordOf<WidthT>(V)] &= ~bitOf(V);
        Done[wordOf<WidthT>(V)] |= bitOf(V);
      } else {
        Path[Depth++] = Next;
        OnPath[wordOf<WidthT>(Next)] |= bitOf(Next);
      }
    }
  }
  return true;
}

} // namespace

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
  withWidth(Out.WordsPerRow, [&](auto W) {
    crossRows(A.Words.data(), B.Words.data(), Out.Bits.data(), Out.N, W);
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

// The pair-wise operators walk the matrix as one array of words, which
// needs no row width.

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
  withWidth(WordsPerRow, [&](auto W) {
    seqRows(Bits.data(), RHS.Bits.data(), Out.Bits.data(), N, W);
  });
}

void Relation::keepRows(const Bitset &S) {
  assert(N == S.universeSize() && "universe mismatch");
  withWidth(WordsPerRow, [&](auto W) {
    keepRowsIn(Bits.data(), S.Words.data(), N, W);
  });
}

void Relation::keepColumns(const Bitset &S) {
  assert(N == S.universeSize() && "universe mismatch");
  withWidth(WordsPerRow, [&](auto W) {
    keepColumnsIn(Bits.data(), S.Words.data(), N, W);
  });
}

Relation Relation::inverse() const {
  Relation Out;
  inverseInto(Out);
  return Out;
}

void Relation::inverseInto(Relation &Out) const {
  assert(&Out != this && "inverseInto output aliases its operand");
  Out.assignEmpty(N);
  withWidth(WordsPerRow, [&](auto W) {
    inverseRows(Bits.data(), Out.Bits.data(), N, W);
  });
}

Relation Relation::transitiveClosure() const {
  Relation Out = *this;
  Out.closeTransitively();
  return Out;
}

void Relation::closeTransitively() {
  withWidth(WordsPerRow, [&](auto W) { closeRows(Bits.data(), N, W); });
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
  withWidth(WordsPerRow, [&](auto W) { addDiagonal(Bits.data(), N, W); });
}

bool Relation::isAcyclic() const {
  bool Acyclic = true;
  withWidth(WordsPerRow,
            [&](auto W) { Acyclic = acyclicRows(Bits.data(), N, W); });
  return Acyclic;
}

bool Relation::isIrreflexive() const {
  bool Irreflexive = true;
  withWidth(WordsPerRow,
            [&](auto W) { Irreflexive = diagonalEmpty(Bits.data(), N, W); });
  return Irreflexive;
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
  withWidth(WordsPerRow, [&](auto W) {
    domainRows(Bits.data(), Out.Words.data(), N, W);
  });
}

Bitset Relation::range() const {
  Bitset Out;
  rangeInto(Out);
  return Out;
}

void Relation::rangeInto(Bitset &Out) const {
  Out.assignEmpty(N);
  withWidth(WordsPerRow, [&](auto W) {
    rangeRows(Bits.data(), Out.Words.data(), N, W);
  });
}

std::vector<std::pair<unsigned, unsigned>> Relation::pairs() const {
  std::vector<std::pair<unsigned, unsigned>> Out;
  forEach([&](unsigned A, unsigned B) { Out.emplace_back(A, B); });
  return Out;
}
