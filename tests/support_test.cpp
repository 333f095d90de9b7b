//===--- support_test.cpp - Bitset and Relation tests ---------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"
#include "support/Relation.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>

using namespace telechat;

TEST(BitsetTest, EmptyAndSize) {
  Bitset B(10);
  EXPECT_EQ(B.universeSize(), 10u);
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.count(), 0u);
}

TEST(BitsetTest, SetTestReset) {
  Bitset B(70); // spans two words
  B.set(0);
  B.set(69);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(69));
  EXPECT_FALSE(B.test(35));
  EXPECT_EQ(B.count(), 2u);
  B.reset(0);
  EXPECT_FALSE(B.test(0));
}

TEST(BitsetTest, AllAndComplement) {
  Bitset B = Bitset::all(65);
  EXPECT_EQ(B.count(), 65u);
  Bitset C = B.complement();
  EXPECT_TRUE(C.empty());
  Bitset D(65);
  D.set(3);
  EXPECT_EQ(D.complement().count(), 64u);
  EXPECT_FALSE(D.complement().test(3));
}

TEST(BitsetTest, SetAlgebra) {
  Bitset A(8), B(8);
  A.set(1);
  A.set(2);
  B.set(2);
  B.set(3);
  EXPECT_EQ((A | B).count(), 3u);
  EXPECT_EQ((A & B).count(), 1u);
  EXPECT_TRUE((A & B).test(2));
  EXPECT_EQ((A - B).count(), 1u);
  EXPECT_TRUE((A - B).test(1));
}

TEST(BitsetTest, ForEachInOrder) {
  Bitset B(100);
  B.set(5);
  B.set(64);
  B.set(99);
  std::vector<unsigned> Seen;
  B.forEach([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{5, 64, 99}));
  EXPECT_EQ(B.elements(), Seen);
}

TEST(RelationTest, Identity) {
  Relation R = Relation::identity(5);
  EXPECT_EQ(R.count(), 5u);
  EXPECT_TRUE(R.test(3, 3));
  EXPECT_FALSE(R.test(3, 4));
  EXPECT_FALSE(R.isIrreflexive());
}

TEST(RelationTest, FullHasAllPairs) {
  Relation R = Relation::full(7);
  EXPECT_EQ(R.count(), 49u);
}

TEST(RelationTest, Cross) {
  Bitset A(6), B(6);
  A.set(0);
  A.set(1);
  B.set(4);
  Relation R = Relation::cross(A, B);
  EXPECT_EQ(R.count(), 2u);
  EXPECT_TRUE(R.test(0, 4));
  EXPECT_TRUE(R.test(1, 4));
}

TEST(RelationTest, IdentityOn) {
  Bitset S(6);
  S.set(2);
  S.set(5);
  Relation R = Relation::identityOn(S);
  EXPECT_EQ(R.count(), 2u);
  EXPECT_TRUE(R.test(2, 2));
  EXPECT_TRUE(R.test(5, 5));
}

TEST(RelationTest, SeqComposition) {
  Relation A(4), B(4);
  A.set(0, 1);
  B.set(1, 2);
  B.set(1, 3);
  Relation C = A.seq(B);
  EXPECT_EQ(C.count(), 2u);
  EXPECT_TRUE(C.test(0, 2));
  EXPECT_TRUE(C.test(0, 3));
}

TEST(RelationTest, Inverse) {
  Relation A(3);
  A.set(0, 2);
  Relation Inv = A.inverse();
  EXPECT_TRUE(Inv.test(2, 0));
  EXPECT_EQ(Inv.count(), 1u);
}

TEST(RelationTest, TransitiveClosureChain) {
  Relation A(5);
  A.set(0, 1);
  A.set(1, 2);
  A.set(2, 3);
  Relation C = A.transitiveClosure();
  EXPECT_TRUE(C.test(0, 3));
  EXPECT_TRUE(C.test(1, 3));
  EXPECT_FALSE(C.test(3, 0));
  EXPECT_EQ(C.count(), 6u);
}

TEST(RelationTest, AcyclicityDetectsCycle) {
  Relation A(3);
  A.set(0, 1);
  A.set(1, 2);
  EXPECT_TRUE(A.isAcyclic());
  A.set(2, 0);
  EXPECT_FALSE(A.isAcyclic());
}

TEST(RelationTest, SelfLoopIsCyclic) {
  Relation A(2);
  A.set(1, 1);
  EXPECT_FALSE(A.isAcyclic());
  EXPECT_FALSE(A.isIrreflexive());
}

TEST(RelationTest, DomainRange) {
  Relation A(5);
  A.set(1, 3);
  A.set(1, 4);
  A.set(2, 3);
  EXPECT_EQ(A.domain().elements(), (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(A.range().elements(), (std::vector<unsigned>{3, 4}));
}

TEST(RelationTest, Restricted) {
  Relation A = Relation::full(4);
  Bitset D(4), R(4);
  D.set(0);
  R.set(1);
  R.set(2);
  Relation Out = A.restricted(D, R);
  EXPECT_EQ(Out.count(), 2u);
  EXPECT_TRUE(Out.test(0, 1));
}

TEST(RelationTest, OptionalAddsIdentity) {
  Relation A(3);
  A.set(0, 1);
  Relation O = A.optional();
  EXPECT_EQ(O.count(), 4u);
  EXPECT_TRUE(O.test(2, 2));
}

TEST(RelationTest, EmptyRelationIsAcyclic) {
  EXPECT_TRUE(Relation(6).isAcyclic());
  EXPECT_TRUE(Relation(0).isAcyclic());
}

namespace {

Relation randomRelation(std::mt19937_64 &Rng, unsigned N, double Density) {
  Relation R(N);
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (Dist(Rng) < Density)
        R.set(A, B);
  return R;
}

class RelationPropertyTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RelationPropertyTest, ClosureIsIdempotent) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 24, 0.08);
  Relation C = R.transitiveClosure();
  EXPECT_EQ(C, C.transitiveClosure());
}

TEST_P(RelationPropertyTest, ClosureContainsOriginal) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 24, 0.1);
  Relation C = R.transitiveClosure();
  EXPECT_EQ(C | R, C);
}

TEST_P(RelationPropertyTest, InverseOfSeq) {
  std::mt19937_64 Rng(GetParam());
  Relation A = randomRelation(Rng, 16, 0.2);
  Relation B = randomRelation(Rng, 16, 0.2);
  // (A;B)^-1 == B^-1 ; A^-1
  EXPECT_EQ(A.seq(B).inverse(), B.inverse().seq(A.inverse()));
}

TEST_P(RelationPropertyTest, DeMorganOnPairs) {
  std::mt19937_64 Rng(GetParam());
  Relation A = randomRelation(Rng, 16, 0.3);
  Relation B = randomRelation(Rng, 16, 0.3);
  // A - B == A & (full - B)
  EXPECT_EQ(A - B, A & (Relation::full(16) - B));
}

TEST_P(RelationPropertyTest, SubrelationOfAcyclicIsAcyclic) {
  std::mt19937_64 Rng(GetParam());
  // Build an acyclic relation (edges only increase), take a subrelation.
  Relation R(20);
  std::uniform_int_distribution<unsigned> Dist(0, 19);
  for (unsigned I = 0; I != 40; ++I) {
    unsigned A = Dist(Rng), B = Dist(Rng);
    if (A < B)
      R.set(A, B);
  }
  ASSERT_TRUE(R.isAcyclic());
  Relation Sub = R & randomRelation(Rng, 20, 0.5);
  EXPECT_TRUE(Sub.isAcyclic());
}

TEST_P(RelationPropertyTest, StarEqualsPlusUnionId) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 18, 0.1);
  EXPECT_EQ(R.reflexiveTransitiveClosure(),
            R.transitiveClosure() | Relation::identity(18));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Kernels: each in-place kernel against its definitional form.
//===----------------------------------------------------------------------===//

namespace {

/// Universe sizes the workloads build (up to 33 events), around the
/// one-word row boundary, and the empty one.
const unsigned KernelSizes[] = {0, 1, 2, 17, 31, 32, 33, 63, 64, 65, 130};

Bitset randomSet(std::mt19937_64 &Rng, unsigned N, double Density) {
  Bitset S(N);
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  for (unsigned I = 0; I != N; ++I)
    if (Dist(Rng) < Density)
      S.set(I);
  return S;
}

/// A relation with few pairs per row, like the relations Cat builds.
Relation sparseRelation(std::mt19937_64 &Rng, unsigned N) {
  return randomRelation(Rng, N, N ? 2.0 / N : 0.0);
}

/// What an in-place kernel must overwrite: another universe, full.
Relation dirtyRelation() { return Relation::full(9); }
Bitset dirtySet() { return Bitset::all(77); }

/// A random DAG: edges go up in a random order of the nodes.
Relation dagRelation(std::mt19937_64 &Rng, unsigned N) {
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I != N; ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  Relation R(N);
  std::uniform_int_distribution<unsigned> Node(0, N ? N - 1 : 0);
  for (unsigned I = 0; N && I != 3 * N; ++I) {
    unsigned A = Node(Rng), B = Node(Rng);
    if (A < B)
      R.set(Order[A], Order[B]);
  }
  return R;
}

/// The transitive closure by the textbook boolean-matrix Floyd-Warshall,
/// one pair at a time: a reference that shares no code with the kernels.
Relation naiveClosure(const Relation &R) {
  unsigned N = R.universeSize();
  std::vector<char> Buf(std::size_t(N) * N);
  char *M = Buf.data();
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      M[A * N + B] = R.test(A, B);
  for (unsigned K = 0; K != N; ++K)
    for (unsigned A = 0; A != N; ++A)
      if (M[A * N + K])
        for (unsigned B = 0; B != N; ++B)
          M[A * N + B] |= M[K * N + B];
  Relation Out(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (M[A * N + B])
        Out.set(A, B);
  return Out;
}

bool hasSelfPair(const Relation &R) {
  for (unsigned I = 0; I != R.universeSize(); ++I)
    if (R.test(I, I))
      return true;
  return false;
}

Relation naiveSeq(const Relation &L, const Relation &R) {
  unsigned N = L.universeSize();
  Relation Out(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      for (unsigned C = 0; C != N; ++C)
        if (L.test(A, B) && R.test(B, C))
          Out.set(A, C);
  return Out;
}

} // namespace

TEST(RelationKernelTest, FiltersEqualTheirIdentitySequences) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    for (unsigned N : KernelSizes) {
      std::mt19937_64 Rng(Seed * 1000 + N);
      Relation R = randomRelation(Rng, N, 0.3);
      Bitset S = randomSet(Rng, N, 0.5);
      Relation Rows = R;
      Rows.keepRows(S); // [S]; r
      EXPECT_EQ(Rows, Relation::identityOn(S).seq(R)) << "N=" << N;
      Relation Cols = R;
      Cols.keepColumns(S); // r; [S]
      EXPECT_EQ(Cols, R.seq(Relation::identityOn(S))) << "N=" << N;
    }
}

TEST(RelationKernelTest, ClosuresAndAcyclicityEqualNaiveFloydWarshall) {
  // Dense, sparse and DAG inputs. Half the DAGs get a few random edges
  // that may close a cycle, and a quarter a self-loop. 300 is past the
  // universes whose DFS state fits on the stack.
  std::vector<unsigned> Sizes(std::begin(KernelSizes), std::end(KernelSizes));
  Sizes.push_back(300);
  unsigned Cyclic = 0, Acyclic = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    for (unsigned N : Sizes)
      for (const std::string Shape : {"dense", "sparse", "dag"}) {
        if (N == 300 && Shape != "dag")
          continue; // the reference is cubic
        std::mt19937_64 Rng(Seed * 1000 + N);
        Relation R = Shape == "dense"    ? randomRelation(Rng, N, 0.3)
                     : Shape == "sparse" ? sparseRelation(Rng, N)
                                         : dagRelation(Rng, N);
        std::uniform_int_distribution<unsigned> Node(0, N ? N - 1 : 0);
        if (N && Shape == "dag" && Seed % 2)
          for (unsigned I = 0; I != 1 + Seed % 3; ++I)
            R.set(Node(Rng), Node(Rng));
        if (N && Shape == "dag" && Seed % 4 == 2) {
          unsigned Loop = Node(Rng);
          R.set(Loop, Loop);
        }
        std::string At = Shape + " seed " + std::to_string(Seed) + " N=" +
                         std::to_string(N);
        Relation Expected = naiveClosure(R);
        Relation Out = R;
        Out.closeTransitively();
        EXPECT_EQ(Out, Expected) << At;
        Out = R;
        Out.closeReflexiveTransitively();
        EXPECT_EQ(Out, Expected | Relation::identity(N)) << At;
        bool IsAcyclic = !hasSelfPair(Expected);
        EXPECT_EQ(R.isAcyclic(), IsAcyclic) << At;
        (IsAcyclic ? Acyclic : Cyclic) += 1;
      }
  EXPECT_GT(Cyclic, 100u);
  EXPECT_GT(Acyclic, 100u);
}

TEST(RelationKernelTest, InPlaceOpsEqualTheirValueTwins) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed)
    for (unsigned N : KernelSizes) {
      std::mt19937_64 Rng(Seed * 1000 + N);
      Relation A = sparseRelation(Rng, N), B = sparseRelation(Rng, N);
      Bitset S = randomSet(Rng, N, 0.5), T = randomSet(Rng, N, 0.5);
      std::string At = "seed " + std::to_string(Seed) + " N=" +
                       std::to_string(N);

      Relation Out = dirtyRelation();
      A.seqInto(B, Out);
      EXPECT_EQ(Out, A.seq(B)) << At;
      if (N <= 65) {
        EXPECT_EQ(Out, naiveSeq(A, B)) << At;
      }

      Out = dirtyRelation();
      A.inverseInto(Out);
      EXPECT_EQ(Out, A.inverse()) << At;
      Relation Naive(N);
      A.forEach([&](unsigned X, unsigned Y) { Naive.set(Y, X); });
      EXPECT_EQ(Out, Naive) << At;

      Out = A;
      Out.closeTransitively();
      EXPECT_EQ(Out, A.transitiveClosure()) << At;
      EXPECT_EQ(Out, naiveClosure(A)) << At;

      Out = A;
      Out.closeReflexiveTransitively();
      EXPECT_EQ(Out, A.reflexiveTransitiveClosure()) << At;
      EXPECT_EQ(Out, A.transitiveClosure() | Relation::identity(N)) << At;

      Out = A;
      Out.addIdentity();
      EXPECT_EQ(Out, A.optional()) << At;
      EXPECT_EQ(Out, A | Relation::identity(N)) << At;

      Out = dirtyRelation();
      Relation::crossInto(S, T, Out);
      EXPECT_EQ(Out, Relation::cross(S, T)) << At;
      EXPECT_EQ(Out.count(), S.count() * T.count()) << At;
      Out.forEach([&](unsigned X, unsigned Y) {
        EXPECT_TRUE(S.test(X) && T.test(Y)) << At;
      });

      Out = dirtyRelation();
      Relation::identityOnInto(S, Out);
      EXPECT_EQ(Out, Relation::identityOn(S)) << At;
      EXPECT_EQ(Out, Relation::identity(N) & Relation::cross(S, S)) << At;

      Out = dirtyRelation();
      Out.assignEmpty(N);
      EXPECT_EQ(Out, Relation(N)) << At;

      Bitset Dom = dirtySet(), Ran = dirtySet();
      A.domainInto(Dom);
      A.rangeInto(Ran);
      EXPECT_EQ(Dom, A.domain()) << At;
      EXPECT_EQ(Ran, A.range()) << At;
      Bitset NaiveDom(N), NaiveRan(N);
      A.forEach([&](unsigned X, unsigned Y) {
        NaiveDom.set(X);
        NaiveRan.set(Y);
      });
      EXPECT_EQ(Dom, NaiveDom) << At;
      EXPECT_EQ(Ran, NaiveRan) << At;

      Bitset Set = dirtySet();
      Set.assignEmpty(N);
      EXPECT_EQ(Set, Bitset(N)) << At;
      Set = dirtySet();
      Set.assignAll(N);
      Bitset All(N);
      for (unsigned I = 0; I != N; ++I)
        All.set(I);
      EXPECT_EQ(Set, All) << At;
      EXPECT_EQ(Bitset::all(N), All) << At;
    }
}

TEST(StringUtilsTest, Split) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("z"), "z");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strFormat("%s", std::string(300, 'a').c_str()),
            std::string(300, 'a'));
}

TEST(StringUtilsTest, ParseFlagTakesWholeNumbersInRangeOnly) {
  testing::internal::CaptureStderr();
  unsigned Jobs = 7;
  EXPECT_TRUE(parseFlag("-j", "4", Jobs));
  EXPECT_EQ(Jobs, 4u);
  EXPECT_TRUE(parseFlag("-j", "0x10", Jobs));
  EXPECT_EQ(Jobs, 16u);
  EXPECT_TRUE(parseFlag("-j", "4294967295", Jobs));
  EXPECT_EQ(Jobs, 4294967295u);
  for (const char *Bad : {"", "abc", "10x", "-1", "+1", " 1", "1 ", "0x",
                          ".5", "4294967296", "99999999999999999999"}) {
    Jobs = 7;
    EXPECT_FALSE(parseFlag("-j", Bad, Jobs)) << "'" << Bad << "'";
    EXPECT_EQ(Jobs, 7u) << "'" << Bad << "'";
  }
  uint16_t Port = 0;
  EXPECT_TRUE(parseFlag("--serve", "65535", Port));
  EXPECT_EQ(Port, 65535u);
  EXPECT_FALSE(parseFlag("--serve", "70000", Port));
  int StatusPort = -1;
  EXPECT_TRUE(parseFlag("--status-port", "0", StatusPort, 65535));
  EXPECT_EQ(StatusPort, 0);
  EXPECT_FALSE(parseFlag("--status-port", "65536", StatusPort, 65535));
  uint64_t Steps = 0;
  EXPECT_TRUE(parseFlag("--max-steps", "18446744073709551615", Steps));
  EXPECT_EQ(Steps, ~uint64_t(0));
  EXPECT_FALSE(parseFlag("--max-steps", "18446744073709551616", Steps));

  // Real-valued flags: finite and above zero.
  double Seconds = 1;
  EXPECT_TRUE(parseFlag("--lease-timeout", "0.25", Seconds));
  EXPECT_EQ(Seconds, 0.25);
  EXPECT_TRUE(parseFlag("--lease-timeout", "120", Seconds));
  EXPECT_EQ(Seconds, 120.0);
  for (const char *Bad :
       {"", "abc", "10x", "-1", "0", "0.0", "inf", "nan", "1e999", " 1"}) {
    Seconds = 1;
    EXPECT_FALSE(parseFlag("--lease-timeout", Bad, Seconds))
        << "'" << Bad << "'";
    EXPECT_EQ(Seconds, 1.0) << "'" << Bad << "'";
  }
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("error: -j expects a whole number from 0 to "
                     "4294967295, got '10x'\n"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("error: --serve expects a whole number from 0 to "
                     "65535, got '70000'\n"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("error: --lease-timeout expects a finite number "
                     "above 0, got 'nan'\n"),
            std::string::npos)
      << Err;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndex) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(257);
  for (auto &H : Hits)
    H = 0;
  Pool.parallelFor(Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  ThreadPool Pool(2);
  unsigned Calls = 0;
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  Pool.parallelFor(1, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitDrains) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ResolveJobsSemantics) {
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
  EXPECT_GE(resolveJobs(0), 1u); // hardware concurrency, at least one
}

TEST(InternerTest, SameContentsSameSymbol) {
  Symbol A = internSymbol("P0:r0");
  Symbol B = internSymbol(std::string("P0:") + "r0");
  EXPECT_EQ(A, B); // Pointer equality: one slot per distinct contents.
  EXPECT_EQ(A.str(), "P0:r0");
  EXPECT_NE(A, internSymbol("P0:r1"));
}

TEST(InternerTest, DefaultSymbolIsEmptyString) {
  Symbol S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S, internSymbol(""));
  EXPECT_EQ(S.str(), "");
}

TEST(InternerTest, OrderingFollowsContentsNotInsertionOrder) {
  // Interning in reverse alphabetical order must not affect ordering:
  // sorted symbol containers have to iterate identically in every
  // process, whatever each one interned first.
  Symbol Z = internSymbol("intern-z");
  Symbol M = internSymbol("intern-m");
  Symbol A = internSymbol("intern-a");
  EXPECT_TRUE(A < M);
  EXPECT_TRUE(M < Z);
  EXPECT_FALSE(Z < A);
  EXPECT_FALSE(A < A);
  std::set<Symbol> Sorted{Z, M, A};
  auto It = Sorted.begin();
  EXPECT_EQ((It++)->str(), "intern-a");
  EXPECT_EQ((It++)->str(), "intern-m");
  EXPECT_EQ((It++)->str(), "intern-z");
}

TEST(InternerTest, ConcurrentInterningAgrees) {
  // 4 threads intern overlapping vocabularies; every thread must get
  // the same symbol for the same string (and TSan must stay quiet).
  constexpr unsigned Threads = 4, Strings = 64;
  std::vector<std::vector<Symbol>> Got(Threads,
                                       std::vector<Symbol>(Strings));
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([T, &Got] {
      for (unsigned I = 0; I != Strings; ++I)
        Got[T][I] = internSymbol("conc-" + std::to_string(I));
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 1; T != Threads; ++T)
    for (unsigned I = 0; I != Strings; ++I)
      EXPECT_EQ(Got[0][I], Got[T][I]) << I;
}
