//===--- Cycle.cpp - diy relaxation cycles --------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generation walks the cycle once: external edges split threads,
/// same-location constraints are solved by union-find, coherence orders
/// follow the Coe edges, and the exists-clause pins every Rfe/Fre read
/// plus the co-last write of every contended location -- together they
/// witness exactly the cycle, like diy's "dabc" construction (Fig. 2).
///
//===----------------------------------------------------------------------===//

#include "diy/Cycle.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace telechat;

namespace {

bool isExternal(CycleEdge::Kind K) {
  return K == CycleEdge::Kind::Rfe || K == CycleEdge::Kind::Fre ||
         K == CycleEdge::Kind::Coe;
}

/// Endpoint kinds an edge demands.
void edgeEndpoints(const CycleEdge &E, EventKind &From, EventKind &To) {
  switch (E.K) {
  case CycleEdge::Kind::Rfe:
    From = EventKind::Write;
    To = EventKind::Read;
    return;
  case CycleEdge::Kind::Fre:
    From = EventKind::Read;
    To = EventKind::Write;
    return;
  case CycleEdge::Kind::Coe:
    From = EventKind::Write;
    To = EventKind::Write;
    return;
  case CycleEdge::Kind::Data:
  case CycleEdge::Kind::Ctrl:
    From = EventKind::Read;
    To = EventKind::Write;
    return;
  case CycleEdge::Kind::Po:
  case CycleEdge::Kind::Fenced:
    From = E.From;
    To = E.To;
    return;
  }
}

struct UnionFind {
  std::vector<unsigned> Parent;
  UnionFind(unsigned N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  unsigned find(unsigned X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  }
  void unite(unsigned A, unsigned B) { Parent[find(A)] = find(B); }
};

} // namespace

ErrorOr<std::vector<CycleEdge>> telechat::parseCycle(const std::string &Text) {
  std::vector<CycleEdge> Out;
  for (const std::string &RawTok : splitString(Text, ' ')) {
    std::string Tok(trim(RawTok));
    if (Tok.empty())
      continue;
    CycleEdge E;
    if (Tok == "Rfe") {
      E.K = CycleEdge::Kind::Rfe;
    } else if (Tok == "Fre") {
      E.K = CycleEdge::Kind::Fre;
    } else if (Tok == "Coe") {
      E.K = CycleEdge::Kind::Coe;
    } else if (Tok == "DpdW") {
      E.K = CycleEdge::Kind::Data;
    } else if (Tok == "CtrldW") {
      E.K = CycleEdge::Kind::Ctrl;
    } else if (Tok.rfind("Po", 0) == 0 && Tok.size() == 5) {
      E.K = CycleEdge::Kind::Po;
      E.SameLoc = Tok[2] == 's';
      if (Tok[2] != 's' && Tok[2] != 'd')
        return makeError("bad cycle edge '" + Tok + "'");
      E.From = Tok[3] == 'R' ? EventKind::Read : EventKind::Write;
      E.To = Tok[4] == 'R' ? EventKind::Read : EventKind::Write;
    } else if (Tok.rfind("Fenced", 0) == 0 && Tok.size() >= 8) {
      // FencedWW / FencedRR.rel / ...
      E.K = CycleEdge::Kind::Fenced;
      E.From = Tok[6] == 'R' ? EventKind::Read : EventKind::Write;
      E.To = Tok[7] == 'R' ? EventKind::Read : EventKind::Write;
      E.FenceOrder = MemOrder::SeqCst;
      if (size_t Dot = Tok.find('.'); Dot != std::string::npos) {
        std::string O = Tok.substr(Dot + 1);
        if (O == "rlx")
          E.FenceOrder = MemOrder::Relaxed;
        else if (O == "acq")
          E.FenceOrder = MemOrder::Acquire;
        else if (O == "rel")
          E.FenceOrder = MemOrder::Release;
        else if (O == "sc")
          E.FenceOrder = MemOrder::SeqCst;
        else
          return makeError("bad fence order in '" + Tok + "'");
      }
    } else {
      return makeError("bad cycle edge '" + Tok + "'");
    }
    Out.push_back(E);
  }
  if (Out.empty())
    return makeError("empty cycle");
  return Out;
}

ErrorOr<LitmusTest> telechat::generateFromCycle(const CycleSpec &Spec) {
  const std::vector<CycleEdge> &Edges = Spec.Edges;
  unsigned N = Edges.size();
  if (N < 2)
    return makeError("cycle needs at least two edges");

  // Event kinds; edge i connects ev_i -> ev_{i+1 mod N}. Consistency:
  // edge i's To kind is edge i+1's From kind.
  std::vector<EventKind> Kind(N);
  for (unsigned I = 0; I != N; ++I) {
    EventKind From = EventKind::Read, To = EventKind::Read;
    edgeEndpoints(Edges[I], From, To);
    Kind[I] = From;
    EventKind NextFrom = EventKind::Read, NextTo = EventKind::Read;
    edgeEndpoints(Edges[(I + 1) % N], NextFrom, NextTo);
    if (To != NextFrom)
      return makeError(strFormat(
          "cycle edge %u's target kind does not chain into edge %u", I,
          (I + 1) % N));
  }

  // Threads split at external edges.
  unsigned FirstExternal = N;
  for (unsigned I = 0; I != N; ++I)
    if (isExternal(Edges[I].K)) {
      FirstExternal = I;
      break;
    }
  if (FirstExternal == N)
    return makeError("cycle has no external edge: not a concurrent test");

  // Locations by union-find: external and same-loc internal edges unify.
  UnionFind Loc(N);
  for (unsigned I = 0; I != N; ++I) {
    bool Same = isExternal(Edges[I].K) ||
                ((Edges[I].K == CycleEdge::Kind::Po ||
                  Edges[I].K == CycleEdge::Kind::Fenced) &&
                 Edges[I].SameLoc);
    if (Same)
      Loc.unite(I, (I + 1) % N);
  }
  for (unsigned I = 0; I != N; ++I) {
    bool WantDifferent =
        Edges[I].K == CycleEdge::Kind::Data ||
        Edges[I].K == CycleEdge::Kind::Ctrl ||
        ((Edges[I].K == CycleEdge::Kind::Po ||
          Edges[I].K == CycleEdge::Kind::Fenced) &&
         !Edges[I].SameLoc);
    if (WantDifferent && Loc.find(I) == Loc.find((I + 1) % N))
      return makeError(
          "cycle forces one location across a different-location edge");
  }

  // Name locations in order of first appearance along the walk.
  static const char *LocNames[] = {"x", "y", "z", "w", "a", "b", "c", "d"};
  std::map<unsigned, std::string> LocName;
  auto LocOf = [&](unsigned Ev) -> ErrorOr<std::string> {
    unsigned Root = Loc.find(Ev);
    auto It = LocName.find(Root);
    if (It != LocName.end())
      return It->second;
    if (LocName.size() >= 8)
      return makeError("cycle uses too many locations");
    std::string Name = LocNames[LocName.size()];
    LocName[Root] = Name;
    return Name;
  };

  // Walk order starting after the first external edge.
  std::vector<unsigned> Walk(N);
  for (unsigned I = 0; I != N; ++I)
    Walk[I] = (FirstExternal + 1 + I) % N;

  // Values: writes to each location numbered by walk order.
  std::map<unsigned, unsigned> WriteValue; // event -> value
  std::map<std::string, std::vector<unsigned>> WritesOf;
  for (unsigned Ev : Walk) {
    if (Kind[Ev] != EventKind::Write)
      continue;
    ErrorOr<std::string> L = LocOf(Ev);
    if (!L)
      return makeError(L.error());
    WritesOf[*L].push_back(Ev);
    WriteValue[Ev] = WritesOf[*L].size();
  }
  // Coherence: walk order, flipped by Coe edges for two-write locations.
  std::map<std::string, std::vector<unsigned>> CoOrder = WritesOf;
  for (unsigned I = 0; I != N; ++I) {
    if (Edges[I].K != CycleEdge::Kind::Coe)
      continue;
    unsigned A = I, B = (I + 1) % N;
    ErrorOr<std::string> L = LocOf(A);
    if (!L)
      return makeError(L.error());
    std::vector<unsigned> &Chain = CoOrder[*L];
    if (Chain.size() != 2)
      return makeError("Coe edges support exactly two writes per location");
    // A must precede B in co.
    if (Chain[0] == B && Chain[1] == A)
      std::swap(Chain[0], Chain[1]);
  }

  // Build threads.
  LitmusTest Test;
  Test.Name = Spec.Name.empty() ? "cycle" : Spec.Name;
  std::vector<Predicate> Atoms;
  Thread *Cur = nullptr;
  unsigned RegCounter = 0;
  std::map<unsigned, std::string> ReadReg; // event -> register name
  for (unsigned Step = 0; Step != N; ++Step) {
    unsigned Ev = Walk[Step];
    unsigned PrevEdge = (Ev + N - 1) % N;
    if (Step == 0 || isExternal(Edges[PrevEdge].K)) {
      Test.Threads.emplace_back();
      Cur = &Test.Threads.back();
      Cur->Name = "P" + std::to_string(Test.Threads.size() - 1);
      RegCounter = 0;
    } else if (Edges[PrevEdge].K == CycleEdge::Kind::Fenced) {
      Cur->Body.push_back(Stmt::fence(Edges[PrevEdge].FenceOrder));
    }
    ErrorOr<std::string> L = LocOf(Ev);
    if (!L)
      return makeError(L.error());
    if (Kind[Ev] == EventKind::Read) {
      std::string Reg = "r" + std::to_string(RegCounter++);
      ReadReg[Ev] = Reg;
      Cur->Body.push_back(Stmt::load(Reg, *L, Spec.LoadOrder));
      continue;
    }
    Expr Val = Expr::imm(Value(WriteValue[Ev]));
    // Dependency edges use the register of the source read.
    if (Edges[PrevEdge].K == CycleEdge::Kind::Data) {
      const std::string &R = ReadReg[PrevEdge];
      Val = Expr::binary(Expr::Kind::Add, std::move(Val),
                         Expr::binary(Expr::Kind::Xor, Expr::reg(R),
                                      Expr::reg(R)));
    }
    Stmt Store = Stmt::store(*L, std::move(Val), Spec.StoreOrder);
    if (Edges[PrevEdge].K == CycleEdge::Kind::Ctrl) {
      const std::string &R = ReadReg[PrevEdge];
      std::vector<Stmt> ThenArm{Store};
      std::vector<Stmt> ElseArm{Store};
      Cur->Body.push_back(Stmt::ifNonZero(Expr::reg(R), std::move(ThenArm),
                                          std::move(ElseArm)));
      continue;
    }
    Cur->Body.push_back(std::move(Store));
  }

  // Locations.
  for (const auto &[Root, Name] : LocName) {
    LocDecl L;
    L.Name = Name;
    L.Type = Spec.Type;
    L.Atomic = Spec.LoadOrder != MemOrder::NA ||
               Spec.StoreOrder != MemOrder::NA;
    Test.Locations.push_back(L);
  }
  std::sort(Test.Locations.begin(), Test.Locations.end(),
            [](const LocDecl &A, const LocDecl &B) { return A.Name < B.Name; });

  // Witness atoms. Reads first: Rfe reads its source's value; Fre reads
  // the co-predecessor of its target write.
  auto ThreadOf = [&](unsigned Ev) -> std::string {
    // Recompute: walk position -> thread index.
    unsigned ThreadIdx = 0;
    for (unsigned Step = 0; Step != N; ++Step) {
      unsigned E = Walk[Step];
      unsigned PrevEdge = (E + N - 1) % N;
      if (Step != 0 && isExternal(Edges[PrevEdge].K))
        ++ThreadIdx;
      if (E == Ev)
        return "P" + std::to_string(ThreadIdx);
    }
    return "P0";
  };
  for (unsigned I = 0; I != N; ++I) {
    unsigned From = I, To = (I + 1) % N;
    if (Edges[I].K == CycleEdge::Kind::Rfe) {
      Atoms.push_back(Predicate::regEq(ThreadOf(To), ReadReg[To],
                                       Value(WriteValue[From])));
    } else if (Edges[I].K == CycleEdge::Kind::Fre) {
      ErrorOr<std::string> L = LocOf(From);
      if (!L)
        return makeError(L.error());
      const std::vector<unsigned> &Chain = CoOrder[*L];
      unsigned PredValue = 0;
      for (unsigned CI = 0; CI != Chain.size(); ++CI)
        if (Chain[CI] == To)
          PredValue = CI == 0 ? 0 : WriteValue[Chain[CI - 1]];
      Atoms.push_back(Predicate::regEq(ThreadOf(From), ReadReg[From],
                                       Value(PredValue)));
    }
  }
  // Contended locations: pin the co-last write.
  for (const auto &[LName, Chain] : CoOrder)
    if (Chain.size() > 1)
      Atoms.push_back(
          Predicate::locEq(LName, Value(WriteValue[Chain.back()])));

  Test.Final.Q = FinalCond::Quant::Exists;
  Test.Final.P = Predicate::conj(std::move(Atoms));
  if (std::string E = Test.validate(); !E.empty())
    return makeError("generated test is invalid: " + E);
  return Test;
}
