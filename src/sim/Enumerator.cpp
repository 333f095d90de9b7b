//===--- Enumerator.cpp - Candidate-execution enumeration -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumeration proceeds in four nested stages:
///   1. control-flow path combinations across threads,
///   2. reads-from assignments (per-read candidate writes; accesses with
///      *dynamic* addresses cannot be location-filtered, which is the
///      paper's §IV-E state explosion),
///   3. concrete value resolution by bounded fixpoint iteration, rejecting
///      assignments that are value-, address- or branch-inconsistent,
///   4. per-location coherence orders, then Cat-model filtering.
///
/// The candidate space is embarrassingly parallel: stage 1 and 2 form a
/// mixed-radix index space (path combo x rf assignment) that is cut into
/// contiguous *shards* and consumed by a work-stealing scheduler
/// (ShardScheduler.h). Workers keep private stats/outcome/flag state and
/// draw enumeration steps from one shared atomic budget; the merge step
/// reassembles per-shard results in enumeration order, so completed runs
/// are bit-identical for any SimOptions::Jobs value.
///
/// Two per-combo precomputations cut the per-candidate cost (see
/// Enumerator.h for the user-facing contracts):
///
///  - An *abstract value pass* (sim/AbsDomain.h) runs each chosen path
///    once over the single-source symbolic-transform domain: a value is
///    a known constant, a bounded transform f applied to one read
///    event's value (covering copies, affine arithmetic, bitwise ops,
///    truncations and 128-bit half slices), or Top. Branch constraints
///    whose inputs are all tracked become prune checks: candidate
///    writes with known values violating them are dropped from the rf
///    lists up front, and remaining assignments are checked in
///    O(events) (following rf chains through copy and transform writes)
///    before the expensive resolution fixpoint runs.
///
///  - The *skeleton execution* (events, po, rmw, tags) is built once
///    per combo and copied per candidate, and the Cat model's stable
///    layer is evaluated once per combo by CatEvaluator. When several
///    workers split one combo's rf space, the first computed layer is
///    published through the run's shared state and adopted by the rest.
///
/// The per-combo machinery (ComboWorker and friends) lives in
/// sim/EnumCore.h so the solve (src/solve/) and explore (src/explore/)
/// engines reuse it with a different per-combo search; this file
/// defines the methods plus the one run driver, runEngine.
///
//===----------------------------------------------------------------------===//

#include "sim/EnumCore.h"

#include "sim/ShardScheduler.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace telechat;
using namespace telechat::simcore;

ComboWorker::ComboWorker(const SimProgram &Program, const CatModel &Model,
                         const SimOptions &Options, SharedState &Shared)
    : Prog(Program), Model(Model), Opts(Options), Shared(Shared),
      Eval(Model) {
  Eval.setCaching(Opts.IncrementalCatEval);
  // Synthetic numeric addresses for locations (0x1000 apart, mirroring
  // an ELF data section layout).
  for (unsigned I = 0; I != Prog.Locations.size(); ++I)
    LocAddr[Prog.Locations[I].Name] = Value(0x1000 * (uint64_t(I) + 1));
  // Outcome keys are fixed per program: intern them once so the
  // per-allowed-execution outcome build does no hashing.
  for (const SimThread &T : Prog.Threads)
    for (const auto &[Reg, Key] : T.Observed)
      ObservedRegSym.push_back(internSymbol(Key));
  for (const std::string &Loc : Prog.ObservedLocs)
    ObservedLocSym.push_back(internSymbol(Outcome::locKey(Loc)));
}

void ComboWorker::processShard(const Shard &S) {
  if (shouldStop())
    return;
  CurShardIdx = S.Index;
  if (S.Combo != CurCombo) {
    prepareCombo(S.Combo);
    CurCombo = S.Combo;
    bindComboEvaluator(S.Combo);
  }
  // The shard at the origin of the combo's rf space owns the
  // PathCombos count (exactly one such shard exists per combo), and
  // with it the combo's space-reduction accounting.
  if (S.RfLo == 0) {
    ++WR.Stats.PathCombos;
    WR.Stats.RfSourcesPruned += ComboRfSourcesPruned;
  }
  uint64_t Hi = std::min(RfSpace, S.RfHi);
  if (S.RfLo < Hi)
    searchCombo(S.RfLo, Hi);
  publishLayer();
}

uint64_t ComboWorker::prepareCombo(uint64_t Combo) {
  std::vector<size_t> PathChoice(Prog.Threads.size(), 0);
  for (size_t T = 0; T != PathChoice.size(); ++T) {
    size_t N = Prog.Threads[T].Paths.size();
    PathChoice[T] = size_t(Combo % N);
    Combo /= N;
  }

  // --- Build the event skeleton. ---
  Events.clear();
  OpEvents.clear();
  Paths.clear();
  for (const SimLoc &L : Prog.Locations) {
    EvInfo Init;
    Init.Kind = EventKind::Write;
    Init.IsInit = true;
    Init.InitLoc = L.Name;
    Events.push_back(Init);
  }
  ResolvedStorage.clear();
  ResolvedStorage.reserve(Prog.Threads.size());
  for (unsigned T = 0; T != Prog.Threads.size(); ++T) {
    ResolvedStorage.push_back(
        resolveStaticAddresses(Prog.Threads[T].Paths[PathChoice[T]]));
  }
  for (unsigned T = 0; T != Prog.Threads.size(); ++T) {
    const SimPath &Path = ResolvedStorage[T];
    Paths.push_back(&Path);
    std::vector<std::pair<unsigned, unsigned>> PathEvents;
    for (unsigned I = 0; I != Path.Ops.size(); ++I) {
      const SimOp &Op = Path.Ops[I];
      auto AddEvent = [&](EventKind K) {
        EvInfo E;
        E.Thread = T;
        E.OpIndex = I;
        E.Kind = K;
        E.Op = &Op;
        Events.push_back(E);
        return unsigned(Events.size() - 1);
      };
      switch (Op.K) {
      case SimOp::Kind::Load:
        PathEvents.emplace_back(I, AddEvent(EventKind::Read));
        break;
      case SimOp::Kind::Store:
        PathEvents.emplace_back(I, AddEvent(EventKind::Write));
        break;
      case SimOp::Kind::Rmw:
        PathEvents.emplace_back(I, AddEvent(EventKind::Read));
        PathEvents.emplace_back(I, AddEvent(EventKind::Write));
        break;
      case SimOp::Kind::Fence:
        PathEvents.emplace_back(I, AddEvent(EventKind::Fence));
        break;
      case SimOp::Kind::Assign:
      case SimOp::Kind::AddrOf:
      case SimOp::Kind::Constraint:
        break;
      }
    }
    OpEvents.push_back(std::move(PathEvents));
  }
  unsigned N = Events.size();

  // Reads and writes of this skeleton.
  Reads.clear();
  Writes.clear();
  ReadIndexOf.assign(N, ~0u);
  AllStaticCombo = true;
  for (unsigned I = 0; I != N; ++I) {
    if (Events[I].Kind == EventKind::Read) {
      ReadIndexOf[I] = unsigned(Reads.size());
      Reads.push_back(I);
    } else if (Events[I].Kind == EventKind::Write) {
      Writes.push_back(I);
    }
    if (!Events[I].IsInit && Events[I].Kind != EventKind::Fence &&
        !Events[I].Op->Addr.isStatic())
      AllStaticCombo = false;
  }

  // --- rf candidates per read. ---
  // Static-address reads take writes that are statically same-location
  // (plus all dynamic-address writes); dynamic-address reads must
  // consider every write. This asymmetry is the whole scalability
  // story: optimised tests are all-static.
  RfCand.assign(Reads.size(), {});
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    const EvInfo &R = Events[Reads[RI]];
    const SimAddr &RA = R.Op->Addr;
    std::string RLoc =
        RA.isStatic() ? SimAddr::locName(RA.Sym, RA.Off) : "";
    for (unsigned W : Writes) {
      const EvInfo &WE = Events[W];
      if (WE.IsInit) {
        if (RLoc.empty() || RLoc == WE.InitLoc)
          RfCand[RI].push_back(W);
        continue;
      }
      const SimAddr &WA = WE.Op->Addr;
      if (!RLoc.empty() && WA.isStatic() &&
          RLoc != SimAddr::locName(WA.Sym, WA.Off))
        continue;
      RfCand[RI].push_back(W);
    }
  }

  ComboRfSourcesPruned = 0;
  if (Opts.RfValuePruning) {
    computeAbstract();
    if (!ComboInfeasible)
      filterRfCandidates();
  } else {
    PruneChecks.clear();
    ComboInfeasible = false;
  }
  buildSkeletonExecution();

  RfSpace = 1;
  for (const std::vector<unsigned> &C : RfCand)
    RfSpace = satMul(RfSpace, C.size());
  // A combo whose constant-only constraints already contradict the
  // chosen branch directions has no value-consistent assignment at
  // all: collapse its space instead of enumerating provably dead
  // work one budget step at a time (the combo still owns a shard so
  // PathCombos counts it).
  if (ComboInfeasible)
    RfSpace = 0;

  return RfSpace;
}

bool ComboWorker::budget() {
  if (!Shared.take()) {
    LocalStop = true;
    return false;
  }
  if (Shared.TimeoutSeconds > 0 && (++LocalSteps & 1023) == 0) {
    auto Now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(Now - Shared.Start).count() >
        Shared.TimeoutSeconds) {
      Shared.TimedOut.store(true, std::memory_order_relaxed);
      LocalStop = true;
      return false;
    }
  }
  return true;
}

void ComboWorker::bindComboEvaluator(uint64_t Combo) {
  if (!Opts.IncrementalCatEval)
    return;
  std::shared_ptr<const CatStableLayer> Cached;
  if (Shared.ShareLayerCache) {
    std::lock_guard<std::mutex> Lock(Shared.LayerM);
    auto It = Shared.Layers.find(Combo);
    if (It != Shared.Layers.end())
      Cached = It->second;
  }
  LayerPublished = Cached != nullptr;
  Eval.enterCombo(AllStaticCombo, std::move(Cached));
}

void ComboWorker::publishLayer() {
  if (!Opts.IncrementalCatEval || !Shared.ShareLayerCache || LayerPublished)
    return;
  std::shared_ptr<const CatStableLayer> Layer = Eval.stableLayer();
  if (!Layer)
    return;
  std::lock_guard<std::mutex> Lock(Shared.LayerM);
  Shared.Layers.emplace(CurCombo, std::move(Layer));
  LayerPublished = true;
}

void ComboWorker::searchCombo(uint64_t Lo, uint64_t Hi) {
  RfChoice.assign(Reads.size(), 0);
  uint64_t Tmp = Lo;
  for (size_t I = 0; I != RfChoice.size() && Tmp != 0; ++I) {
    RfChoice[I] = size_t(Tmp % RfCand[I].size());
    Tmp /= RfCand[I].size();
  }
  bool TryPrune =
      Opts.RfValuePruning && (ComboInfeasible || !PruneChecks.empty());
  for (uint64_t Count = Hi - Lo; Count != 0; --Count) {
    if (!budget())
      return;
    if (TryPrune && prunedByConstraints()) {
      ++WR.Stats.RfCandidates;
      ++WR.Stats.RfPruned;
    } else {
      runAssignment();
      if (shouldStop())
        return;
    }
    size_t I = 0;
    for (; I != RfChoice.size(); ++I) {
      if (++RfChoice[I] < RfCand[I].size())
        break;
      RfChoice[I] = 0;
    }
    if (I == RfChoice.size())
      return; // Wrapped: the whole space is exhausted.
  }
}

void ComboWorker::runAssignment() {
  ++WR.Stats.RfCandidates;
  if (resolveValues(RfChoice)) {
    ++WR.Stats.ValueConsistent;
    buildCandidateExecution();
    enumerateCo();
  }
}

/// Abstract address resolution: registers holding *statically known*
/// address constants (AddrOf, copies, constant offsets) turn their
/// accesses into static ones, which the rf-candidate filter can then
/// restrict by location. Addresses that flow through memory (GOT /
/// literal-pool loads in unoptimised compiled tests) stay dynamic --
/// the paper's §IV-E state explosion. This mirrors herd: symbolic
/// init-state addresses are constants, loaded values are not.
SimPath ComboWorker::resolveStaticAddresses(const SimPath &In) const {
  SimPath Out = In;
  std::map<std::string, std::pair<std::string, int64_t>> Known;
  auto EvalAddr =
      [&](const Expr &E) -> std::optional<std::pair<std::string, int64_t>> {
    if (E.K == Expr::Kind::Reg) {
      auto It = Known.find(E.RegName);
      if (It != Known.end())
        return It->second;
      return std::nullopt;
    }
    if (E.K == Expr::Kind::Add) {
      const Expr &L = E.Ops[0], &R = E.Ops[1];
      if (L.K == Expr::Kind::Reg && R.K == Expr::Kind::Imm) {
        auto It = Known.find(L.RegName);
        if (It != Known.end())
          return std::make_pair(It->second.first,
                                It->second.second +
                                    int64_t(R.Imm.Lo));
      }
    }
    return std::nullopt;
  };
  for (SimOp &Op : Out.Ops) {
    auto TryStatic = [&]() {
      if (Op.Addr.isStatic())
        return;
      auto It = Known.find(Op.Addr.Reg);
      if (It == Known.end())
        return;
      int64_t Off = Op.Addr.Off + It->second.second;
      Op.Addr = SimAddr::staticSym(It->second.first);
      Op.Addr.Off = Off;
    };
    switch (Op.K) {
    case SimOp::Kind::AddrOf:
      Known[Op.Dst] = {Op.Sym, 0};
      break;
    case SimOp::Kind::Assign:
      if (auto A = EvalAddr(Op.Val))
        Known[Op.Dst] = *A;
      else
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Load:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      if (!Op.Dst2.empty())
        Known.erase(Op.Dst2);
      break;
    case SimOp::Kind::Rmw:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Store:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Fence:
    case SimOp::Kind::Constraint:
      break;
    }
  }
  return Out;
}

/// The value-resolution width rule: values stored to / loaded from a
/// location truncate to its declared type. Shared verbatim (via
/// truncAtLoc) by the fixpoint sweep and the abstract machinery so
/// both see identical values.
SimVal ComboWorker::truncAt(const std::string &Loc, SimVal V) const {
  return truncAtLoc(Prog, Loc, std::move(V));
}

/// Runs the abstract value pass (sim/AbsDomain.h) over the prepared
/// combo, recording per write event what it stores (EvAbs) and which
/// path constraints are checkable without the fixpoint (PruneChecks /
/// ComboInfeasible). The pass itself lives in AbsInterpreter; this
/// wrapper flattens the per-combo skeleton into its input form.
void ComboWorker::computeAbstract() {
  // Flattening scratch lives on the worker: prepareCombo runs once
  // per path combo, so reuse capacity instead of reallocating.
  InitWrites.clear();
  for (unsigned I = 0; I != Events.size(); ++I)
    if (Events[I].IsInit)
      InitWrites.emplace_back(I, Events[I].InitLoc);
  ThreadOps.resize(Paths.size());
  for (unsigned T = 0; T != Paths.size(); ++T) {
    auto EvIt = OpEvents[T].begin();
    const auto EvEnd = OpEvents[T].end();
    ThreadOps[T].clear();
    ThreadOps[T].reserve(Paths[T]->Ops.size());
    for (unsigned I = 0; I != Paths[T]->Ops.size(); ++I) {
      AbsThreadOp TO;
      TO.Op = &Paths[T]->Ops[I];
      while (EvIt != EvEnd && EvIt->first == I) {
        (TO.Ev0 == ~0u ? TO.Ev0 : TO.Ev1) = EvIt->second;
        ++EvIt;
      }
      ThreadOps[T].push_back(TO);
    }
  }
  AbsInterpreter Interp(Prog, LocAddr);
  Interp.run(unsigned(Events.size()), InitWrites, ThreadOps);
  EvAbs = Interp.takeEvAbs();
  PruneChecks = Interp.takeChecks();
  ComboInfeasible = Interp.infeasible();
}

/// Drops candidate writes that can never satisfy a single-read
/// constraint: if a check's only symbolic input is read R and write W
/// stores a known value violating it, no execution pairs R with W.
/// Each dropped pair divides the rf index space.
void ComboWorker::filterRfCandidates() {
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    unsigned ReadEv = Reads[RI];
    const EvInfo &R = Events[ReadEv];
    if (!R.Op->Addr.isStatic())
      continue; // Unknown width: values are not comparable yet.
    std::string RLoc = staticLocOf(*R.Op);
    std::vector<const PruneCheck *> Relevant;
    for (const PruneCheck &PC : PruneChecks) {
      bool Mine = false, OthersKnown = true;
      for (const auto &[Reg, A] : PC.Regs) {
        if (A.K == AbsVal::Kind::Known)
          continue;
        if (A.ReadEv == ReadEv)
          Mine = true;
        else
          OthersKnown = false;
      }
      if (Mine && OthersKnown)
        Relevant.push_back(&PC);
    }
    if (Relevant.empty())
      continue;
    std::vector<unsigned> Kept;
    for (unsigned W : RfCand[RI]) {
      if (EvAbs[W].K != AbsVal::Kind::Known) {
        Kept.push_back(W);
        continue;
      }
      SimVal RV = truncAt(RLoc, EvAbs[W].V);
      auto Violates = [&](const PruneCheck *PC) {
        std::map<std::string, SimVal> Regs;
        for (const auto &[Reg, A] : PC->Regs)
          Regs[Reg] = A.K == AbsVal::Kind::Known ? A.V : A.apply(RV);
        SimVal C = evalSimExpr(*PC->E, Regs);
        bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
        return NonZero != PC->ExpectNonZero;
      };
      if (std::any_of(Relevant.begin(), Relevant.end(), Violates))
        ++ComboRfSourcesPruned;
      else
        Kept.push_back(W);
    }
    RfCand[RI] = std::move(Kept);
  }
}

std::optional<SimVal>
ComboWorker::resolveReadAbs(unsigned ReadEv, unsigned Depth,
                            SupportVec *Support) const {
  if (Depth > Reads.size())
    return std::nullopt; // rf copy cycle: the fixpoint must decide.
  const EvInfo &R = Events[ReadEv];
  if (!R.Op->Addr.isStatic())
    return std::nullopt;
  unsigned RI = ReadIndexOf[ReadEv];
  size_t Choice = RfChoice[RI];
  if (Choice == kNoChoice)
    return std::nullopt; // Partial assignment (solve backend).
  unsigned W = RfCand[RI][Choice];
  std::optional<SimVal> V = resolveWriteAbs(W, Depth, Support);
  if (!V)
    return std::nullopt;
  if (Support)
    Support->emplace_back(RI, unsigned(Choice));
  return truncAt(staticLocOf(*R.Op), std::move(*V));
}

std::optional<SimVal>
ComboWorker::resolveWriteAbs(unsigned W, unsigned Depth,
                             SupportVec *Support) const {
  const AbsVal &A = EvAbs[W];
  if (A.K == AbsVal::Kind::Known)
    return A.V; // Pre-truncated at the store site (init: exact).
  if (A.K == AbsVal::Kind::Top)
    return std::nullopt;
  std::optional<SimVal> V = resolveReadAbs(A.ReadEv, Depth + 1, Support);
  if (!V)
    return std::nullopt;
  // The transform bakes in the store-site width rule (Xform
  // abstractions only survive for static destinations), so applying
  // it yields exactly the value the sweep would write.
  return A.apply(*V);
}

bool ComboWorker::violatedCheck(SupportVec *Support) const {
  if (ComboInfeasible) {
    if (Support)
      Support->clear(); // Constant violation: empty support.
    return true;
  }
  SupportVec Scratch;
  for (const PruneCheck &PC : PruneChecks) {
    std::map<std::string, SimVal> Regs;
    bool Resolvable = true;
    Scratch.clear();
    for (const auto &[Reg, A] : PC.Regs) {
      if (A.K == AbsVal::Kind::Known) {
        Regs[Reg] = A.V;
        continue;
      }
      std::optional<SimVal> V =
          resolveReadAbs(A.ReadEv, 0, Support ? &Scratch : nullptr);
      if (!V) {
        Resolvable = false;
        break;
      }
      Regs[Reg] = A.apply(*V);
    }
    if (!Resolvable)
      continue;
    SimVal C = evalSimExpr(*PC.E, Regs);
    bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
    if (NonZero != PC.ExpectNonZero) {
      if (Support) {
        // Several registers may resolve through the same read: dedup so
        // the learned nogood has distinct literals.
        std::sort(Scratch.begin(), Scratch.end());
        Scratch.erase(std::unique(Scratch.begin(), Scratch.end()),
                      Scratch.end());
        *Support = std::move(Scratch);
      }
      return true;
    }
  }
  return false;
}

/// One evaluation sweep over all threads. Returns true if any event
/// state changed. When \p Verify is non-null, also checks constraints /
/// address resolution / rf location agreement, computes dependency
/// taints and records observed registers.
bool ComboWorker::sweep(const std::vector<size_t> &RfChoice, bool *Verify) {
  bool Changed = false;
  if (Verify) {
    AddrDeps.assign(Events.size(), {});
    DataDeps.assign(Events.size(), {});
    CtrlDeps.assign(Events.size(), {});
    ObservedRegs.clear();
  }
  for (unsigned T = 0; T != Paths.size(); ++T) {
    std::map<std::string, SimVal> Regs;
    std::map<std::string, std::set<unsigned>> Taint;
    std::set<unsigned> CtrlTaint;
    auto EvIt = OpEvents[T].begin();
    const auto EvEnd = OpEvents[T].end();
    for (unsigned I = 0; I != Paths[T]->Ops.size(); ++I) {
      const SimOp &Op = Paths[T]->Ops[I];
      // Events created for this op, in creation order.
      unsigned Ev0 = ~0u, Ev1 = ~0u;
      while (EvIt != EvEnd && EvIt->first == I) {
        (Ev0 == ~0u ? Ev0 : Ev1) = EvIt->second;
        ++EvIt;
      }
      auto ResolveAddr = [&](unsigned Ev) -> std::string {
        if (Op.Addr.isStatic())
          return SimAddr::locName(Op.Addr.Sym, Op.Addr.Off);
        auto It = Regs.find(Op.Addr.Reg);
        if (It != Regs.end() && It->second.K == SimVal::Kind::Addr) {
          if (Verify) {
            auto TIt = Taint.find(Op.Addr.Reg);
            if (TIt != Taint.end())
              for (unsigned Src : TIt->second)
                AddrDeps[Ev].insert(Src);
          }
          return SimAddr::locName(It->second.Sym, Op.Addr.Off);
        }
        if (Verify)
          *Verify = false; // unresolvable dynamic address
        return "";
      };
      auto Update = [&](unsigned Ev, const EvState &NewState) {
        if (!(State[Ev] == NewState)) {
          State[Ev] = NewState;
          Changed = true;
        }
      };
      auto ReadWidthTruncate = [&](const std::string &Loc, SimVal V) {
        return truncAt(Loc, std::move(V));
      };
      switch (Op.K) {
      case SimOp::Kind::Assign: {
        if (Verify) {
          std::vector<std::string> Used;
          Op.Val.collectRegs(Used);
          std::set<unsigned> T2;
          for (const std::string &U : Used)
            for (unsigned Src : Taint[U])
              T2.insert(Src);
          Taint[Op.Dst] = std::move(T2);
        }
        Regs[Op.Dst] = evalSimExpr(Op.Val, Regs);
        break;
      }
      case SimOp::Kind::AddrOf: {
        Regs[Op.Dst] =
            SimVal{SimVal::Kind::Addr, LocAddr.at(Op.Sym), Op.Sym};
        if (Verify)
          Taint[Op.Dst].clear();
        break;
      }
      case SimOp::Kind::Constraint: {
        if (Verify) {
          SimVal C = evalSimExpr(Op.Val, Regs);
          bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
          if (NonZero != Op.ConstraintNonZero)
            *Verify = false;
          std::vector<std::string> Used;
          Op.Val.collectRegs(Used);
          for (const std::string &U : Used)
            for (unsigned Src : Taint[U])
              CtrlTaint.insert(Src);
        }
        break;
      }
      case SimOp::Kind::Fence: {
        if (Verify)
          for (unsigned Src : CtrlTaint)
            CtrlDeps[Ev0].insert(Src);
        break;
      }
      case SimOp::Kind::Load: {
        unsigned ReadEv = Ev0;
        std::string Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(RfChoice, ReadEv);
        SimVal V = State[RfW].Val;
        if (!Loc.empty())
          V = ReadWidthTruncate(Loc, V);
        Update(ReadEv, EvState{V, Loc});
        if (!Op.Dst.empty()) {
          if (Op.Is128) {
            Regs[Op.Dst] = SimVal{SimVal::Kind::Int, Value(V.V.Lo), ""};
            Regs[Op.Dst2] = SimVal{SimVal::Kind::Int, Value(V.V.Hi), ""};
            if (Verify) {
              Taint[Op.Dst] = {ReadEv};
              Taint[Op.Dst2] = {ReadEv};
            }
          } else {
            Regs[Op.Dst] = V;
            if (Verify)
              Taint[Op.Dst] = {ReadEv};
          }
        }
        if (Verify) {
          for (unsigned Src : CtrlTaint)
            CtrlDeps[ReadEv].insert(Src);
          // rf source must be a write to the same resolved location.
          const std::string &WLoc = State[RfW].Loc;
          if (Loc.empty() || WLoc != Loc)
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Store: {
        unsigned WriteEv = Ev0;
        std::string Loc = ResolveAddr(WriteEv);
        SimVal V = evalSimExpr(Op.Val, Regs);
        if (Op.Is128) {
          SimVal Hi = evalSimExpr(Op.ValHi, Regs);
          V = SimVal{SimVal::Kind::Int, Value(V.V.Lo, Hi.V.Lo), ""};
        }
        if (!Loc.empty())
          V = ReadWidthTruncate(Loc, V);
        Update(WriteEv, EvState{V, Loc});
        if (!Op.Dst.empty()) {
          // Exclusive-store status register: success (herd assumes
          // exclusive pairs succeed; failing paths are infeasible).
          Regs[Op.Dst] =
              SimVal{SimVal::Kind::Int, Value(Op.StatusSuccess), ""};
          if (Verify)
            Taint[Op.Dst].clear();
        }
        if (Verify) {
          std::vector<std::string> Used;
          Op.Val.collectRegs(Used);
          Op.ValHi.collectRegs(Used);
          for (const std::string &U : Used)
            for (unsigned Src : Taint[U])
              DataDeps[WriteEv].insert(Src);
          for (unsigned Src : CtrlTaint)
            CtrlDeps[WriteEv].insert(Src);
          if (Loc.empty())
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Rmw: {
        unsigned ReadEv = Ev0, WriteEv = Ev1;
        std::string Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(RfChoice, ReadEv);
        SimVal Old = State[RfW].Val;
        if (!Loc.empty())
          Old = ReadWidthTruncate(Loc, Old);
        SimVal Operand = evalSimExpr(Op.Val, Regs);
        SimVal New;
        New.K = SimVal::Kind::Int;
        switch (Op.RmwOp) {
        case SimOp::RmwOpKind::Xchg:
          New.V = Operand.V;
          break;
        case SimOp::RmwOpKind::Add:
          New.V = Old.V.add(Operand.V);
          break;
        case SimOp::RmwOpKind::Sub:
          New.V = Old.V.sub(Operand.V);
          break;
        }
        if (!Loc.empty())
          New = ReadWidthTruncate(Loc, New);
        Update(ReadEv, EvState{Old, Loc});
        Update(WriteEv, EvState{New, Loc});
        if (!Op.Dst.empty() && !Op.NoRet) {
          Regs[Op.Dst] = Old;
          if (Verify)
            Taint[Op.Dst] = {ReadEv};
        }
        if (Verify) {
          std::vector<std::string> Used;
          Op.Val.collectRegs(Used);
          for (const std::string &U : Used)
            for (unsigned Src : Taint[U])
              DataDeps[WriteEv].insert(Src);
          for (unsigned Src : CtrlTaint) {
            CtrlDeps[ReadEv].insert(Src);
            CtrlDeps[WriteEv].insert(Src);
          }
          const std::string &WLoc = State[RfW].Loc;
          if (Loc.empty() || WLoc != Loc)
            *Verify = false;
        }
        break;
      }
      }
    }
    if (Verify)
      for (const auto &[Reg, Key] : Prog.Threads[T].Observed) {
        (void)Key; // Interned once in the constructor; threads append
                   // in order, so the flat index is the current size.
        auto It = Regs.find(Reg);
        ObservedRegs.emplace_back(ObservedRegSym[ObservedRegs.size()],
                                  It == Regs.end() ? Value() : It->second.V);
      }
  }
  return Changed;
}

/// Fixpoint value resolution; true when this rf assignment is
/// consistent (stable values, feasible branches, matching addresses).
bool ComboWorker::resolveValues(const std::vector<size_t> &RfChoice) {
  unsigned N = Events.size();
  State.assign(N, EvState());
  for (unsigned I = 0; I != N; ++I)
    if (Events[I].IsInit) {
      const SimLoc *L = Prog.findLocation(Events[I].InitLoc);
      SimVal V;
      if (!L->InitAddrOf.empty())
        V = SimVal{SimVal::Kind::Addr, LocAddr.at(L->InitAddrOf),
                   L->InitAddrOf};
      else
        V = SimVal{SimVal::Kind::Int, L->Init, ""};
      State[I] = EvState{V, Events[I].InitLoc};
    }
  unsigned MaxRounds = N + 2;
  bool Stable = false;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    if (!sweep(RfChoice, nullptr)) {
      Stable = true;
      break;
    }
  }
  if (!Stable)
    return false;
  bool Consistent = true;
  sweep(RfChoice, &Consistent);
  return Consistent;
}

/// Builds the per-combo execution skeleton: events with kinds, threads
/// and tags (including ConstWrite for statically-located writes), po,
/// and rmw edges. Copied per candidate; only Loc/Val/rf/co/deps (and
/// ConstWrite on dynamically-located writes) vary within a combo.
void ComboWorker::buildSkeletonExecution() {
  unsigned N = Events.size();
  SkelEx = Execution();
  SkelEx.Events.resize(N);
  InitEvByLoc.clear();
  for (unsigned I = 0; I != N; ++I) {
    Event &E = SkelEx.Events[I];
    E.Id = I;
    E.Kind = Events[I].Kind;
    if (Events[I].IsInit) {
      E.Thread = Event::InitThread;
      E.PoIndex = 0;
      E.Tags = {"IW"};
      InitEvByLoc[Events[I].InitLoc] = I;
      continue;
    }
    E.Thread = Events[I].Thread;
    E.PoIndex = I; // globally increasing within a thread
    const SimOp *Op = Events[I].Op;
    if (Op->K == SimOp::Kind::Rmw) {
      E.Tags = Events[I].Kind == EventKind::Read ? Op->Tags : Op->WTags;
      if (Op->NoRet && Events[I].Kind == EventKind::Read)
        E.Tags.insert("NORET");
    } else if (Events[I].Kind == EventKind::Write) {
      E.Tags = Op->WTags;
    } else {
      E.Tags = Op->Tags;
    }
    if (Events[I].Kind == EventKind::Write && Op->Addr.isStatic())
      if (const SimLoc *L = Prog.findLocation(staticLocOf(*Op));
          L && L->Const)
        E.Tags.insert("ConstWrite");
  }
  SkelEx.resizeRelations();
  // po: init writes before every thread event; program order within
  // threads (transitive).
  for (unsigned A = 0; A != N; ++A) {
    for (unsigned B = 0; B != N; ++B) {
      if (A == B)
        continue;
      if (Events[A].IsInit && !Events[B].IsInit)
        SkelEx.Po.set(A, B);
      else if (!Events[A].IsInit && !Events[B].IsInit &&
               Events[A].Thread == Events[B].Thread && A < B)
        SkelEx.Po.set(A, B);
    }
  }
  // rmw edges: the two halves of an Rmw op, and LL/SC exclusive pairs
  // (an exclusive store pairs with the latest exclusive load).
  for (unsigned T = 0; T != Paths.size(); ++T) {
    unsigned PrevRead = ~0u;
    unsigned LastExclusiveRead = ~0u;
    for (const auto &[OpIdx, Ev] : OpEvents[T]) {
      const SimOp &Op = Paths[T]->Ops[OpIdx];
      if (Op.K == SimOp::Kind::Rmw) {
        if (Events[Ev].Kind == EventKind::Read)
          PrevRead = Ev;
        else
          SkelEx.Rmw.set(PrevRead, Ev);
        continue;
      }
      if (!Op.Exclusive)
        continue;
      if (Op.K == SimOp::Kind::Load)
        LastExclusiveRead = Ev;
      else if (Op.K == SimOp::Kind::Store && LastExclusiveRead != ~0u)
        SkelEx.Rmw.set(LastExclusiveRead, Ev);
    }
  }
}

/// Instantiates the skeleton for the current rf assignment: resolved
/// values/locations, rf edges and dependency relations. Coherence is
/// filled in per permutation by checkCandidate.
void ComboWorker::buildCandidateExecution() {
  unsigned N = Events.size();
  CandEx = SkelEx;
  for (unsigned I = 0; I != N; ++I) {
    Event &E = CandEx.Events[I];
    E.Loc = State[I].Loc;
    E.Val = State[I].Val.V;
    // Writes whose location only resolved now may hit a const
    // location (static ones were tagged in the skeleton).
    if (!Events[I].IsInit && Events[I].Kind == EventKind::Write &&
        !Events[I].Op->Addr.isStatic())
      if (const SimLoc *L = Prog.findLocation(E.Loc); L && L->Const)
        E.Tags.insert("ConstWrite");
  }
  for (unsigned RI = 0; RI != Reads.size(); ++RI)
    CandEx.Rf.set(RfCand[RI][RfChoice[RI]], Reads[RI]);
  for (unsigned Ev = 0; Ev != N; ++Ev) {
    for (unsigned Src : AddrDeps[Ev])
      CandEx.Addr.set(Src, Ev);
    for (unsigned Src : DataDeps[Ev])
      CandEx.Data.set(Src, Ev);
    for (unsigned Src : CtrlDeps[Ev])
      CandEx.Ctrl.set(Src, Ev);
  }
}

/// Enumerates per-location coherence orders and model-checks each
/// complete candidate.
void ComboWorker::enumerateCo() {
  // Group non-init writes by resolved location, in po order.
  std::map<std::string, std::vector<unsigned>> ByLoc;
  for (unsigned W : Writes)
    if (!Events[W].IsInit)
      ByLoc[State[W].Loc].push_back(W);
  std::vector<std::vector<unsigned>> Groups;
  for (auto &[Loc, Ws] : ByLoc) {
    std::sort(Ws.begin(), Ws.end());
    Groups.push_back(Ws);
  }
  // Recursively permute each group.
  permuteGroups(Groups, 0);
}

void ComboWorker::permuteGroups(std::vector<std::vector<unsigned>> &Groups,
                                size_t GI) {
  if (shouldStop())
    return;
  if (GI == Groups.size()) {
    if (!budget())
      return;
    ++WR.Stats.CoCandidates;
    checkCandidate(Groups);
    return;
  }
  std::vector<unsigned> &G = Groups[GI];
  std::sort(G.begin(), G.end());
  do {
    permuteGroups(Groups, GI + 1);
    if (shouldStop())
      return;
  } while (std::next_permutation(G.begin(), G.end()));
}

/// Completes the candidate execution with the current coherence
/// permutation and runs the model.
void ComboWorker::checkCandidate(
    const std::vector<std::vector<unsigned>> &Groups) {
  unsigned N = Events.size();
  // co: init write of each location first, then the group permutation.
  CandEx.Co = Relation(N);
  for (const auto &G : Groups) {
    if (G.empty())
      continue;
    auto InitIt = InitEvByLoc.find(State[G.front()].Loc);
    std::vector<unsigned> Chain;
    if (InitIt != InitEvByLoc.end())
      Chain.push_back(InitIt->second);
    Chain.insert(Chain.end(), G.begin(), G.end());
    for (size_t A = 0; A != Chain.size(); ++A)
      for (size_t B = A + 1; B != Chain.size(); ++B)
        CandEx.Co.set(Chain[A], Chain[B]);
  }
  // Locations written by nobody still have their init write in co
  // (singleton chains need no edges).

  // With IncrementalCatEval off, Eval runs in no-cache mode: full
  // re-evaluation per candidate, identical verdicts.
  ModelVerdict Verdict = Eval.evaluate(CandEx);
  if (!Verdict.ok()) {
    if (WR.Error.empty() || CurShardIdx < WR.ErrorShard) {
      WR.Error = Verdict.Error;
      WR.ErrorShard = CurShardIdx;
    }
    Shared.Aborted.store(true, std::memory_order_relaxed);
    LocalStop = true;
    return;
  }
  if (!Verdict.Allowed)
    return;
  ++WR.Stats.AllowedExecutions;
  // Outcome: observed registers + observed locations' final values.
  Outcome O;
  for (const auto &[Key, V] : ObservedRegs)
    O.set(Key, V);
  std::map<std::string, Value> FinalMem = CandEx.finalMemory();
  for (size_t L = 0; L != Prog.ObservedLocs.size(); ++L) {
    auto It = FinalMem.find(Prog.ObservedLocs[L]);
    O.set(ObservedLocSym[L], It == FinalMem.end() ? Value() : It->second);
  }
  WR.Allowed.insert(O);
  for (const std::string &F : Verdict.Flags)
    WR.Flags.insert(internSymbol(F));
  if (Opts.CollectExecutions)
    collectExecution(CandEx);
}

void ComboWorker::collectExecution(const Execution &Ex) {
  std::vector<Execution> &Bucket = WR.Execs[CurShardIdx];
  if (Bucket.size() < Opts.MaxCollectedExecutions)
    Bucket.push_back(Ex);
  // Prune buckets this worker can prove unreachable: once its own
  // lower-indexed shards alone hold MaxCollectedExecutions executions,
  // the shard-ordered merge can never select anything from its
  // higher-indexed buckets. Keeps memory bounded under stealing.
  size_t Cum = 0;
  auto It = WR.Execs.begin();
  for (; It != WR.Execs.end(); ++It) {
    Cum += It->second.size();
    if (Cum >= Opts.MaxCollectedExecutions) {
      ++It;
      break;
    }
  }
  WR.Execs.erase(It, WR.Execs.end());
}

/// Merges per-worker results in shard order into one SimResult.
static SimResult
mergeResults(const std::vector<std::unique_ptr<ComboWorker>> &Workers,
             const SharedState &Shared, const SimOptions &Opts) {
  SimResult R;
  size_t ErrorShard = ~size_t(0);
  std::map<size_t, std::vector<Execution>> Execs;
  for (const std::unique_ptr<ComboWorker> &W : Workers) {
    WorkerResult &WRes = W->WR;
    R.Allowed.insert(WRes.Allowed.begin(), WRes.Allowed.end());
    for (Symbol F : WRes.Flags)
      R.Flags.insert(F.str());
    // The evaluator keeps its own count; BackendUsed and
    // ExploreOutcomesFound are stamped by runEngine after the merge.
    WRes.Stats.CatEvalsAvoided = W->catEvalsAvoided();
#define SUM_COUNT(Member, Key) R.Stats.Member += WRes.Stats.Member;
#define SKIP_NAMED(Member, Key)
    TELECHAT_SIM_STATS(SUM_COUNT, SKIP_NAMED)
#undef SUM_COUNT
#undef SKIP_NAMED
    if (!WRes.Error.empty() && WRes.ErrorShard < ErrorShard) {
      ErrorShard = WRes.ErrorShard;
      R.Error = WRes.Error;
    }
    for (auto &[Idx, Bucket] : WRes.Execs)
      Execs[Idx] = std::move(Bucket);
  }
  if (Opts.CollectExecutions)
    for (auto &[Idx, Bucket] : Execs)
      for (Execution &Ex : Bucket) {
        if (R.Executions.size() >= Opts.MaxCollectedExecutions)
          break;
        R.Executions.push_back(std::move(Ex));
      }
  R.TimedOut = Shared.TimedOut.load(std::memory_order_relaxed);
  return R;
}

SimResult telechat::simcore::runEngine(const SimProgram &Program,
                                       const CatModel &Model,
                                       const SimOptions &Options,
                                       SimBackendKind Engine) {
  SharedState Shared;
  Shared.MaxSteps = Options.MaxSteps;
  Shared.TimeoutSeconds = Options.TimeoutSeconds;
  Shared.Start = std::chrono::steady_clock::now();

  // Path combos form a mixed-radix space over per-thread path counts
  // (index 0 least significant, matching the sequential odometer). The
  // empty product (no threads) is one combo: the init-only execution.
  uint64_t ComboCount = 1;
  for (const SimThread &T : Program.Threads)
    ComboCount = satMul(ComboCount, T.Paths.size());

  auto MakeWorker = [&]() -> std::unique_ptr<ComboWorker> {
    switch (Engine) {
    case SimBackendKind::Solve:
      return makeSolveWorker(Program, Model, Options, Shared);
    case SimBackendKind::Explore:
      return makeExploreWorker(Program, Model, Options, Shared);
    default:
      return std::make_unique<ComboWorker>(Program, Model, Options, Shared);
    }
  };
  unsigned Jobs = resolveJobs(Options.Jobs);
  std::vector<std::unique_ptr<ComboWorker>> Workers;

  if (Jobs <= 1) {
    // Sequential: one worker walks every combo in order; shards are never
    // materialised. Identical code path, zero threading overhead.
    Workers.push_back(MakeWorker());
    ComboWorker &W = *Workers.front();
    for (uint64_t C = 0; C != ComboCount && !W.shouldStop(); ++C) {
      Shard S;
      S.Combo = C;
      S.Index = size_t(C);
      W.processShard(S);
    }
  } else {
    for (unsigned J = 0; J != Jobs; ++J)
      Workers.push_back(MakeWorker());

    // With few combos the sweep splits each combo's rf space so all
    // workers share even a single-combo test (the common litmus case,
    // and the paper's §IV-E explosion case). A solve decision tree or an
    // explore schedule set is not splittable mid-search, so those
    // engines run one combo per shard: their parallelism is across
    // combos and across campaign units. Splitting is also the only case
    // where publishing per-combo Cat layers can save duplicate work.
    const bool SplitRf =
        Engine == SimBackendKind::Sweep && ComboCount < uint64_t(Jobs) * 4;
    Shared.ShareLayerCache = SplitRf;

    // Shards are built in waves so combo-heavy programs (many branches)
    // never materialise an unbounded shard vector; each wave runs on the
    // work-stealing scheduler.
    constexpr uint64_t kWaveCombos = 1 << 18;
    uint64_t NextCombo = 0;
    size_t NextIndex = 0;
    while (NextCombo < ComboCount && !Shared.stopped()) {
      std::vector<Shard> Wave;
      if (SplitRf) {
        // Pre-pass scratch: prepares skeletons to size the rf spaces.
        ComboWorker Scratch(Program, Model, Options, Shared);
        for (uint64_t C = NextCombo; C != ComboCount; ++C) {
          uint64_t Space = Scratch.prepareCombo(C);
          uint64_t MaxChunks = uint64_t(Jobs) * 8;
          uint64_t Chunk =
              std::max<uint64_t>(16, Space / MaxChunks + (Space % MaxChunks
                                                              ? 1
                                                              : 0));
          uint64_t Lo = 0;
          do {
            Shard S;
            S.Combo = C;
            S.RfLo = Lo;
            S.RfHi = (Space - Lo <= Chunk) ? Space : Lo + Chunk;
            if (Space == 0)
              S.RfHi = 0; // Keep the PathCombos-owning shard.
            S.Index = NextIndex++;
            Wave.push_back(S);
            Lo = S.RfHi;
          } while (Lo < Space);
        }
        NextCombo = ComboCount;
      } else {
        uint64_t End = NextCombo + std::min<uint64_t>(
                                       kWaveCombos, ComboCount - NextCombo);
        for (uint64_t C = NextCombo; C != End; ++C) {
          Shard S;
          S.Combo = C;
          S.Index = NextIndex++;
          Wave.push_back(S);
        }
        NextCombo = End;
      }

      ShardScheduler::run(
          Wave.size(), Jobs,
          [&](unsigned W, size_t I) { Workers[W]->processShard(Wave[I]); },
          [&] { return Shared.stopped(); });
    }
  }

  SimResult Result = mergeResults(Workers, Shared, Options);
  Result.Stats.BackendUsed = uint8_t(Engine);
  // The coverage summary subset-mode consumers read without walking
  // the outcome set.
  if (Engine == SimBackendKind::Explore)
    Result.Stats.ExploreOutcomesFound = Result.Allowed.size();
  auto End = std::chrono::steady_clock::now();
  Result.Stats.Seconds =
      std::chrono::duration<double>(End - Shared.Start).count();
  return Result;
}

bool telechat::finalConditionHolds(const SimProgram &Program,
                                   const SimResult &Result) {
  const FinalCond &F = Program.Final;
  bool AnySatisfies = false;
  bool AllSatisfy = true;
  for (const Outcome &O : Result.Allowed) {
    if (F.P.eval(O))
      AnySatisfies = true;
    else
      AllSatisfy = false;
  }
  switch (F.Q) {
  case FinalCond::Quant::Exists:
    return AnySatisfies;
  case FinalCond::Quant::NotExists:
    return !AnySatisfies;
  case FinalCond::Quant::Forall:
    return AllSatisfy && !Result.Allowed.empty();
  }
  return false;
}
