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
/// Three per-combo precomputations cut the per-candidate cost (see
/// Enumerator.h for the user-facing contracts):
///
///  - The chosen paths are *compiled* for the resolution fixpoint
///    (SweepOp, EnumCore.h): registers become register-file slots,
///    locations dense ids, dependencies bit rows, so the sweep that
///    runs several times per rf assignment builds no string and looks
///    up no name.
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
///    before the expensive resolution fixpoint runs. The pass also lists
///    the rf pairs in which a read would take its own increment; the
///    fixpoint rejects an assignment picking one without sweeping.
///
///  - The *skeleton execution* (events, po, rmw, tags) is built once
///    per combo and patched per candidate, and the Cat model's stable
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
#include <stdexcept>

using namespace telechat;
using namespace telechat::simcore;

LocTable::LocTable(const SimProgram &Prog) : Prog(Prog) {
  // Synthetic numeric addresses for locations (0x1000 apart, mirroring
  // an ELF data section layout); a name declared twice keeps its last.
  for (unsigned I = 0; I != Prog.Locations.size(); ++I) {
    const std::string &Name = Prog.Locations[I].Name;
    LocId L = intern(Name);
    InitEvs[L] = I;
    Addrs[L] = SimVal{SimVal::Kind::Addr, Value(0x1000 * (uint64_t(I) + 1)),
                      internSymbol(Name)};
  }
  // Init writes carry their first declaration's value.
  for (LocId L = 0; L != Names.size(); ++L) {
    const SimLoc *D = Decls[L];
    InitVals[L] = D->InitAddrOf.empty()
                      ? SimVal{SimVal::Kind::Int, D->Init, Symbol()}
                      : addressOf(D->InitAddrOf);
  }
}

LocId LocTable::intern(const std::string &Name) {
  auto [It, New] = ByName.try_emplace(Name, LocId(Names.size()));
  if (New) {
    Names.push_back(Name);
    Decls.push_back(Prog.findLocation(Name));
    InitEvs.push_back(~0u);
    Addrs.emplace_back();
    InitVals.emplace_back();
  }
  return It->second;
}

LocId LocTable::resolve(Symbol Base, int64_t Off) {
  auto [It, New] = ByBase.try_emplace({&Base.str(), Off}, kNoLoc);
  if (New)
    It->second = intern(SimAddr::locName(Base.str(), Off));
  return It->second;
}

SimVal LocTable::addressOf(const std::string &Name) const {
  auto It = ByName.find(Name);
  if (It == ByName.end() || !Decls[It->second])
    throw std::out_of_range("address of undeclared location '" + Name + "'");
  return Addrs[It->second];
}

ComboWorker::ComboWorker(const SimProgram &Program, const CatModel &Model,
                         const SimOptions &Options, SharedState &Shared)
    : Prog(Program), Model(Model), Opts(Options), Shared(Shared),
      Eval(Model), Locs(Program) {
  Eval.setCaching(Opts.IncrementalCatEval);
  // Outcome keys are fixed per program: intern them once so the
  // per-allowed-execution outcome build does no hashing.
  for (const SimThread &T : Prog.Threads)
    for (const auto &[Reg, Key] : T.Observed)
      ObservedRegSym.push_back(internSymbol(Key));
  for (const std::string &Loc : Prog.ObservedLocs) {
    ObservedLocSym.push_back(internSymbol(Outcome::locKey(Loc)));
    ObservedLocId.push_back(Locs.intern(Loc));
  }
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

namespace {

/// Abstract address resolution: registers holding *statically known*
/// address constants (AddrOf, copies, constant offsets) turn their
/// accesses into static ones, which the rf-candidate filter can then
/// restrict by location. Addresses that flow through memory (GOT /
/// literal-pool loads in unoptimised compiled tests) stay dynamic --
/// the paper's §IV-E state explosion. This mirrors herd: symbolic
/// init-state addresses are constants, loaded values are not.
class StaticAddresses {
public:
  /// Steps over one op of a path, in order: the location name of a
  /// static (or statically resolvable) access, nullopt otherwise.
  std::optional<std::string> step(const SimOp &Op) {
    std::optional<std::string> Name;
    if (Op.K == SimOp::Kind::Load || Op.K == SimOp::Kind::Store ||
        Op.K == SimOp::Kind::Rmw) {
      if (Op.Addr.isStatic())
        Name = SimAddr::locName(Op.Addr.Sym, Op.Addr.Off);
      else if (auto It = Known.find(Op.Addr.Reg); It != Known.end())
        Name = SimAddr::locName(It->second.first,
                                It->second.second + Op.Addr.Off);
    }
    switch (Op.K) {
    case SimOp::Kind::AddrOf:
      Known[Op.Dst] = {Op.Sym, 0};
      break;
    case SimOp::Kind::Assign:
      if (auto A = eval(Op.Val))
        Known[Op.Dst] = *A;
      else
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Load:
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      if (!Op.Dst2.empty())
        Known.erase(Op.Dst2);
      break;
    case SimOp::Kind::Rmw:
    case SimOp::Kind::Store:
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Fence:
    case SimOp::Kind::Constraint:
      break;
    }
    return Name;
  }

private:
  using Address = std::pair<std::string, int64_t>;

  std::optional<Address> eval(const Expr &E) const {
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
          return Address(It->second.first,
                         It->second.second + int64_t(R.Imm.Lo));
      }
    }
    return std::nullopt;
  }

  std::map<std::string, Address> Known;
};

} // namespace

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
    Init.Loc = Locs.intern(L.Name);
    Events.push_back(Init);
  }
  for (unsigned T = 0; T != Prog.Threads.size(); ++T) {
    const SimPath &Path = Prog.Threads[T].Paths[PathChoice[T]];
    Paths.push_back(&Path);
    std::vector<std::pair<unsigned, unsigned>> PathEvents;
    StaticAddresses Known;
    for (unsigned I = 0; I != Path.Ops.size(); ++I) {
      const SimOp &Op = Path.Ops[I];
      LocId Loc = kNoLoc;
      if (std::optional<std::string> Name = Known.step(Op))
        Loc = Locs.intern(*Name);
      auto AddEvent = [&](EventKind K) {
        EvInfo E;
        E.Thread = T;
        E.OpIndex = I;
        E.Kind = K;
        E.Op = &Op;
        E.Loc = Loc;
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
        Events[I].Loc == kNoLoc)
      AllStaticCombo = false;
  }

  // --- rf candidates per read. ---
  // Static-address reads take writes that are statically same-location
  // (plus all dynamic-address writes); dynamic-address reads must
  // consider every write. This asymmetry is the whole scalability
  // story: optimised tests are all-static.
  RfCand.assign(Reads.size(), {});
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    LocId RLoc = Events[Reads[RI]].Loc;
    for (unsigned W : Writes) {
      LocId WLoc = Events[W].Loc;
      if (RLoc == kNoLoc || WLoc == kNoLoc || RLoc == WLoc)
        RfCand[RI].push_back(W);
    }
  }

  compilePaths();
  ComboRfSourcesPruned = 0;
  SelfIncrements.clear();
  if (Opts.RfValuePruning) {
    computeAbstract();
    if (!ComboInfeasible) {
      filterRfCandidates();
      findSelfIncrements();
    }
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

/// Compiles the chosen paths into the sweep's form (SweepOp): each
/// thread's registers become slots of one flat register file, each
/// expression a SlotExpr tree, each static access its location id and
/// declaration, and AddrOf values and exclusive-store statuses
/// constants. Everything here depends only on the path combo, so the
/// per-candidate sweep builds no string and looks up no name.
void ComboWorker::compilePaths() {
  Code.clear();
  ThreadEnd.clear();
  Exprs.clear();
  Uses.clear();
  ObservedSlot.clear();
  NumSlots = 0;
  std::map<std::string, unsigned> Slots;
  auto SlotOf = [&](const std::string &Reg) {
    auto [It, New] = Slots.try_emplace(Reg, NumSlots);
    if (New)
      ++NumSlots;
    return It->second;
  };
  auto AddUses = [&](const Expr &E) {
    std::vector<std::string> Regs;
    E.collectRegs(Regs);
    for (const std::string &R : Regs)
      Uses.push_back(SlotOf(R));
  };
  for (unsigned T = 0; T != Paths.size(); ++T) {
    Slots.clear();
    auto EvIt = OpEvents[T].begin();
    const auto EvEnd = OpEvents[T].end();
    for (unsigned I = 0; I != Paths[T]->Ops.size(); ++I) {
      const SimOp &Op = Paths[T]->Ops[I];
      SweepOp C;
      C.Op = &Op;
      while (EvIt != EvEnd && EvIt->first == I) {
        (C.Ev0 == ~0u ? C.Ev0 : C.Ev1) = EvIt->second;
        ++EvIt;
      }
      C.UsesBegin = unsigned(Uses.size());
      if (Op.K == SimOp::Kind::Load || Op.K == SimOp::Kind::Store ||
          Op.K == SimOp::Kind::Rmw) {
        C.Loc = Events[C.Ev0].Loc;
        if (C.Loc != kNoLoc) {
          C.Decl = Locs.decl(C.Loc);
        } else {
          C.Base = SlotOf(Op.Addr.Reg);
          C.Off = Op.Addr.Off;
        }
      }
      switch (Op.K) {
      case SimOp::Kind::Assign:
        C.Val = compileExpr(Op.Val, Slots);
        AddUses(Op.Val);
        C.Dst = SlotOf(Op.Dst);
        break;
      case SimOp::Kind::AddrOf:
        C.Const = Locs.addressOf(Op.Sym);
        C.Dst = SlotOf(Op.Dst);
        break;
      case SimOp::Kind::Constraint:
        C.Val = compileExpr(Op.Val, Slots);
        AddUses(Op.Val);
        break;
      case SimOp::Kind::Fence:
        break;
      case SimOp::Kind::Load:
        if (!Op.Dst.empty()) {
          C.Dst = SlotOf(Op.Dst);
          if (Op.Is128)
            C.Dst2 = SlotOf(Op.Dst2);
        }
        break;
      case SimOp::Kind::Store:
        C.Val = compileExpr(Op.Val, Slots);
        if (Op.Is128)
          C.ValHi = compileExpr(Op.ValHi, Slots);
        AddUses(Op.Val);
        AddUses(Op.ValHi);
        if (!Op.Dst.empty()) {
          C.Dst = SlotOf(Op.Dst);
          C.Const =
              SimVal{SimVal::Kind::Int, Value(Op.StatusSuccess), Symbol()};
        }
        break;
      case SimOp::Kind::Rmw:
        C.Val = compileExpr(Op.Val, Slots);
        AddUses(Op.Val);
        if (!Op.Dst.empty() && !Op.NoRet)
          C.Dst = SlotOf(Op.Dst);
        break;
      }
      C.UsesEnd = unsigned(Uses.size());
      Code.push_back(C);
    }
    ThreadEnd.push_back(unsigned(Code.size()));
    for (const auto &[Reg, Key] : Prog.Threads[T].Observed) {
      auto It = Slots.find(Reg);
      ObservedSlot.push_back(It == Slots.end() ? kNoSlot : It->second);
    }
  }
  unsigned N = Events.size();
  RowWords = (N + 63) / 64;
  RegFile.assign(NumSlots, SimVal());
  Taint.assign(size_t(NumSlots) * RowWords, 0);
  AddrDeps.assign(size_t(N) * RowWords, 0);
  DataDeps.assign(size_t(N) * RowWords, 0);
  CtrlDeps.assign(size_t(N) * RowWords, 0);
  CtrlTaint.assign(RowWords, 0);
  TaintTmp.assign(RowWords, 0);
}

unsigned ComboWorker::compileExpr(const Expr &E,
                                  std::map<std::string, unsigned> &Slots) {
  SlotExpr X;
  X.K = E.K;
  switch (E.K) {
  case Expr::Kind::Imm:
    X.Imm = SimVal{SimVal::Kind::Int, E.Imm, Symbol()};
    break;
  case Expr::Kind::Reg: {
    auto [It, New] = Slots.try_emplace(E.RegName, NumSlots);
    if (New)
      ++NumSlots;
    X.Slot = It->second;
    break;
  }
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    X.L = compileExpr(E.Ops[0], Slots);
    X.R = compileExpr(E.Ops[1], Slots);
    break;
  }
  Exprs.push_back(X);
  return unsigned(Exprs.size() - 1);
}

/// evalSimExpr over the register file: the same combine rule and the
/// same zero default (a slot nothing assigned holds SimVal{}).
SimVal ComboWorker::evalSlots(unsigned Node) const {
  const SlotExpr &E = Exprs[Node];
  switch (E.K) {
  case Expr::Kind::Imm:
    return E.Imm;
  case Expr::Kind::Reg:
    return RegFile[E.Slot];
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    break;
  }
  return combineSimVals(E.K, evalSlots(E.L), evalSlots(E.R));
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
      InitWrites.emplace_back(I, Locs.initValue(Events[I].Loc));
  ThreadOps.resize(Paths.size());
  for (unsigned T = 0, Begin = 0; T != Paths.size(); Begin = ThreadEnd[T++]) {
    ThreadOps[T].clear();
    for (unsigned I = Begin; I != ThreadEnd[T]; ++I) {
      const SweepOp &C = Code[I];
      ThreadOps[T].push_back(
          {C.Op, C.Ev0, C.Ev1, C.Loc != kNoLoc, C.Decl, C.Const});
    }
  }
  AbsInterpreter Interp;
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
    if (R.Loc == kNoLoc)
      continue; // Unknown width: values are not comparable yet.
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
      SimVal RV = truncAt(R.Loc, EvAbs[W].V);
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

/// Lists the rf candidates a read can never take a stable value from:
/// writes that store the read's own value plus a nonzero constant, as a
/// fetch_add or an LL/SC increment does (AbsXform::hasNoFixedPoint).
/// Static reads only, so the read's width is known.
void ComboWorker::findSelfIncrements() {
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    unsigned ReadEv = Reads[RI];
    LocId L = Events[ReadEv].Loc;
    if (L == kNoLoc)
      continue;
    const SimLoc *Decl = Locs.decl(L);
    for (unsigned CI = 0; CI != RfCand[RI].size(); ++CI) {
      const AbsVal &A = EvAbs[RfCand[RI][CI]];
      if (A.K == AbsVal::Kind::Xform && A.ReadEv == ReadEv &&
          A.F.hasNoFixedPoint(Decl ? &Decl->Type : nullptr))
        SelfIncrements.emplace_back(RI, CI);
    }
  }
}

std::optional<SimVal>
ComboWorker::resolveReadAbs(unsigned ReadEv, unsigned Depth,
                            SupportVec *Support) const {
  if (Depth > Reads.size())
    return std::nullopt; // rf copy cycle: the fixpoint must decide.
  const EvInfo &R = Events[ReadEv];
  if (R.Loc == kNoLoc)
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
  return truncAt(R.Loc, *V);
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

namespace {

void orRow(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  for (unsigned W = 0; W != Words; ++W)
    Dst[W] |= Src[W];
}

void setOnly(uint64_t *Row, unsigned Ev, unsigned Words) {
  std::fill(Row, Row + Words, 0);
  Row[Ev / 64] |= uint64_t(1) << (Ev % 64);
}

} // namespace

/// One evaluation sweep over all threads. Returns true if any event
/// state changed. When \p Verify is non-null, also checks constraints /
/// address resolution / rf location agreement, computes dependency
/// taints and records observed registers.
bool ComboWorker::sweep(const std::vector<size_t> &RfChoice, bool *Verify) {
  bool Changed = false;
  const unsigned W = RowWords;
  std::fill(RegFile.begin(), RegFile.end(), SimVal());
  if (Verify) {
    std::fill(Taint.begin(), Taint.end(), 0);
    std::fill(AddrDeps.begin(), AddrDeps.end(), 0);
    std::fill(DataDeps.begin(), DataDeps.end(), 0);
    std::fill(CtrlDeps.begin(), CtrlDeps.end(), 0);
    ObservedRegs.clear();
  }
  auto Update = [&](unsigned Ev, const EvState &NewState) {
    if (!(State[Ev] == NewState)) {
      State[Ev] = NewState;
      Changed = true;
    }
  };
  unsigned Obs = 0;
  for (unsigned T = 0, Begin = 0; T != ThreadEnd.size();
       Begin = ThreadEnd[T++]) {
    if (Verify)
      std::fill(CtrlTaint.begin(), CtrlTaint.end(), 0);
    for (unsigned I = Begin; I != ThreadEnd[T]; ++I) {
      const SweepOp &C = Code[I];
      const SimOp &Op = *C.Op;
      auto ResolveAddr = [&](unsigned Ev) -> LocId {
        if (C.Base == kNoSlot)
          return C.Loc;
        const SimVal &Base = RegFile[C.Base];
        if (Base.K == SimVal::Kind::Addr) {
          if (Verify)
            orRow(row(AddrDeps, Ev), row(Taint, C.Base), W);
          return Locs.resolve(Base.Sym, C.Off);
        }
        if (Verify)
          *Verify = false; // unresolvable dynamic address
        return kNoLoc;
      };
      auto TaintOfUses = [&](uint64_t *Dst) {
        for (unsigned U = C.UsesBegin; U != C.UsesEnd; ++U)
          orRow(Dst, row(Taint, Uses[U]), W);
      };
      switch (Op.K) {
      case SimOp::Kind::Assign: {
        if (Verify) {
          std::fill(TaintTmp.begin(), TaintTmp.end(), 0);
          TaintOfUses(TaintTmp.data());
          std::copy(TaintTmp.begin(), TaintTmp.end(), row(Taint, C.Dst));
        }
        RegFile[C.Dst] = evalSlots(C.Val);
        break;
      }
      case SimOp::Kind::AddrOf: {
        RegFile[C.Dst] = C.Const;
        if (Verify)
          std::fill_n(row(Taint, C.Dst), W, 0);
        break;
      }
      case SimOp::Kind::Constraint: {
        if (Verify) {
          SimVal V = evalSlots(C.Val);
          bool NonZero = !V.V.isZero() || V.K == SimVal::Kind::Addr;
          if (NonZero != Op.ConstraintNonZero)
            *Verify = false;
          TaintOfUses(CtrlTaint.data());
        }
        break;
      }
      case SimOp::Kind::Fence: {
        if (Verify)
          orRow(row(CtrlDeps, C.Ev0), CtrlTaint.data(), W);
        break;
      }
      case SimOp::Kind::Load: {
        unsigned ReadEv = C.Ev0;
        LocId Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(RfChoice, ReadEv);
        SimVal V = truncAt(Loc, State[RfW].Val);
        Update(ReadEv, EvState{V, Loc});
        if (C.Dst != kNoSlot) {
          if (Op.Is128) {
            RegFile[C.Dst] = SimVal{SimVal::Kind::Int, Value(V.V.Lo), Symbol()};
            RegFile[C.Dst2] =
                SimVal{SimVal::Kind::Int, Value(V.V.Hi), Symbol()};
            if (Verify) {
              setOnly(row(Taint, C.Dst), ReadEv, W);
              setOnly(row(Taint, C.Dst2), ReadEv, W);
            }
          } else {
            RegFile[C.Dst] = V;
            if (Verify)
              setOnly(row(Taint, C.Dst), ReadEv, W);
          }
        }
        if (Verify) {
          orRow(row(CtrlDeps, ReadEv), CtrlTaint.data(), W);
          // rf source must be a write to the same resolved location.
          if (Loc == kNoLoc || State[RfW].Loc != Loc)
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Store: {
        unsigned WriteEv = C.Ev0;
        LocId Loc = ResolveAddr(WriteEv);
        SimVal V = evalSlots(C.Val);
        if (Op.Is128) {
          SimVal Hi = evalSlots(C.ValHi);
          V = SimVal{SimVal::Kind::Int, Value(V.V.Lo, Hi.V.Lo), Symbol()};
        }
        Update(WriteEv, EvState{truncAt(Loc, V), Loc});
        if (C.Dst != kNoSlot) {
          // Exclusive-store status register: success (herd assumes
          // exclusive pairs succeed; failing paths are infeasible).
          RegFile[C.Dst] = C.Const;
          if (Verify)
            std::fill_n(row(Taint, C.Dst), W, 0);
        }
        if (Verify) {
          TaintOfUses(row(DataDeps, WriteEv));
          orRow(row(CtrlDeps, WriteEv), CtrlTaint.data(), W);
          if (Loc == kNoLoc)
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Rmw: {
        unsigned ReadEv = C.Ev0, WriteEv = C.Ev1;
        LocId Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(RfChoice, ReadEv);
        SimVal Old = truncAt(Loc, State[RfW].Val);
        SimVal Operand = evalSlots(C.Val);
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
        Update(ReadEv, EvState{Old, Loc});
        Update(WriteEv, EvState{truncAt(Loc, New), Loc});
        if (C.Dst != kNoSlot) {
          RegFile[C.Dst] = Old;
          if (Verify)
            setOnly(row(Taint, C.Dst), ReadEv, W);
        }
        if (Verify) {
          TaintOfUses(row(DataDeps, WriteEv));
          orRow(row(CtrlDeps, ReadEv), CtrlTaint.data(), W);
          orRow(row(CtrlDeps, WriteEv), CtrlTaint.data(), W);
          if (Loc == kNoLoc || State[RfW].Loc != Loc)
            *Verify = false;
        }
        break;
      }
      }
    }
    if (Verify)
      for (size_t K = Prog.Threads[T].Observed.size(); K != 0; --K, ++Obs)
        ObservedRegs.emplace_back(ObservedRegSym[Obs],
                                  ObservedSlot[Obs] == kNoSlot
                                      ? Value()
                                      : RegFile[ObservedSlot[Obs]].V);
  }
  return Changed;
}

/// Fixpoint value resolution; true when this rf assignment is
/// consistent (stable values, feasible branches, matching addresses).
bool ComboWorker::resolveValues(const std::vector<size_t> &RfChoice) {
  // The sweeps could only stabilise on v == trunc(v + c), which has no
  // solution: they would run all MaxRounds and reject.
  for (const auto &[RI, CI] : SelfIncrements)
    if (RfChoice[RI] == CI)
      return false;
  unsigned N = Events.size();
  State.assign(N, EvState());
  for (unsigned I = 0; I != N && Events[I].IsInit; ++I)
    State[I] = EvState{Locs.initValue(Events[I].Loc), Events[I].Loc};
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

/// Builds the per-combo execution skeleton: events with kinds, threads,
/// static locations and tags (including ConstWrite for statically-
/// located writes), po, and rmw edges. CandEx starts each combo as a
/// copy and is patched per candidate: only Loc/Val/rf/co/deps (and
/// ConstWrite on dynamically-located writes) vary within a combo.
void ComboWorker::buildSkeletonExecution() {
  unsigned N = Events.size();
  SkelEx = Execution();
  SkelEx.Events.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    Event &E = SkelEx.Events[I];
    E.Id = I;
    E.Kind = Events[I].Kind;
    if (Events[I].Loc != kNoLoc)
      E.Loc = Locs.name(Events[I].Loc);
    if (Events[I].IsInit) {
      E.Thread = Event::InitThread;
      E.PoIndex = 0;
      E.Tags = {"IW"};
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
    if (Events[I].Kind == EventKind::Write && Events[I].Loc != kNoLoc)
      if (const SimLoc *L = Locs.decl(Events[I].Loc); L && L->Const)
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
  CandEx = SkelEx;
  CandLoc.resize(N);
  for (unsigned I = 0; I != N; ++I)
    CandLoc[I] = Events[I].Loc;
}

/// Instantiates the skeleton for the current rf assignment: resolved
/// values/locations, rf edges and dependency relations. Coherence is
/// filled in per permutation by checkCandidate.
void ComboWorker::buildCandidateExecution() {
  unsigned N = Events.size();
  for (unsigned I = 0; I != N; ++I) {
    Event &E = CandEx.Events[I];
    E.Val = State[I].Val.V;
    LocId L = State[I].Loc;
    if (L == CandLoc[I])
      continue;
    // Only dynamically located accesses move between candidates.
    CandLoc[I] = L;
    E.Loc = L == kNoLoc ? std::string() : Locs.name(L);
    // A write whose location only resolved now may hit a const
    // location (static ones were tagged in the skeleton).
    if (Events[I].Kind == EventKind::Write) {
      E.Tags = SkelEx.Events[I].Tags;
      if (const SimLoc *D = L == kNoLoc ? nullptr : Locs.decl(L);
          D && D->Const)
        E.Tags.insert("ConstWrite");
    }
  }
  CandEx.Rf = SkelEx.Rf;
  CandEx.Addr = SkelEx.Addr;
  CandEx.Data = SkelEx.Data;
  CandEx.Ctrl = SkelEx.Ctrl;
  for (unsigned RI = 0; RI != Reads.size(); ++RI)
    CandEx.Rf.set(RfCand[RI][RfChoice[RI]], Reads[RI]);
  auto AddDeps = [&](Relation &Rel, std::vector<uint64_t> &Rows) {
    for (unsigned Ev = 0; Ev != N; ++Ev) {
      const uint64_t *Row = row(Rows, Ev);
      for (unsigned WI = 0; WI != RowWords; ++WI)
        for (uint64_t Bits = Row[WI]; Bits; Bits &= Bits - 1)
          Rel.set(WI * 64 + unsigned(__builtin_ctzll(Bits)), Ev);
    }
  };
  AddDeps(CandEx.Addr, AddrDeps);
  AddDeps(CandEx.Data, DataDeps);
  AddDeps(CandEx.Ctrl, CtrlDeps);
}

/// Enumerates per-location coherence orders and model-checks each
/// complete candidate.
void ComboWorker::enumerateCo() {
  // Group non-init writes by resolved location, in po order; groups go
  // in location-name order, which fixes the enumeration order of the
  // coherence candidates (and so collected executions and budget cuts).
  GroupOf.assign(Locs.size(), ~0u);
  CoGroupLoc.clear();
  for (unsigned W : Writes)
    if (!Events[W].IsInit && GroupOf[State[W].Loc] == ~0u) {
      GroupOf[State[W].Loc] = 0;
      CoGroupLoc.push_back(State[W].Loc);
    }
  std::sort(CoGroupLoc.begin(), CoGroupLoc.end(), [&](LocId A, LocId B) {
    return Locs.name(A) < Locs.name(B);
  });
  if (CoGroups.size() < CoGroupLoc.size())
    CoGroups.resize(CoGroupLoc.size());
  for (unsigned G = 0; G != CoGroupLoc.size(); ++G) {
    GroupOf[CoGroupLoc[G]] = G;
    CoGroups[G].clear();
  }
  for (unsigned W : Writes)
    if (!Events[W].IsInit)
      CoGroups[GroupOf[State[W].Loc]].push_back(W);
  // Recursively permute each group.
  permuteGroups(0);
}

void ComboWorker::permuteGroups(size_t GI) {
  if (shouldStop())
    return;
  if (GI == CoGroupLoc.size()) {
    if (!budget())
      return;
    ++WR.Stats.CoCandidates;
    checkCandidate();
    return;
  }
  std::vector<unsigned> &G = CoGroups[GI];
  std::sort(G.begin(), G.end());
  do {
    permuteGroups(GI + 1);
    if (shouldStop())
      return;
  } while (std::next_permutation(G.begin(), G.end()));
}

/// Completes the candidate execution with the current coherence
/// permutation and runs the model.
void ComboWorker::checkCandidate() {
  // co: init write of each location first, then the group permutation.
  // Locations written by nobody keep their init write alone in co
  // (singleton chains need no edges).
  CandEx.Co = SkelEx.Co;
  for (unsigned GI = 0; GI != CoGroupLoc.size(); ++GI) {
    const std::vector<unsigned> &G = CoGroups[GI];
    unsigned Init = Locs.initEvent(CoGroupLoc[GI]);
    for (size_t A = 0; A != G.size(); ++A) {
      if (Init != ~0u)
        CandEx.Co.set(Init, G[A]);
      for (size_t B = A + 1; B != G.size(); ++B)
        CandEx.Co.set(G[A], G[B]);
    }
  }

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
  // Outcome: observed registers + observed locations' final values,
  // each written by the co-maximal write: the last of its group, else
  // the init write; a location nobody writes has none.
  Outcome O;
  for (const auto &[Key, V] : ObservedRegs)
    O.set(Key, V);
  for (size_t L = 0; L != ObservedLocId.size(); ++L) {
    LocId Id = ObservedLocId[L];
    unsigned Last = GroupOf[Id] != ~0u ? CoGroups[GroupOf[Id]].back()
                                       : Locs.initEvent(Id);
    O.set(ObservedLocSym[L], Last == ~0u ? Value() : State[Last].Val.V);
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
