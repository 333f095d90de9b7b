//===--- EnumCore.h - Shared per-combo enumeration machinery ----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machinery the three consistency engines share, factored out of
/// the sweep enumerator so the constraint solver (src/solve/) and the
/// explorer (src/explore/) are alternative *searches* over the same
/// per-combo engine rather than second implementations of the
/// semantics:
///
///  - ComboWorker owns everything below an engine's search strategy:
///    skeleton construction, rf candidate lists, the abstract value
///    pass and its prune checks, the value-resolution fixpoint,
///    coherence enumeration and Cat filtering, stats and collection.
///    processShard() prepares a combo and hands its rf range to
///    searchCombo(): the sweep iterates the rf index space, the solver
///    drives a decision tree over the same candidate lists, the
///    explorer replays schedules; both of the latter call
///    runAssignment() per complete assignment. Sweep and solve visit
///    complete assignments in mixed-radix odometer order, so completed
///    runs are byte-identical across them.
///
///  - runEngine() is the one run driver: SharedState (the run-wide
///    atomic step budget and stop flags), the sequential or sharded
///    walk over path combos, and the merge of per-worker results in
///    enumeration order.
///
/// This header is an internal seam between src/sim/ and the engines,
/// not public API: everything is deliberately open (public members) and
/// may change shape between the engines' needs. External callers use
/// sim/Backend.h.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_ENUMCORE_H
#define TELECHAT_SIM_ENUMCORE_H

#include "sim/AbsDomain.h"
#include "sim/Enumerator.h"
#include "support/Interner.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace telechat {
namespace simcore {

/// A dense location id: an index into a worker's LocTable.
using LocId = unsigned;
constexpr LocId kNoLoc = ~0u;
/// "No register": an index past every register-file slot.
constexpr unsigned kNoSlot = ~0u;

/// A worker's dense location ids. Every name an access can resolve to
/// gets one id on first sight: the declared locations up front, then
/// observed locations and static "sym+off" names, and dynamic (base
/// symbol, offset) pairs when value resolution meets them. Ids never
/// change once handed out, and they are worker-local: nothing
/// observable depends on their numbering (coherence groups are ordered
/// by name), so workers may number dynamic locations differently.
class LocTable {
public:
  /// Interns the program's declared locations. Init event I of every
  /// combo writes Prog.Locations[I].
  explicit LocTable(const SimProgram &Prog);

  /// The id of \p Name, added on first sight.
  LocId intern(const std::string &Name);
  /// The id of location "Base+Off" (SimAddr::locName), cached per
  /// (base, offset) pair so repeated resolutions build no string.
  LocId resolve(Symbol Base, int64_t Off);

  size_t size() const { return Names.size(); }
  const std::string &name(LocId L) const { return Names[L]; }
  /// The first declaration of the name (SimProgram::findLocation's
  /// answer), or null: the width rule and the Const flag.
  const SimLoc *decl(LocId L) const { return Decls[L]; }
  /// The init write of the location (its last declaration), or ~0u.
  unsigned initEvent(LocId L) const { return InitEvs[L]; }
  /// The location's initial value (init writes carry the value of the
  /// first declaration, addresses resolved through addressOf).
  SimVal initValue(LocId L) const { return InitVals[L]; }
  /// The value of "&Name": the synthetic address 0x1000 * (I + 1) of
  /// its last declaration I. Throws std::out_of_range for an undeclared
  /// name (the frontends reject those).
  SimVal addressOf(const std::string &Name) const;

private:
  struct BaseKeyHash {
    size_t operator()(const std::pair<const void *, int64_t> &K) const {
      return std::hash<const void *>()(K.first) ^
             (std::hash<int64_t>()(K.second) * 0x9e3779b97f4a7c15ull);
    }
  };

  const SimProgram &Prog;
  std::vector<std::string> Names;
  std::vector<const SimLoc *> Decls;
  std::vector<unsigned> InitEvs;
  std::vector<SimVal> Addrs; ///< addressOf per id; Kind::Int when undeclared.
  std::vector<SimVal> InitVals;
  std::unordered_map<std::string, LocId> ByName;
  std::unordered_map<std::pair<const void *, int64_t>, LocId, BaseKeyHash>
      ByBase;
};

/// Per-event mutable state during value resolution.
struct EvState {
  SimVal Val;         ///< Value written (W) or read (R).
  LocId Loc = kNoLoc; ///< Resolved location; kNoLoc while unknown.

  bool operator==(const EvState &RHS) const {
    return Val == RHS.Val && Loc == RHS.Loc;
  }
};

/// Static (per path-combo) description of one event.
struct EvInfo {
  unsigned Thread = 0;
  unsigned OpIndex = 0; ///< Index into the owning thread's op list.
  EventKind Kind = EventKind::Read;
  const SimOp *Op = nullptr; ///< Null for init writes.
  bool IsInit = false;
  /// Init writes and statically addressed accesses: the location;
  /// kNoLoc for dynamically addressed accesses and fences.
  LocId Loc = kNoLoc;
};

/// One node of a slot-resolved expression: Expr with register names
/// replaced by register-file slots.
struct SlotExpr {
  Expr::Kind K = Expr::Kind::Imm;
  SimVal Imm;               ///< Kind::Imm, as evalSimExpr yields it.
  unsigned Slot = kNoSlot;  ///< Kind::Reg.
  unsigned L = 0, R = 0;    ///< Binary kinds: child node indexes.
};

/// One op of a chosen path compiled for the resolution sweep: registers
/// are slots, static locations ids, and everything that depends only on
/// the path combo is computed once, in prepareCombo.
struct SweepOp {
  const SimOp *Op = nullptr;
  unsigned Ev0 = ~0u, Ev1 = ~0u; ///< Events in creation order.
  /// Register written by the op (kNoSlot when it writes none); Dst2 is
  /// the high half of a 128-bit load.
  unsigned Dst = kNoSlot, Dst2 = kNoSlot;
  unsigned Val = 0, ValHi = 0; ///< SlotExpr roots (when the op has them).
  /// Slots the op's expressions read, [UsesBegin, UsesEnd) of the
  /// combo's use list: the sources of data and control taint.
  unsigned UsesBegin = 0, UsesEnd = 0;
  /// Static accesses: the location and its declaration. Dynamic ones:
  /// the base register and byte offset, resolved per sweep.
  LocId Loc = kNoLoc;
  const SimLoc *Decl = nullptr;
  unsigned Base = kNoSlot;
  int64_t Off = 0;
  /// AddrOf: the address. Exclusive stores: the status value.
  SimVal Const;
};

constexpr uint64_t kFullRange = ~uint64_t(0);

/// One unit of schedulable work: a contiguous range [RfLo, RfHi) of the
/// rf index space of one path combo. RfHi == kFullRange means "to the
/// end". Index is the shard's position in global enumeration order.
struct Shard {
  uint64_t Combo = 0;
  uint64_t RfLo = 0;
  uint64_t RfHi = kFullRange;
  size_t Index = 0;
};

/// Multiplication saturating at UINT64_MAX (candidate spaces overflow
/// 64 bits long before the step budget lets anyone visit them).
inline uint64_t satMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > kFullRange / B)
    return kFullRange;
  return A * B;
}

/// State shared by all workers of one enumeration run.
struct SharedState {
  uint64_t MaxSteps = 0;
  double TimeoutSeconds = 0.0;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> Steps{0};
  std::atomic<bool> TimedOut{false};
  std::atomic<bool> Aborted{false}; ///< Model error: stop all workers.

  /// Cross-worker cache of per-combo Cat stable layers. Enabled (by the
  /// driver) only when several workers split the rf space of the same
  /// combos; layers are immutable, so sharing them is read-only.
  bool ShareLayerCache = false;
  std::mutex LayerM;
  std::map<uint64_t, std::shared_ptr<const CatStableLayer>> Layers;

  bool stopped() const {
    return TimedOut.load(std::memory_order_relaxed) ||
           Aborted.load(std::memory_order_relaxed);
  }

  /// Draws one enumeration step from the shared budget. Mirrors the
  /// sequential semantics exactly: step MaxSteps succeeds, step
  /// MaxSteps+1 trips the timeout.
  bool take() {
    if (stopped())
      return false;
    uint64_t Old = Steps.fetch_add(1, std::memory_order_relaxed);
    if (Old >= MaxSteps) {
      TimedOut.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

/// Everything one worker accumulates; merged in shard order at the end.
struct WorkerResult {
  OutcomeSet Allowed;
  /// Interned: a flag fires once per allowed candidate, so merging
  /// symbols instead of strings keeps the per-candidate cost at a
  /// pointer compare. Converted to strings once, at the final merge.
  std::set<Symbol> Flags;
  SimStats Stats;
  /// Shard index -> executions collected from that shard, in enumeration
  /// order (each capped at MaxCollectedExecutions).
  std::map<size_t, std::vector<Execution>> Execs;
  std::string Error;
  size_t ErrorShard = ~size_t(0);
};

/// A worker: owns all per-combo scratch state plus the candidate test
/// pipeline (fixpoint, co, Cat). The driver hands it shards
/// (processShard); an engine supplies only its per-combo search by
/// overriding searchCombo(), whose default is the sweep. The
/// last-prepared combo skeleton is cached, so a worker draining its
/// contiguous shard range re-prepares only on combo boundaries.
class ComboWorker {
public:
  /// RfChoice slot value for "this read is not assigned yet". The solve
  /// and explore searches build assignments read by read; the sweep
  /// always runs with every slot filled.
  static constexpr size_t kNoChoice = ~size_t(0);

  /// The rf-chain support of one resolved check evaluation: the
  /// (read index, candidate index) assignments the evaluation actually
  /// used. A violated check's support is a nogood -- those assignments
  /// can never again appear together.
  using SupportVec = std::vector<std::pair<unsigned, unsigned>>;

  ComboWorker(const SimProgram &Program, const CatModel &Model,
              const SimOptions &Options, SharedState &Shared);
  virtual ~ComboWorker() = default;
  ComboWorker(const ComboWorker &) = delete;
  ComboWorker &operator=(const ComboWorker &) = delete;

  WorkerResult WR;

  bool shouldStop() const { return LocalStop || Shared.stopped(); }

  /// Cat evaluations served from per-combo layers; folded into the
  /// merged stats after all shards finished.
  uint64_t catEvalsAvoided() const {
    return Eval.stats().BindingEvalsAvoided + Eval.stats().CheckEvalsAvoided;
  }

  /// Processes one shard: prepares its combo (on a combo boundary),
  /// accounts the combo once (at the origin of its rf space), and runs
  /// searchCombo over the shard's part of the space.
  void processShard(const Shard &S);

  /// The engine's search over rf assignments [Lo, Hi) of the prepared
  /// combo; called only for a nonempty range. This default is the
  /// sweep: it iterates the mixed-radix index space with RfChoice[0]
  /// least significant, matching the sequential odometer order. The
  /// solve and explore workers override it and are only ever handed a
  /// whole combo.
  virtual void searchCombo(uint64_t Lo, uint64_t Hi);

  /// Builds the event skeleton and rf candidates for one path combo and
  /// returns the size of its rf index space (saturating, after
  /// constraint-based filtering). Used by shard processing and by the
  /// driver's rf-splitting pre-pass; both must agree on the space.
  uint64_t prepareCombo(uint64_t Combo);

  /// Draws one step; on exhaustion (or another worker stopping) requests
  /// local unwinding.
  bool budget();

  /// Adopts a published Cat stable layer for this combo if another
  /// worker already computed one, else arranges lazy computation.
  void bindComboEvaluator(uint64_t Combo);

  /// Publishes this combo's computed stable layer for other workers
  /// splitting the same combo. First publisher wins; layers for one
  /// combo are interchangeable.
  void publishLayer();

  /// Tests the complete rf assignment in RfChoice: value-resolution
  /// fixpoint, then coherence enumeration and Cat filtering of the
  /// consistent candidate. One sweep inner-loop iteration without the
  /// budget draw and pre-fixpoint prune (the solve and explore searches
  /// charge and check their own).
  void runAssignment();

  /// O(events) rejection of the current rf assignment: true when
  /// ComboInfeasible, or some path constraint resolvable under the
  /// (possibly partial -- kNoChoice slots) RfChoice provably evaluates
  /// to the wrong truth value, i.e. every completion of this assignment
  /// would be rejected by the resolution fixpoint. With \p Support
  /// non-null, fills it with the assignments the violated check's
  /// evaluation traversed (empty for a constant violation).
  bool violatedCheck(SupportVec *Support) const;

  const SimProgram &Prog;
  const CatModel &Model;
  SimOptions Opts;
  SharedState &Shared;
  CatEvaluator Eval;

  bool LocalStop = false;
  uint64_t LocalSteps = 0;
  uint64_t CurCombo = kFullRange;
  size_t CurShardIdx = 0;
  uint64_t RfSpace = 0;
  bool LayerPublished = false;

  LocTable Locs;

  // Per path-combo state.
  std::vector<EvInfo> Events;
  std::vector<const SimPath *> Paths; ///< The chosen path per thread.
  /// Per thread: (op index, event id) pairs in creation order.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> OpEvents;
  std::vector<unsigned> Reads;
  std::vector<unsigned> Writes;
  std::vector<unsigned> ReadIndexOf; ///< Event id -> index into Reads.
  std::vector<std::vector<unsigned>> RfCand;
  std::vector<size_t> RfChoice;
  bool AllStaticCombo = false;
  Execution SkelEx; ///< Candidate-invariant part of the execution.
  // The chosen paths compiled for the sweep: ops in thread order
  // (thread T's are [ThreadEnd[T-1], ThreadEnd[T])), their expression
  // nodes and taint sources, and per observed register its slot.
  std::vector<SweepOp> Code;
  std::vector<unsigned> ThreadEnd;
  std::vector<SlotExpr> Exprs;
  std::vector<unsigned> Uses;
  std::vector<unsigned> ObservedSlot;
  unsigned NumSlots = 0;
  // Constraint-propagation state (see computeAbstract / AbsDomain.h).
  std::vector<std::pair<unsigned, SimVal>> InitWrites;
  std::vector<std::vector<AbsThreadOp>> ThreadOps;
  std::vector<AbsVal> EvAbs;
  std::vector<PruneCheck> PruneChecks;
  bool ComboInfeasible = false;
  uint64_t ComboRfSourcesPruned = 0;
  /// (read index, candidate index) pairs whose write stores the read's
  /// own value plus a nonzero constant (AbsXform::hasNoFixedPoint): an
  /// assignment choosing one has no stable values, so resolveValues
  /// rejects it without sweeping. Empty unless RfValuePruning.
  std::vector<std::pair<unsigned, unsigned>> SelfIncrements;

  // Per rf-candidate state. Taints and dependencies are bit rows over
  // event ids, RowWords words each: one row per register slot (Taint),
  // one per event (AddrDeps/DataDeps/CtrlDeps: the row of event E holds
  // the reads E depends on) and the running control taint.
  std::vector<EvState> State;
  std::vector<SimVal> RegFile;
  unsigned RowWords = 0;
  std::vector<uint64_t> Taint, AddrDeps, DataDeps, CtrlDeps, CtrlTaint,
      TaintTmp;
  std::vector<std::pair<Symbol, Value>> ObservedRegs;
  /// Outcome keys, interned once per run: observed registers flattened
  /// in thread order, and observed locations in program order (with
  /// their location ids).
  std::vector<Symbol> ObservedRegSym, ObservedLocSym;
  std::vector<LocId> ObservedLocId;
  Execution CandEx; ///< Skeleton + values + rf + deps; Co set per perm.
  /// The location each CandEx event currently names (CandEx is reset to
  /// the skeleton once per combo and patched per candidate).
  std::vector<LocId> CandLoc;
  // Coherence groups of the current candidate: non-init writes per
  // location, groups ordered by location name; GroupOf maps a location
  // id to its group (~0u for none).
  std::vector<std::vector<unsigned>> CoGroups;
  std::vector<LocId> CoGroupLoc;
  std::vector<unsigned> GroupOf;

  /// The value read event \p ReadEv observes under the current RfChoice,
  /// following rf through copy and transform writes; nullopt when it
  /// reaches untracked territory (Top, dynamic locations, rf cycles, an
  /// unassigned read). With \p Support non-null, records every
  /// (read index, candidate index) assignment traversed.
  std::optional<SimVal> resolveReadAbs(unsigned ReadEv, unsigned Depth,
                                       SupportVec *Support) const;
  std::optional<SimVal> resolveWriteAbs(unsigned W, unsigned Depth,
                                        SupportVec *Support) const;

  /// Sweep-path shorthand: violatedCheck without support collection.
  bool prunedByConstraints() const { return violatedCheck(nullptr); }

  /// The width rule at location \p L (kNoLoc: no-op).
  SimVal truncAt(LocId L, SimVal V) const {
    return L == kNoLoc ? V : truncAtLoc(Locs.decl(L), V);
  }
  void compilePaths();
  unsigned compileExpr(const Expr &E,
                       std::map<std::string, unsigned> &Slots);
  SimVal evalSlots(unsigned Node) const;
  uint64_t *row(std::vector<uint64_t> &Bits, unsigned I) {
    return Bits.data() + size_t(I) * RowWords;
  }
  void computeAbstract();
  void filterRfCandidates();
  void findSelfIncrements();
  bool sweep(const std::vector<size_t> &RfChoice, bool *Verify);
  unsigned rfSource(const std::vector<size_t> &RfChoice,
                    unsigned ReadEv) const {
    unsigned RI = ReadIndexOf[ReadEv];
    return RfCand[RI][RfChoice[RI]];
  }
  bool resolveValues(const std::vector<size_t> &RfChoice);
  void buildSkeletonExecution();
  void buildCandidateExecution();
  void enumerateCo();
  void permuteGroups(size_t GI);
  void checkCandidate();
  void collectExecution(const Execution &Ex);
};

/// The solve engine's worker (src/solve/Solver.cpp).
std::unique_ptr<ComboWorker> makeSolveWorker(const SimProgram &Program,
                                             const CatModel &Model,
                                             const SimOptions &Options,
                                             SharedState &Shared);
/// The explore engine's worker (src/explore/Explorer.cpp).
std::unique_ptr<ComboWorker> makeExploreWorker(const SimProgram &Program,
                                               const CatModel &Model,
                                               const SimOptions &Options,
                                               SharedState &Shared);

/// Runs \p Program under \p Model on \p Engine (Sweep, Solve or
/// Explore; resolved by simulate()): walks the path combos sequentially
/// or over the work-stealing scheduler, merges the workers in shard
/// order and stamps SimStats::BackendUsed and Seconds.
SimResult runEngine(const SimProgram &Program, const CatModel &Model,
                    const SimOptions &Options, SimBackendKind Engine);

} // namespace simcore
} // namespace telechat

#endif // TELECHAT_SIM_ENUMCORE_H
