//===--- Explorer.cpp - Dynamic scheduler-exploration oracle --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per path combo, each iteration replays the combo's chosen paths
/// under one schedule of an instrumented cooperative scheduler:
///
///  - even iterations draw the next thread from a seeded PRNG with a
///    preemption bound (ExploreMaxContextSwitches): once the bound is
///    spent the current thread runs to completion -- the CHESS
///    observation that most weak-memory bugs hide in low-preemption
///    schedules;
///  - odd iterations are systematic round-robin with a rotating start
///    thread and a varying quantum, guaranteeing coverage of the
///    regular interleavings the PRNG may keep missing;
///  - a load's candidate sources are the stores of its (filtered) rf
///    candidate list that have already executed in this schedule,
///    narrowed by a per-atomic visibility history: each thread keeps a
///    per-location floor below which stores are no longer readable
///    (its own accesses advance it; acquire loads merge the floor
///    snapshot recorded by the release store they read), so relaxed
///    loads legally return stale values while coherence-impossible
///    ones are never offered. An empty candidate set blocks the
///    thread; a fully-blocked schedule aborts the iteration.
///
/// The complete rf assignment a schedule reaches is deduplicated
/// against the combo's already-tried set and validated through the
/// shared per-assignment pipeline (violatedCheck + runAssignment:
/// fixpoint, *exhaustive* coherence enumeration, Cat filtering).
/// Soundness is therefore by construction -- an outcome is reported
/// only if the same machinery the sweep runs on the same (combo,
/// assignment) reports it. Convergence on rc11-style (porf-acyclic)
/// models follows because every consistent execution has a topological
/// schedule in which each read's source was executed earlier, and the
/// history offers every coherence-legal stale store at that point.
///
/// Iteration i of combo c is a pure function of (ExploreSeed, c, i)
/// and the run driver (simcore::runEngine) gives this engine one combo
/// per shard, so results merge Jobs-invariantly like the other engines.
///
//===----------------------------------------------------------------------===//

#include "sim/EnumCore.h"

#include <algorithm>
#include <set>

using namespace telechat;
using namespace telechat::simcore;

namespace {

/// SplitMix64: tiny, statistically solid, and trivially seedable from
/// (seed, combo, iteration) so schedules never depend on run state.
struct SplitMix64 {
  uint64_t S;
  uint64_t next() {
    S += 0x9e3779b97f4a7c15ull;
    uint64_t Z = S;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Unbiased-enough bounded draw (N is tiny: threads, candidates).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

constexpr size_t kNoPos = ~size_t(0);

/// Acquire-or-stronger read tags (C/C++ and AArch64 spellings). The
/// tags only tune the visibility heuristic -- misclassifying one keeps
/// results sound, it just shifts which schedules reach which
/// assignments.
bool hasAcqTag(const std::set<std::string> &Tags) {
  return Tags.count("ACQ") || Tags.count("ACQ_REL") || Tags.count("SC") ||
         Tags.count("A") || Tags.count("Q");
}
/// Release-or-stronger write tags.
bool hasRelTag(const std::set<std::string> &Tags) {
  return Tags.count("REL") || Tags.count("ACQ_REL") || Tags.count("SC") ||
         Tags.count("L");
}

/// One worker: the shared per-combo engine plus the scheduler state.
/// Everything below is re-initialised per combo (scaffold) or per
/// iteration (schedule state); nothing leaks across combos, keeping
/// per-combo iteration counts deterministic for any Jobs value.
class ExploreWorker final : public ComboWorker {
public:
  using ComboWorker::ComboWorker;

  /// Explores the whole prepared combo (one combo is one shard).
  void searchCombo(uint64_t, uint64_t) override {
    const size_t NR = Reads.size();
    RfChoice.assign(NR, kNoChoice);
    if (NR == 0) {
      // The one-assignment combo; mirrors the sweep's single step and
      // counts as one (trivially complete) schedule so read-free units
      // still report nonzero exploration coverage.
      if (!budget())
        return;
      ++WR.Stats.ExploreIterations;
      ++WR.Stats.ExploreSchedules;
      if (!violatedCheck(nullptr))
        runAssignment();
      return;
    }
    buildScaffold();
    Tried.clear();
    for (uint64_t It = 0; It != Opts.ExploreIterations; ++It) {
      if (shouldStop() || !budget())
        break;
      ++WR.Stats.ExploreIterations;
      if (runSchedule(CurCombo, It) && Tried.insert(RfChoice).second) {
        ++WR.Stats.ExploreSchedules;
        if (violatedCheck(nullptr))
          ++WR.Stats.RfPruned;
        else
          runAssignment();
        if (shouldStop())
          break;
        // Every assignment of the (filtered) space has been reached:
        // further schedules cannot add outcomes. This is what makes
        // the default budget *equal* to the sweep on small spaces.
        if (uint64_t(Tried.size()) == RfSpace)
          break;
      }
      RfChoice.assign(NR, kNoChoice);
    }
  }

private:
  /// rf assignments already validated this combo (schedules routinely
  /// rediscover each other's choices; validation is the pricey part).
  std::set<std::vector<size_t>> Tried;

  // --- Per-combo scaffold (schedule-invariant). ---
  /// Location ids are the worker's (EvInfo::Loc: kNoLoc for dynamic
  /// addresses and fences), all below NumLocs.
  unsigned NumLocs = 0;
  std::vector<bool> EvAcq;       ///< Read events: acquire-or-stronger.
  std::vector<bool> EvRel;       ///< Write events: release-or-stronger.

  // --- Per-iteration schedule state. ---
  std::vector<size_t> Cursor;     ///< Per thread: next OpEvents entry.
  std::vector<bool> Executed;     ///< Event id -> ran in this schedule.
  std::vector<size_t> HistPos;    ///< Event id -> position in loc history.
  std::vector<size_t> HistLen;    ///< Location -> stores appended so far.
  std::vector<std::vector<size_t>> Floors; ///< Thread x loc -> min pos.
  /// Release store event -> the writer's floor snapshot at the store;
  /// merged into the floors of every acquire load that reads it.
  std::map<unsigned, std::vector<size_t>> RelSnap;

  void buildScaffold() {
    NumLocs = unsigned(Locs.size());
    const size_t N = Events.size();
    EvAcq.assign(N, false);
    EvRel.assign(N, false);
    for (size_t I = 0; I != N; ++I) {
      const EvInfo &E = Events[I];
      if (E.IsInit)
        continue;
      if (E.Kind == EventKind::Read)
        EvAcq[I] = hasAcqTag(E.Op->Tags);
      else if (E.Kind == EventKind::Write)
        EvRel[I] = hasRelTag(E.Op->WTags);
    }
  }

  /// Executes one schedule; true when every thread ran to completion
  /// (RfChoice is then complete), false when the schedule deadlocked
  /// on loads with no visible source.
  bool runSchedule(uint64_t Combo, uint64_t It) {
    const size_t NT = OpEvents.size();
    // --- Reset per-iteration state. ---
    Cursor.assign(NT, 0);
    const size_t N = Events.size();
    Executed.assign(N, false);
    HistPos.assign(N, kNoPos);
    HistLen.assign(NumLocs, 0);
    // Init writes are position 0 of their location's history and are
    // visible to everyone from the start.
    for (size_t I = 0; I != N; ++I)
      if (Events[I].IsInit) {
        Executed[I] = true;
        if (Events[I].Loc != kNoLoc) {
          HistPos[I] = 0;
          HistLen[Events[I].Loc] = 1;
        }
      }
    Floors.assign(NT, std::vector<size_t>(NumLocs, 0));
    RelSnap.clear();

    SplitMix64 Rng{mix64(Opts.ExploreSeed ^ mix64(Combo + 1) ^
                         mix64(It * 0x2545f4914f6cdd1dull + 17))};
    const bool RoundRobin = (It & 1) != 0;
    unsigned Prev = ~0u; // Last thread that executed a step.
    unsigned SwitchesLeft = Opts.ExploreMaxContextSwitches;
    unsigned RR = RoundRobin ? unsigned((It / 2) % (NT ? NT : 1)) : 0;
    unsigned Quantum = RoundRobin ? unsigned(1 + (It / 2) % 4) : 0;
    unsigned QuantumLeft = Quantum;

    size_t Remaining = 0;
    for (size_t T = 0; T != NT; ++T)
      Remaining += OpEvents[T].size() > 0;

    while (Remaining != 0) {
      // --- Pick the preferred thread for this step. ---
      unsigned Preferred;
      if (RoundRobin) {
        if (QuantumLeft == 0 || Cursor[RR] == OpEvents[RR].size()) {
          // Quantum spent or thread done: next live thread, fresh
          // quantum. Remaining != 0 guarantees termination.
          do
            RR = unsigned((RR + 1) % NT);
          while (Cursor[RR] == OpEvents[RR].size());
          QuantumLeft = Quantum;
        }
        Preferred = RR;
        --QuantumLeft;
      } else if (Prev != ~0u && Cursor[Prev] != OpEvents[Prev].size() &&
                 SwitchesLeft == 0) {
        Preferred = Prev; // Preemption budget spent: run to completion.
      } else {
        // Draw among live threads; switching away from a live previous
        // thread costs one preemption.
        size_t NL = 0;
        for (unsigned T = 0; T != NT; ++T)
          NL += Cursor[T] != OpEvents[T].size();
        uint64_t Pick = Rng.below(NL);
        Preferred = 0;
        for (unsigned T = 0; T != NT; ++T)
          if (Cursor[T] != OpEvents[T].size() && Pick-- == 0) {
            Preferred = T;
            break;
          }
        if (Prev != ~0u && Preferred != Prev &&
            Cursor[Prev] != OpEvents[Prev].size() && SwitchesLeft != 0)
          --SwitchesLeft;
      }
      // --- Execute the first executable thread from the preferred one
      // (a blocked preference falls through without charging the
      // preemption bound: being forced off a blocked thread is not a
      // preemption). ---
      bool Ran = false;
      for (unsigned K = 0; K != NT; ++K) {
        unsigned T = unsigned((Preferred + K) % NT);
        if (Cursor[T] == OpEvents[T].size())
          continue;
        if (step(T, Rng)) {
          if (Cursor[T] == OpEvents[T].size())
            --Remaining;
          Prev = T;
          Ran = true;
          break;
        }
      }
      if (!Ran)
        return false; // Every live thread is blocked on a load: stuck.
    }
    return true;
  }

  /// Executes thread \p T's next event (an Rmw's read+write execute as
  /// one atomic step). False when the event is a load with no visible
  /// source under the current history -- the thread stays blocked.
  bool step(unsigned T, SplitMix64 &Rng) {
    const auto &[OpIdx, Ev] = OpEvents[T][Cursor[T]];
    const EvInfo &E = Events[Ev];
    if (E.Kind == EventKind::Fence) {
      // Fences order surrounding accesses in the *model*; the history
      // tracks only per-atomic visibility, so execution just advances.
      ++Cursor[T];
      return true;
    }
    if (E.Kind == EventKind::Write) {
      executeWrite(T, Ev);
      ++Cursor[T];
      return true;
    }
    // A load (or the read half of an Rmw).
    const unsigned RI = ReadIndexOf[Ev];
    const std::vector<unsigned> &Cand = RfCand[RI];
    const unsigned L = Events[Ev].Loc;
    std::vector<unsigned> Visible; // Indexes into Cand.
    Visible.reserve(Cand.size());
    for (unsigned CI = 0; CI != Cand.size(); ++CI) {
      const unsigned Src = Cand[CI];
      if (!Executed[Src])
        continue; // Not written yet in this schedule (incl. po-later).
      if (L != kNoLoc && Events[Src].Loc == L && HistPos[Src] != kNoPos &&
          HistPos[Src] < Floors[T][L])
        continue; // Overwritten below this thread's visibility floor.
      Visible.push_back(CI);
    }
    if (Visible.empty())
      return false; // Blocked: other threads must store first.
    const unsigned CI = Visible[size_t(Rng.below(Visible.size()))];
    RfChoice[RI] = CI;
    const unsigned Src = Cand[CI];
    if (L != kNoLoc && Events[Src].Loc == L && HistPos[Src] != kNoPos)
      Floors[T][L] = std::max(Floors[T][L], HistPos[Src]);
    if (EvAcq[Ev]) {
      auto Snap = RelSnap.find(Src);
      if (Snap != RelSnap.end())
        for (unsigned LI = 0; LI != NumLocs; ++LI)
          Floors[T][LI] = std::max(Floors[T][LI], Snap->second[LI]);
    }
    ++Cursor[T];
    // The write half of an Rmw executes atomically with its read.
    if (Cursor[T] != OpEvents[T].size()) {
      const auto &[NextOp, NextEv] = OpEvents[T][Cursor[T]];
      if (NextOp == OpIdx && Events[NextEv].Kind == EventKind::Write) {
        executeWrite(T, NextEv);
        ++Cursor[T];
      }
    }
    return true;
  }

  void executeWrite(unsigned T, unsigned Ev) {
    Executed[Ev] = true;
    const unsigned L = Events[Ev].Loc;
    if (L != kNoLoc) {
      HistPos[Ev] = HistLen[L]++;
      Floors[T][L] = HistPos[Ev]; // Own store: no older reads after it.
    }
    if (EvRel[Ev])
      RelSnap.emplace(Ev, Floors[T]);
  }
};

} // namespace

std::unique_ptr<ComboWorker>
telechat::simcore::makeExploreWorker(const SimProgram &Program,
                                     const CatModel &Model,
                                     const SimOptions &Options,
                                     SharedState &Shared) {
  return std::make_unique<ExploreWorker>(Program, Model, Options, Shared);
}
