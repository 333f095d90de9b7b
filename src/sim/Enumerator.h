//===--- Enumerator.h - Candidate-execution enumeration ---------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The herd-style enumerator: paths x rf x co, with concrete value
/// resolution by least fixpoint and Cat-model filtering. Bounded testing
/// exactly as the paper describes (fixed initial state, fixed unrolling,
/// no recursion), with a step budget standing in for herd's wall-clock
/// timeout (§IV-E).
///
/// Two hot-path optimisations, both on by default and both outcome-
/// preserving (see the field docs for the precise guarantees):
///
///  - *rf value pruning*: read-value constraints implied by the chosen
///    path (branch conditions over loaded values) are propagated onto
///    the rf candidate lists and checked per assignment in O(events),
///    so value-inconsistent rf assignments die before the resolution
///    fixpoint -- and often before ever entering the index space.
///
///  - *incremental Cat evaluation*: the model's po-only-derived layer is
///    evaluated once per path combo (CatEvaluator) instead of once per
///    candidate; rf/co-dependent bindings are the only per-candidate
///    work. Workers splitting one combo's rf space share the layer.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_ENUMERATOR_H
#define TELECHAT_SIM_ENUMERATOR_H

#include "cat/Eval.h"
#include "events/Execution.h"
#include "litmus/Outcome.h"
#include "sim/Program.h"

#include <cstdint>
#include <set>

namespace telechat {

/// Which consistency engine runs a simulation (sim/Backend.h). Sweep
/// and Solve explore the same candidate space in the same enumeration
/// order and produce byte-identical outcomes, flags and collected
/// executions on completed runs; they differ in *how* the space is
/// covered, which the work counters in SimStats measure. Explore
/// reports a sound subset of that set.
enum class SimBackendKind : uint8_t {
  /// The explicit sweep: every rf index is drawn from the mixed-radix
  /// space and tested (Enumerator.cpp). Lowest per-candidate overhead;
  /// cost is proportional to the whole (filtered) space.
  Sweep = 0,
  /// The constraint solver (src/solve/): rf choices become decision
  /// variables, branch/value constraints compile to nogood clauses, and
  /// watched-literal propagation prunes dead subtrees of the decision
  /// tree instead of visiting them. Wins when constraints correlate
  /// several reads; pays a small per-node overhead when they do not.
  Solve = 1,
  /// Pick per program by estimated rf-space size (sim/Backend.h):
  /// small spaces sweep, explosion-prone ones solve.
  Auto = 2,
  /// The dynamic exploration oracle (src/explore/): runs the program
  /// under an instrumented cooperative scheduler with iteration- and
  /// context-switch-bounded search and per-atomic visibility-history
  /// tracking. Unlike the other backends it reports a sound *subset*
  /// of the exhaustive outcome set (every reported outcome is in it;
  /// some may be missed within budget) -- the only backend for which
  /// the byte-identity contract is relaxed to subset inclusion.
  Explore = 3,
};

/// Budgets and collection knobs for one simulation.
struct SimOptions {
  /// Budget in enumeration steps (rf/co candidates tried). Exceeding it
  /// reports a timeout, the simulator's analogue of herd's 1-hour limit.
  uint64_t MaxSteps = 2'000'000;
  /// Optional wall-clock limit; 0 disables.
  double TimeoutSeconds = 0.0;
  /// Keep allowed executions (for figures/DOT output).
  bool CollectExecutions = false;
  unsigned MaxCollectedExecutions = 64;
  /// Worker threads for sharded enumeration. 1 = sequential, 0 = one per
  /// hardware thread. The candidate space (path combos x rf assignments)
  /// is partitioned into shards consumed by a work-stealing scheduler;
  /// results merge in enumeration order, so a run that completes within
  /// budget is bit-identical for every Jobs value. Timed-out runs share
  /// one atomic step budget: total work stays bounded by MaxSteps, but
  /// *which* prefix of the space was explored depends on scheduling.
  /// Model-error runs likewise stop all workers at the first *observed*
  /// error; with several distinct error sites the reported Error text
  /// may differ across Jobs values (the run is aborted either way).
  unsigned Jobs = 1;
  /// Reject value-inconsistent rf assignments before the resolution
  /// fixpoint, and drop candidate writes that can never satisfy a path's
  /// read-value constraints from the rf lists. Values are tracked
  /// through copies and arithmetic over one read by the symbolic-
  /// transform domain (sim/AbsDomain.h). Pruning is conservative:
  /// an assignment is rejected only when the fixpoint provably would
  /// reject it, so Allowed/Flags/Executions and the ValueConsistent /
  /// CoCandidates / AllowedExecutions counters are bit-identical with
  /// the option on or off. Dropping writes shrinks the enumerated index
  /// space, so RfCandidates (and therefore step consumption) is smaller
  /// with pruning on: a budget-bounded run can complete under pruning
  /// where it would have timed out without.
  bool RfValuePruning = true;
  /// Evaluate the Cat model incrementally: cache the model's stable
  /// (po-only-derived) layer per path combo and re-evaluate only the
  /// rf/co-dependent layer per candidate. Verdicts are bit-identical to
  /// full evaluation for every candidate; this switch exists to measure
  /// the speedup and to pin that equivalence in tests.
  bool IncrementalCatEval = true;
  /// Which consistency engine runs (see SimBackendKind). Outcomes,
  /// flags and collected executions are byte-identical across backends
  /// on completed runs; each backend draws budget steps for its own
  /// unit of work (rf indexes drawn for the sweep, decisions for the
  /// solver), so a budget-bounded run may complete under one backend
  /// and time out under the other -- that asymmetry is the point.
  /// Backend::Explore relaxes the identity contract to subset
  /// inclusion: its outcome set is always contained in the exhaustive
  /// one, but may be smaller (see SimBackendKind::Explore).
  SimBackendKind Backend = SimBackendKind::Sweep;
  /// Scheduled iterations per path combo for the explore backend. Each
  /// iteration runs the program once under one schedule; distinct rf
  /// assignments discovered across iterations are validated through the
  /// exhaustive per-assignment machinery, so raising the budget widens
  /// coverage without ever admitting an unsound outcome.
  uint64_t ExploreIterations = 512;
  /// Seed of the deterministic per-iteration PRNG. The schedule of
  /// iteration i of combo c is a pure function of (seed, c, i), so
  /// explore results are bit-identical across Jobs values and runs.
  uint64_t ExploreSeed = 1;
  /// Preemption bound for the randomized schedules (even iterations): a
  /// schedule may switch away from a runnable thread at most this many
  /// times before degenerating to run-to-completion. Small bounds focus
  /// iterations on the low-preemption schedules where most weak-memory
  /// bugs live (the CHESS observation); 0 means unpreempted only.
  unsigned ExploreMaxContextSwitches = 8;
  /// Campaign budget split: when nonzero and Backend is not Explore,
  /// simulate() reroutes programs whose estimatedRfSpace() is at least
  /// this to the explore backend -- exhaustive work for small spaces,
  /// bounded dynamic coverage where enumeration would time out. A pure
  /// function of the program, so every party of a distributed campaign
  /// splits identically. 0 (default) disables the split.
  uint64_t ExploreBudget = 0;

  bool operator==(const SimOptions &) const = default;
};

/// The SimStats counters, declared once. A row is COUNT(Member, "key")
/// for a uint64_t work counter or NAMED(Member, "key") for the one
/// uint8_t rendered by name (backendUsedName) and never summed. Each
/// consumer expands the table in row order, which is the results-JSON
/// key order: the struct members, the wire/journal encoding
/// (dist/Serialize.cpp), the per-unit "stats" object of the results
/// JSON (dist/CampaignJson.cpp), the per-worker sum in the merge of
/// simcore::runEngine and litmus-sim's --stats line. Adding a
/// counter is one row here plus the code that increments it.
///
/// On completed runs every row is a pure function of (program, model,
/// options), whatever the job count: the parallel merge reassembles the
/// rows in enumeration order.
#define TELECHAT_SIM_STATS(COUNT, NAMED)                                       \
  /** Path combinations: one choice of path in every thread. */                \
  COUNT(PathCombos, "path_combos")                                             \
  /** rf assignments drawn from the space. */                                  \
  COUNT(RfCandidates, "rf_candidates")                                         \
  /** ... that survived value resolution. */                                   \
  COUNT(ValueConsistent, "value_consistent")                                   \
  /** Coherence orders tried on value-consistent assignments. */               \
  COUNT(CoCandidates, "co_candidates")                                         \
  /** Candidates the model allowed. */                                         \
  COUNT(AllowedExecutions, "allowed_executions")                               \
  /** (read, candidate write) pairs removed from rf candidate lists by         \
      constraint propagation, summed over path combos. Each removed pair       \
      divides the enumerated space, so small numbers here can mean large       \
      space reductions. A combo whose constant constraints contradict          \
      its branches collapses without filtering and counts nothing. */          \
  COUNT(RfSourcesPruned, "rf_sources_pruned")                                  \
  /** Enumerated rf assignments rejected by the O(events) constraint           \
      check before the value-resolution fixpoint (each skipped one). */        \
  COUNT(RfPruned, "rf_pruned")                                                 \
  /** Cat binding and check evaluations served from the per-combo stable       \
      layer instead of being recomputed per candidate. */                      \
  COUNT(CatEvalsAvoided, "cat_evals_avoided")                                  \
  /** Which backend actually ran (SimBackendKind::Sweep, ::Solve or            \
      ::Explore; Auto resolves before the run), so mixed-backend campaigns     \
      stay attributable and subset-mode comparison (core/MCompare.h)           \
      knows an explore target set is a sound subset. */                        \
  NAMED(BackendUsed, "backend")                                                \
  /** Solver decision-tree nodes visited: one rf candidate tried at one        \
      read (src/solve/; zero elsewhere). The solver's budget currency. */      \
  COUNT(SolveDecisions, "solve_decisions")                                     \
  /** Pairs removed from open domains by watched-literal propagation. */       \
  COUNT(SolvePropagations, "solve_propagations")                               \
  /** Dead subtrees abandoned: a clause fully matched, a violated check,       \
      or a propagation wiped an open domain. */                                \
  COUNT(SolveConflicts, "solve_conflicts")                                     \
  /** Nogood clauses in play: compiled pair constraints plus learned           \
      support nogoods. */                                                      \
  COUNT(SolveClauses, "solve_clauses")                                         \
  /** Scheduled program executions the explore backend attempted, summed       \
      over path combos (src/explore/; zero elsewhere). */                      \
  COUNT(ExploreIterations, "explore_iterations")                               \
  /** Distinct complete rf assignments the schedules reached. */               \
  COUNT(ExploreSchedules, "explore_schedules")                                 \
  /** Outcomes in the explore backend's sound-subset report; stamped           \
      after the merge. */                                                      \
  COUNT(ExploreOutcomesFound, "explore_outcomes_found")

/// Counters for one simulation run (see TELECHAT_SIM_STATS).
struct SimStats {
#define TELECHAT_STAT_COUNT(Member, Key) uint64_t Member = 0;
#define TELECHAT_STAT_NAMED(Member, Key) uint8_t Member = 0;
  TELECHAT_SIM_STATS(TELECHAT_STAT_COUNT, TELECHAT_STAT_NAMED)
#undef TELECHAT_STAT_COUNT
#undef TELECHAT_STAT_NAMED
  /// Wall clock, outside the table: it is the one nondeterministic
  /// field, so it travels on the wire but never enters results JSON.
  double Seconds = 0.0;
};

/// The result of simulating a program under a model.
struct SimResult {
  OutcomeSet Allowed;           ///< Outcomes of model-allowed executions.
  std::set<std::string> Flags;  ///< Flags fired on allowed executions
                                ///< ("race", "const-violation", ...).
  bool TimedOut = false;
  std::string Error;            ///< Model evaluation error, empty if ok.
  SimStats Stats;
  std::vector<Execution> Executions; ///< If requested: allowed executions.

  bool ok() const { return Error.empty(); }
};

/// True when the final condition of \p Program holds for \p Result
/// (exists: some allowed outcome satisfies it; forall: all do; ~exists:
/// none does).
bool finalConditionHolds(const SimProgram &Program, const SimResult &Result);

} // namespace telechat

#endif // TELECHAT_SIM_ENUMERATOR_H
