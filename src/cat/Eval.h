//===--- Eval.h - Cat model evaluator ---------------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates a parsed Cat model against a candidate execution, deciding
/// whether the execution is allowed, forbidden (which check failed), or
/// flagged (data race / const violation / other "flag" statements).
///
/// Two entry points exist:
///
///  - evaluateCat(): the reference. A plain walk of the AST over one
///    execution with the definitional kernels; nothing in the simulator
///    calls it, the tests hold the engine below to it.
///
///  - CatEvaluator: the engine behind the enumerator's hot loop. Each
///    model is compiled once into a register program (shared by every
///    evaluator of that model). The enumerator visits millions of
///    candidate executions that differ only in rf/co/dependency edges
///    while sharing one *skeleton* (events, program order, thread
///    structure) per control-flow path combo, so the program's *stable*
///    registers and checks (derivable from the skeleton alone) are
///    computed once per combo into a layer, and only the *dynamic* ones
///    (anything reachable from rf, co, fr, addr, data, ctrl, ...) run per
///    candidate. Verdicts are identical to evaluateCat() by construction
///    -- stability is a conservative static classification of the model,
///    never a guess about the execution.
///
/// The verdict contract. A candidate's verdict is settled by the first
/// non-flag check it violates, in model order: the verdict is forbidden,
/// FailedCheck names that check, and Flags holds only the flags raised
/// before it. Nothing after the first failure is recorded, but an error
/// after it still wins (Error is set). An allowed verdict carries every
/// flag the model raises. Both entry points keep this contract.
///
/// The engine ends a candidate walk at the first failed check when no
/// later step could stop it with an error. The compiled program decides
/// that once: it may end early iff it has no static error and every let
/// rec group is monotone (no slot of the group is read under the right
/// operand of '\'). A monotone Kleene iteration from empty grows on every
/// round that does not converge, so it converges within the round bound
/// and never reports divergence. Any other program walks on after the
/// first failure, as evaluateCat() does, to find a later error.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CAT_EVAL_H
#define TELECHAT_CAT_EVAL_H

#include "cat/Ast.h"
#include "events/Execution.h"
#include "support/Relation.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace telechat {

/// Result of evaluating a model on one candidate execution. See the file
/// comment for what a forbidden verdict records.
struct ModelVerdict {
  bool Allowed = true;             ///< All non-flag checks hold.
  std::string FailedCheck;         ///< First violated check; empty if allowed.
  std::vector<std::string> Flags;  ///< Fired flags (e.g. "race").
  std::string Error;               ///< Type/eval error; empty if ok.

  bool ok() const { return Error.empty(); }
  bool hasFlag(const std::string &Name) const;
};

/// The per-combo cache: every stable register (bindings, their subterms,
/// base relations, tag sets) and check verdict of one path combo,
/// materialised once and then shared by all candidate evaluations of
/// that combo. Immutable after construction, so a
/// shared_ptr<const CatStableLayer> may be handed to any number of
/// concurrently evaluating workers (the enumerator's shard workers do
/// exactly that when several of them split one combo's rf space).
struct CatStableLayer;

/// Incremental Cat evaluation over a stream of candidate executions.
///
/// Usage (one instance per enumeration worker; NOT thread-safe itself --
/// only the CatStableLayer it produces may be shared):
///
///   CatEvaluator Eval(Model);                 // compiles the model once
///   for each path combo:
///     Eval.enterCombo(AllStatic, CachedLayerOrNull);
///     for each candidate execution Ex:
///       ModelVerdict V = Eval.evaluate(Ex);   // 1st call builds the layer
///
/// The caller guarantees that all executions passed between two
/// enterCombo() calls share po, rmw, thread structure, event kinds and IW
/// (always), plus locations and tags when AllStatic was passed as true.
/// Under that contract evaluate() returns exactly what evaluateCat()
/// would, for every candidate, at a fraction of the work.
class CatEvaluator {
public:
  /// Shares \p Model's compiled program, compiling it if this is the
  /// model's first evaluator. \p Model need not outlive this.
  explicit CatEvaluator(const CatModel &Model);
  ~CatEvaluator();

  CatEvaluator(const CatEvaluator &) = delete;
  CatEvaluator &operator=(const CatEvaluator &) = delete;

  /// Starts a new path combo. \p AllStatic widens the stable layer to
  /// locations and tag sets (the caller promises every access location is
  /// fixed across the combo's candidates). \p Cached adopts a layer
  /// computed by another evaluator for the *same* combo and AllStatic
  /// value; pass nullptr to compute lazily on the first evaluate().
  void enterCombo(bool AllStatic,
                  std::shared_ptr<const CatStableLayer> Cached = nullptr);

  /// The current combo's stable layer; null until the first evaluate()
  /// after enterCombo() (or an adopted cache). Safe to publish to other
  /// evaluators/threads: the layer is immutable.
  std::shared_ptr<const CatStableLayer> stableLayer() const { return Layer; }

  /// Evaluates the model on one candidate execution of the current combo.
  ModelVerdict evaluate(const Execution &Ex);

  /// Disables (or re-enables) the per-combo layer: with caching off,
  /// every instruction and check runs per candidate -- the
  /// pre-incremental cost profile, minus the one-off compile.
  /// Verdicts are identical either way; the enumerator uses this for
  /// SimOptions::IncrementalCatEval = false so the measured baseline is
  /// honest.
  void setCaching(bool Enabled);

  /// Work accounting, accumulated across evaluate() calls. "Avoided"
  /// counts binding and check evaluations served from the stable layer
  /// instead of being recomputed -- the quantity a non-incremental
  /// evaluator would have performed. A walk counts the stable bindings
  /// and checks before the step that stops it with an error, and every
  /// stable binding and check of the model otherwise: a walk that ends
  /// early at a failed check counts what a completed walk counts.
  /// Deterministic for a fixed candidate stream (it does not depend on
  /// how often the layer itself was (re)built, which varies with work
  /// stealing).
  struct CacheStats {
    uint64_t Evaluations = 0;       ///< evaluate() calls.
    uint64_t BindingEvalsAvoided = 0; ///< let/let-rec bindings served cached.
    uint64_t CheckEvalsAvoided = 0;   ///< acyclic/irreflexive/empty served.
  };
  const CacheStats &stats() const { return Stats; }

  /// Implementation detail (the program and this evaluator's registers).
  struct Impl;

private:
  std::unique_ptr<Impl> P;
  std::shared_ptr<const CatStableLayer> Layer;
  bool AllStatic = false;
  bool CachingEnabled = true;
  CacheStats Stats;
};

/// Evaluates \p Model against \p Ex, the reference semantics. It always
/// walks the whole model, so a later error still wins, and records the
/// verdict as the contract in the file comment says. Base environment:
/// po, rf, co, fr, rmw, addr, data, ctrl, po-loc, loc, ext, int, id,
/// rfe/rfi, coe/coi, fre/fri; sets _, emptyset, R, W, M, F, IW, and every
/// event tag.
/// Unresolved identifiers evaluate to the (possibly empty) tag set with
/// that name, so ISA-specific sets need no declarations.
ModelVerdict evaluateCat(const CatModel &Model, const Execution &Ex);

} // namespace telechat

#endif // TELECHAT_CAT_EVAL_H
