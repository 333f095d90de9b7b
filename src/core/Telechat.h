//===--- Telechat.h - The Télétchat tool API -------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the tool, implementing paper Fig. 5:
///
///   1. take a C/C++ litmus test S,
///   2. prepare it (l2c), compile and disassemble it (c2s), parse and
///      optimise the assembly test (s2l),
///   3. simulate S under the source model, 4. simulate C under the
///      architecture model, 5. mcompare the outcome sets.
///
/// A positive difference on a race-free source test is a compiler bug
/// (test_tv violated).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CORE_TELECHAT_H
#define TELECHAT_CORE_TELECHAT_H

#include "compiler/Compiler.h"
#include "core/AsmToLitmus.h"
#include "core/LitmusOpt.h"
#include "core/LitmusToC.h"
#include "core/MCompare.h"
#include "sim/Simulator.h"

#include <functional>

namespace telechat {

/// Knobs for one end-to-end run.
struct TestOptions {
  /// Source oracle: "rc11" (paper default), "rc11+lb", "c11-simp", "sc".
  std::string SourceModel = "rc11";
  /// §IV-B local-variable augmentation (optional so that the masking
  /// effect can be studied; on by default, as deployed).
  bool AugmentLocals = true;
  /// s2l litmus-test optimisation (§IV-E); off reproduces the
  /// state-explosion baseline of Fig. 11.
  bool OptimiseCompiled = true;
  /// Use the const-violation-flagging architecture model (§IV-E).
  bool ConstAugmentedModel = false;
  /// Budgets for each simulation.
  SimOptions Sim;
};

/// Everything one run produces (intermediate artefacts kept for
/// inspection, like the paper's Output/ directory).
struct TelechatResult {
  LitmusTest Prepared;     ///< l2c output.
  std::string RawAsmText;  ///< c2s "disassembly".
  AsmLitmusTest OptAsm;    ///< s2l output (what herd simulates).
  CompileOutput Compiled;  ///< Mapping and compiler notes.
  S2LStats OptStats;
  SimResult SourceSim;
  SimResult TargetSim;
  CompareResult Compare;
  std::string Error;

  bool ok() const { return Error.empty(); }
  /// Either simulation exhausted its budget.
  bool timedOut() const { return SourceSim.TimedOut || TargetSim.TimedOut; }
  /// test_tv violated on a race-free test: a compiler bug.
  bool isBug() const { return ok() && !timedOut() && Compare.isBug(); }
};

/// The options step 3 runs with. The source side is the comparison
/// oracle, so it always runs exhaustively: a dynamic (explore) selection
/// or an ExploreBudget reroute applies to the *target* only. A
/// sound-subset source set would turn explore under-coverage into
/// positive differences, i.e. false bug reports.
SimOptions sourceSimOptions(SimOptions Sim);

/// Where a pipeline run takes step 3 from. The pipeline hands each hook
/// the source simulation as it would run it; the hook only decides when
/// it runs and who else sees the result. This base class is the plain
/// pipeline: it simulates when the result is asked for. The campaign
/// executor (core/Campaign.h) derives from it to let every config of a
/// test share one source simulation.
class SourceSide {
public:
  using Simulate = std::function<SimResult()>;
  virtual ~SourceSide() = default;
  /// Called once l2c has produced the test to simulate, before c2s.
  virtual void prepared(const Simulate &) {}
  /// Step 3's result. Called after the target side has run, and only
  /// when c2s and s2l succeeded.
  virtual SimResult result(const Simulate &Run) { return Run(); }
};

/// Runs the full pipeline on one test under one profile.
TelechatResult runTelechat(const LitmusTest &S, const Profile &P,
                           const TestOptions &O = TestOptions());

/// The one body of the Fig. 5 sequence, taking step 3 from \p Source.
/// Whatever the hook does, the result is runTelechat's: a compile or s2l
/// error carries no SourceSim, and a source error wins over lowering and
/// target errors and carries no TargetSim.
TelechatResult runTelechat(const LitmusTest &S, const Profile &P,
                           const TestOptions &O, SourceSide &Source);

/// Campaign driver: runs the full pipeline on every test, spread over a
/// thread pool of \p Jobs workers (0 = one per hardware thread). Results
/// come back in input order and are identical to calling runTelechat per
/// element; the per-test simulations run with Jobs=1 because campaign
/// throughput wants the parallelism across tests, not inside one.
std::vector<TelechatResult> runTelechatMany(const std::vector<LitmusTest> &Tests,
                                            const Profile &P,
                                            const TestOptions &O = TestOptions(),
                                            unsigned Jobs = 0);

} // namespace telechat

#endif // TELECHAT_CORE_TELECHAT_H
