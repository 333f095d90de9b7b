//===--- Backend.h - Pluggable consistency-engine seam ----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend seam: simulate() is the one entry point that runs a
/// SimProgram under a Cat model. It resolves SimOptions::Backend to one
/// of three engines -- the explicit sweep (sim/Enumerator.cpp), the
/// constraint solver (src/solve/) or the dynamic exploration oracle
/// (src/explore/) -- and runs it on the one run driver
/// (simcore::runEngine, sim/EnumCore.h); the engines differ only in
/// their per-combo search. Sweep and solve produce byte-identical
/// outcomes, flags and collected executions on completed runs (the
/// engine only changes how the candidate space is covered); explore
/// reports a sound *subset* of that set within its iteration budget.
/// Callers pick by cost profile, or pass Auto and let the estimated
/// rf-space size decide (Auto never picks explore: an unsound-by-
/// omission oracle is an explicit opt-in, per flag or per
/// SimOptions::ExploreBudget). Everything above this header
/// (Simulator.h, batch drivers, campaigns, journal replay) is
/// backend-agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_BACKEND_H
#define TELECHAT_SIM_BACKEND_H

#include "sim/Enumerator.h"

#include <string>

namespace telechat {

/// Upper bound on the enumerated space (path combos x rf assignments),
/// saturating at UINT64_MAX: combos times (writes upper bound raised
/// to the reads upper bound), with per-thread op counts maximised over
/// paths. A pure function of the program, so every party in a
/// distributed campaign resolves Auto identically.
uint64_t estimatedRfSpace(const SimProgram &Program);

/// Auto picks the solver once the estimated space crosses this bound:
/// below it the sweep's lower per-candidate overhead wins, above it
/// only constraint pruning has a chance of finishing within budget.
constexpr uint64_t kAutoSolveThreshold = uint64_t(1) << 20;

/// Resolves a backend selection against a program to the engine that
/// runs: Sweep, Solve and Explore are themselves, Auto is Solve or Sweep
/// by estimatedRfSpace vs kAutoSolveThreshold (never Explore; see the
/// file comment).
SimBackendKind resolveBackend(SimBackendKind Kind, const SimProgram &Program);

/// Parses a --backend value, one of the names backendName() gives;
/// false and \p Out untouched on anything else.
bool backendFromName(const std::string &Name, SimBackendKind &Out);

/// Display name of a selection: the enumerator's name in lowercase, as
/// the CLI flag, stats lines and campaign JSON spell it.
const char *backendName(SimBackendKind Kind);
/// Display name of SimStats::BackendUsed: backendName() of Sweep, Solve
/// or Explore (Auto resolves before a run, so it never appears here).
/// Any other byte -- a stats blob from a newer peer -- names itself
/// "unknown" rather than aliasing a real engine.
const char *backendUsedName(uint8_t Used);

/// Simulates \p Program under \p Model with the backend selected by
/// \p Options.Backend. SimStats::BackendUsed records which engine ran.
/// When Options.ExploreBudget is nonzero and the selection is not
/// already Explore, programs whose estimatedRfSpace() reaches the
/// budget are rerouted to the explore backend -- the campaign budget
/// split (see SimOptions::ExploreBudget).
SimResult simulate(const SimProgram &Program, const CatModel &Model,
                   const SimOptions &Options = SimOptions());

} // namespace telechat

#endif // TELECHAT_SIM_BACKEND_H
