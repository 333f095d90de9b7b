//===--- Mirror.h - Traced mirror of the unit executor ----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runTracedUnit makes the same public calls, in the same order and with
/// the same options, as telechat::runCampaignUnit (and runTelechat behind
/// it), with a span around each call. Its result must be identical to
/// runCampaignUnit's; the benchmark checks that per unit through
/// resultDigest.
///
/// Full pipeline unit: augmentLocalObservations -> compileLitmus ->
/// disassemblyRoundTrip -> optimiseAsmLitmus -> lowerLitmusC ->
/// simulateProgram (source model) -> lowerAsmTest -> simulateProgram
/// (architecture model) -> mcompare. SimulateOnly unit: lowerLitmusC ->
/// simulateProgram.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MIRROR_H
#define PERFBENCH_MIRROR_H

#include "core/Campaign.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Span names of the mirrored stages.
namespace span {
constexpr const char *Unit = "unit";
constexpr const char *L2C = "core.l2c";
constexpr const char *C2S = "compiler.c2s";
constexpr const char *S2LParse = "core.s2l_parse";
constexpr const char *S2LOpt = "core.s2l_opt";
constexpr const char *LowerC = "sim.lower_c";
constexpr const char *SimSource = "sim.source";
constexpr const char *LowerAsm = "asmcore.lower";
constexpr const char *SimTarget = "sim.target";
constexpr const char *MCompare = "core.mcompare";
} // namespace span

telechat::TelechatResult
runTracedUnit(const telechat::CampaignUnit &U,
              const std::vector<telechat::CampaignConfig> &Configs);

/// FNV-1a digest of a unit's verdict, errors, timeout bits, outcome sets,
/// flags and compare witnesses. Stats and timings are left out, so the
/// digest is what must not change across lanes, passes, the served path
/// and the traced mirror.
uint64_t resultDigest(const telechat::TelechatResult &R);

/// Instructions in the compiled (pre-s2l) assembly test.
uint64_t asmInstructions(const telechat::TelechatResult &R);

} // namespace perfbench

#endif // PERFBENCH_MIRROR_H
