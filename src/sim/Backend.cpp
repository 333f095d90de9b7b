//===--- Backend.cpp - Pluggable consistency-engine seam ------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "sim/Backend.h"

#include "sim/EnumCore.h"

#include <algorithm>
#include <iterator>

using namespace telechat;

namespace {

/// The backend names, indexed by SimBackendKind.
constexpr const char *kBackendNames[] = {"sweep", "solve", "auto", "explore"};
static_assert(std::size(kBackendNames) == size_t(SimBackendKind::Explore) + 1);

} // namespace

uint64_t telechat::estimatedRfSpace(const SimProgram &Program) {
  using simcore::satMul;
  uint64_t Combos = 1;
  uint64_t WritesUpper = Program.Locations.size(); // init writes
  uint64_t ReadsUpper = 0;
  for (const SimThread &T : Program.Threads) {
    Combos = satMul(Combos, T.Paths.size());
    uint64_t MaxR = 0, MaxW = 0;
    for (const SimPath &Path : T.Paths) {
      uint64_t R = 0, Wr = 0;
      for (const SimOp &Op : Path.Ops) {
        switch (Op.K) {
        case SimOp::Kind::Load:
          ++R;
          break;
        case SimOp::Kind::Store:
          ++Wr;
          break;
        case SimOp::Kind::Rmw:
          ++R;
          ++Wr;
          break;
        default:
          break;
        }
      }
      MaxR = std::max(MaxR, R);
      MaxW = std::max(MaxW, Wr);
    }
    ReadsUpper += MaxR;
    WritesUpper += MaxW;
  }
  uint64_t Space = 1;
  for (uint64_t I = 0; I != ReadsUpper; ++I) {
    Space = satMul(Space, WritesUpper);
    if (Space == ~uint64_t(0))
      break;
  }
  return satMul(Combos, Space);
}

SimBackendKind telechat::resolveBackend(SimBackendKind Kind,
                                        const SimProgram &Program) {
  // Never Explore: Auto promises the exhaustive set, just cheaper.
  if (Kind == SimBackendKind::Auto)
    return estimatedRfSpace(Program) >= kAutoSolveThreshold
               ? SimBackendKind::Solve
               : SimBackendKind::Sweep;
  return Kind;
}

bool telechat::backendFromName(const std::string &Name,
                               SimBackendKind &Out) {
  for (size_t I = 0; I != std::size(kBackendNames); ++I)
    if (Name == kBackendNames[I]) {
      Out = SimBackendKind(I);
      return true;
    }
  return false;
}

const char *telechat::backendName(SimBackendKind Kind) {
  return kBackendNames[size_t(Kind)];
}

const char *telechat::backendUsedName(uint8_t Used) {
  // Auto resolves before any run: as unknown as a future byte.
  if (Used >= std::size(kBackendNames) ||
      SimBackendKind(Used) == SimBackendKind::Auto)
    return "unknown";
  return kBackendNames[Used];
}

SimResult telechat::simulate(const SimProgram &Program, const CatModel &Model,
                             const SimOptions &Options) {
  // The campaign budget split: estimatedRfSpace is a pure function of
  // the program, so local drivers, workers and journal replays all
  // reroute the same units.
  bool Split = Options.ExploreBudget != 0 &&
               Options.Backend != SimBackendKind::Explore &&
               estimatedRfSpace(Program) >= Options.ExploreBudget;
  return simcore::runEngine(Program, Model, Options,
                            Split ? SimBackendKind::Explore
                                  : resolveBackend(Options.Backend, Program));
}
