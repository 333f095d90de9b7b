//===--- AsmProgram.h - Assembly litmus tests -------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembly litmus tests (the C of paper Fig. 5): the compiled program as
/// a litmus test with a fixed initial state (including register-to-address
/// assignments and literal-pool/GOT locations), per-thread code, and a
/// final condition over registers and memory.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_ASMCORE_ASMPROGRAM_H
#define TELECHAT_ASMCORE_ASMPROGRAM_H

#include "asmcore/Inst.h"
#include "litmus/Arch.h"
#include "litmus/Predicate.h"
#include "sim/Program.h"

#include <string>
#include <vector>

namespace telechat {

/// A complete assembly litmus test.
struct AsmLitmusTest {
  std::string Name;
  Arch TargetArch = Arch::AArch64;
  /// Shared locations, including synthetic ones: GOT slots ("got.x",
  /// initialised to &x) and stack slots ("stack.P0", "stack.P0+8").
  std::vector<SimLoc> Locations;
  std::vector<AsmThread> Threads;
  /// Final condition in *target* vocabulary (registers like "P1:X2").
  FinalCond Final;

  const SimLoc *findLocation(const std::string &Name) const;

  bool operator==(const AsmLitmusTest &) const = default;
};

/// The registry model name for an architecture ("aarch64", "x86tso", ...).
/// \p ConstAugmented selects the const-violation-flagging variant where
/// one exists (paper §IV-E).
std::string archModelName(Arch A, bool ConstAugmented = false);

} // namespace telechat

#endif // TELECHAT_ASMCORE_ASMPROGRAM_H
