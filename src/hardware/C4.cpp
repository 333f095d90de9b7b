//===--- C4.cpp - The C4 comparison harness -------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "hardware/C4.h"

#include "compiler/Compiler.h"
#include "core/AsmToLitmus.h"
#include "core/LitmusToC.h"
#include "core/LitmusOpt.h"
#include "sim/Simulator.h"

using namespace telechat;

C4Result telechat::runC4(const LitmusTest &S, const Profile &P,
                         const C4Options &O) {
  C4Result R;
  // The litmus tool's generated harness stores each output register into
  // a result array after the test body, so observed locals survive
  // compilation; augmentation models exactly that harness.
  LitmusTest Prepared = augmentLocalObservations(S);
  ErrorOr<CompileOutput> Compiled = compileLitmus(Prepared, P);
  if (!Compiled) {
    R.Error = "compile: " + Compiled.error();
    return R;
  }
  ErrorOr<AsmLitmusTest> Parsed = disassemblyRoundTrip(Compiled->Asm);
  if (!Parsed) {
    R.Error = Parsed.error();
    return R;
  }
  AsmLitmusTest Optimised = optimiseAsmLitmus(std::move(*Parsed));

  R.Hardware = runOnHardware(Optimised, O.Hardware);
  if (!R.Hardware.ok()) {
    R.Error = R.Hardware.Error;
    return R;
  }
  R.SourceSim = simulateC(Prepared, O.SourceModel, O.Sim);
  if (!R.SourceSim.ok()) {
    R.Error = "source simulation: " + R.SourceSim.Error;
    return R;
  }
  // Reuse mcompare by wrapping hardware outcomes as a SimResult.
  SimResult HwAsSim;
  HwAsSim.Allowed = R.Hardware.Observed;
  R.Compare = mcompare(R.SourceSim, HwAsSim, Compiled->KeyMap);
  return R;
}
