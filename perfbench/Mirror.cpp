//===--- Mirror.cpp - Traced mirror of the unit executor ------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Mirror.h"

#include "Trace.h"

#include "asmcore/Semantics.h"
#include "sim/CFrontend.h"
#include "support/StringUtils.h"

using namespace telechat;
using namespace perfbench;

namespace {

SimResult tracedSim(const char *Name, const SimProgram &Program,
                    const std::string &Model, const SimOptions &Options) {
  ScopedSpan S(Name);
  SimResult R = simulateProgram(Program, Model, Options);
  S.attach(R.Stats);
  return R;
}

/// runTelechat, stage by stage.
TelechatResult tracedPipeline(const LitmusTest &S, const Profile &P,
                              const TestOptions &O) {
  TelechatResult R;
  if (O.AugmentLocals) {
    ScopedSpan Sp(span::L2C);
    R.Prepared = augmentLocalObservations(S);
  } else {
    R.Prepared = S;
  }

  ErrorOr<CompileOutput> Compiled = [&] {
    ScopedSpan Sp(span::C2S);
    return compileLitmus(R.Prepared, P);
  }();
  if (!Compiled) {
    R.Error = "compile: " + Compiled.error();
    return R;
  }
  R.Compiled = std::move(*Compiled);

  ErrorOr<AsmLitmusTest> Parsed = [&] {
    ScopedSpan Sp(span::S2LParse);
    return disassemblyRoundTrip(R.Compiled.Asm, &R.RawAsmText);
  }();
  if (!Parsed) {
    R.Error = Parsed.error();
    return R;
  }
  if (O.OptimiseCompiled) {
    ScopedSpan Sp(span::S2LOpt);
    R.OptAsm = optimiseAsmLitmus(*Parsed, &R.OptStats);
  } else {
    R.OptAsm = std::move(*Parsed);
  }

  SimOptions SourceSim = O.Sim;
  if (SourceSim.Backend == SimBackendKind::Explore)
    SourceSim.Backend = SimBackendKind::Auto;
  SourceSim.ExploreBudget = 0;
  SimProgram Source = [&] {
    ScopedSpan Sp(span::LowerC);
    return lowerLitmusC(R.Prepared);
  }();
  R.SourceSim = tracedSim(span::SimSource, Source, O.SourceModel, SourceSim);
  if (!R.SourceSim.ok()) {
    R.Error = "source simulation: " + R.SourceSim.Error;
    return R;
  }

  ErrorOr<SimProgram> Lowered = [&] {
    ScopedSpan Sp(span::LowerAsm);
    return lowerAsmTest(R.OptAsm);
  }();
  if (!Lowered) {
    R.Error = "lowering compiled test: " + Lowered.error();
    return R;
  }
  R.TargetSim =
      tracedSim(span::SimTarget, *Lowered,
                archModelName(P.Target, O.ConstAugmentedModel), O.Sim);
  if (!R.TargetSim.ok()) {
    R.Error = "target simulation: " + R.TargetSim.Error;
    return R;
  }

  ScopedSpan Sp(span::MCompare);
  R.Compare = mcompare(R.SourceSim, R.TargetSim, R.Compiled.KeyMap);
  return R;
}

void mix(uint64_t &H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  H ^= 0xff; // Field separator: "ab"+"c" differs from "a"+"bc".
  H *= 1099511628211ull;
}

void mixSide(uint64_t &H, const SimResult &R) {
  mix(H, R.Error);
  mix(H, R.TimedOut ? "timeout" : "complete");
  mix(H, outcomeSetToString(R.Allowed));
  for (const std::string &F : R.Flags)
    mix(H, F);
}

} // namespace

TelechatResult
perfbench::runTracedUnit(const CampaignUnit &U,
                         const std::vector<CampaignConfig> &Configs) {
  ScopedSpan Root(span::Unit, U.Id);
  TelechatResult R;
  if (U.Config >= Configs.size()) {
    R.Error = strFormat("campaign unit %llu references config %u of %zu",
                        static_cast<unsigned long long>(U.Id), U.Config,
                        Configs.size());
    return R;
  }
  const CampaignConfig &C = Configs[U.Config];
  TestOptions PerUnit = C.Opts;
  PerUnit.Sim.Jobs = 1;
  if (!C.SimulateOnly)
    return tracedPipeline(U.Test, C.P, PerUnit);
  SimProgram Program = [&] {
    ScopedSpan Sp(span::LowerC);
    return lowerLitmusC(U.Test);
  }();
  R.SourceSim =
      tracedSim(span::SimSource, Program, PerUnit.SourceModel, PerUnit.Sim);
  if (!R.SourceSim.ok())
    R.Error = "source simulation: " + R.SourceSim.Error;
  return R;
}

uint64_t perfbench::resultDigest(const TelechatResult &R) {
  uint64_t H = 14695981039346656037ull;
  mix(H, R.Error);
  mixSide(H, R.SourceSim);
  mixSide(H, R.TargetSim);
  mix(H, std::to_string(int(R.Compare.K)));
  mix(H, R.Compare.SourceRace ? "race" : "race-free");
  for (const Outcome &W : R.Compare.Witnesses)
    mix(H, W.toString());
  for (const std::string &F : R.Compare.TargetFlags)
    mix(H, F);
  return H;
}

uint64_t perfbench::asmInstructions(const TelechatResult &R) {
  uint64_t N = 0;
  for (const AsmThread &T : R.Compiled.Asm.Threads)
    N += T.Code.size();
  return N;
}
