//===--- Telechat.cpp - The Télétchat tool API ----------------------------==//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/Telechat.h"

#include "asmcore/Semantics.h"
#include "core/Campaign.h"
#include "support/ThreadPool.h"

using namespace telechat;

SimOptions telechat::sourceSimOptions(SimOptions Sim) {
  if (Sim.Backend == SimBackendKind::Explore)
    Sim.Backend = SimBackendKind::Auto;
  Sim.ExploreBudget = 0;
  return Sim;
}

TelechatResult telechat::runTelechat(const LitmusTest &S, const Profile &P,
                                     const TestOptions &O) {
  SourceSide Computed;
  return runTelechat(S, P, O, Computed);
}

TelechatResult telechat::runTelechat(const LitmusTest &S, const Profile &P,
                                     const TestOptions &O,
                                     SourceSide &Source) {
  TelechatResult R;

  // Step 2a (l2c): prepare for compilation. The prepared test is also
  // what step 3 simulates; the hook may start on it right away.
  R.Prepared = O.AugmentLocals ? augmentLocalObservations(S) : S;
  const SimOptions SourceOpts = sourceSimOptions(O.Sim);
  const SourceSide::Simulate SimulateSource = [&] {
    return simulateC(R.Prepared, O.SourceModel, SourceOpts);
  };
  Source.prepared(SimulateSource);

  // Step 2b (c2s): compile and disassemble.
  ErrorOr<CompileOutput> Compiled = compileLitmus(R.Prepared, P);
  if (!Compiled) {
    R.Error = "compile: " + Compiled.error();
    return R;
  }
  R.Compiled = std::move(*Compiled);

  // Step 2c (s2l): parse the disassembly and optimise the litmus test.
  ErrorOr<AsmLitmusTest> Parsed =
      disassemblyRoundTrip(R.Compiled.Asm, &R.RawAsmText);
  if (!Parsed) {
    R.Error = Parsed.error();
    return R;
  }
  R.OptAsm = O.OptimiseCompiled
                 ? optimiseAsmLitmus(std::move(*Parsed), &R.OptStats)
                 : std::move(*Parsed);

  // Step 4: simulate C under the architecture model. It runs before the
  // source side is taken, so a hook that waits for another config's
  // source simulation waits as late as it can.
  ErrorOr<SimProgram> Lowered = lowerAsmTest(R.OptAsm);
  if (Lowered)
    R.TargetSim = simulateProgram(
        *Lowered, archModelName(P.Target, O.ConstAugmentedModel), O.Sim);

  // Step 3: simulate S under the source model. Its error wins over
  // lowering and target errors.
  R.SourceSim = Source.result(SimulateSource);
  if (!R.SourceSim.ok()) {
    R.Error = "source simulation: " + R.SourceSim.Error;
    R.TargetSim = SimResult();
    return R;
  }
  if (!Lowered) {
    R.Error = "lowering compiled test: " + Lowered.error();
    return R;
  }
  if (!R.TargetSim.ok()) {
    R.Error = "target simulation: " + R.TargetSim.Error;
    return R;
  }

  // Step 5: mcompare through the state mapping.
  R.Compare = mcompare(R.SourceSim, R.TargetSim, R.Compiled.KeyMap);
  return R;
}

std::vector<TelechatResult>
telechat::runTelechatMany(const std::vector<LitmusTest> &Tests,
                          const Profile &P, const TestOptions &O,
                          unsigned Jobs) {
  // The local incarnation of the campaign engine: a fixed corpus drained
  // by a pool, results keyed by corpus index. The distributed work
  // server runs the very same unit executor on its workers, which is
  // what makes its merged campaigns bit-identical to this driver.
  std::vector<CampaignConfig> Configs{{P, O, /*SimulateOnly=*/false}};
  VectorUnitSource Source(makeCampaignUnits(Tests));
  std::vector<TelechatResult> Results(Tests.size());
  ThreadPool Pool(resolveJobs(Jobs));
  runCampaignUnits(Source, Configs, Pool,
                   [&](const CampaignUnit &U, TelechatResult R) {
                     Results[U.Id] = std::move(R);
                   });
  return Results;
}
