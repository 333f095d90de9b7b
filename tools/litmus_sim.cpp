//===--- litmus_sim.cpp - Standalone litmus simulator (herd analogue) -----===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates a litmus test under a model, like invoking herd directly:
///
///   litmus-sim test.litmus [--model rc11] [-j N] [--max-steps N]
///              [--dot] [--stats]
///
/// Accepts both C litmus tests and assembly litmus tests (the format
/// printed by the pipeline); assembly tests default to their target's
/// architecture model.
///
/// Simulation-only campaigns run on the same distributed engine as
/// telechat (docs/DISTRIBUTED.md), with units that skip compilation and
/// mcompare:
///
///   litmus-sim --serve <port> --corpus tests.litmus [--model rc11]
///   litmus-sim --work <host:port> [-j N]
///
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/Semantics.h"
#include "dist/CampaignCli.h"
#include "dist/Relay.h"
#include "dist/Worker.h"
#include "sim/Backend.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace telechat;

static void usage() {
  fprintf(stderr,
          "usage: litmus-sim <test.litmus> [--model <name>] [-j <n>] "
          "[--max-steps <n>] [--dot] [--stats]\n"
          "       [--backend sweep|solve|auto|explore] [--no-prune] "
          "[--no-cat-cache]\n"
          "       [--explore-iters <n>] [--explore-seed <n>]\n"
          "       litmus-sim --serve <port> --corpus <file>|--suite "
          "realworld[:family]|--gen-seed <n> [--gen-count <n>] "
          "[--model <m>]\n"
          "                  [--campaign-json <f>] [--engine-json <f>] "
          "[--journal <f>] [--resume] [--dedupe]\n"
          "                  [--bind <addr>] [--lease-timeout <s>] "
          "[--batch <n>] [--status-port <p>] [--compact] [--verbose]   "
          "(shared with telechat --serve)\n"
          "       litmus-sim --relay <listen-port> <host:port> "
          "[--bind <addr>] [--batch <n>] [--status-port <p>]\n"
          "       litmus-sim --work <host:port> [-j <n>] [--batch <n>] "
          "[--max-units <n>]\n"
          "  -j <n>          enumeration worker threads (0 = all hardware "
          "threads; default 1)\n"
          "  --backend <b>   consistency engine: sweep (explicit enumeration,\n"
          "                  default), solve (constraint solver), auto\n"
          "                  (pick by estimated rf-space size); outcomes\n"
          "                  are identical, budget/steps are not; explore\n"
          "                  (dynamic scheduler exploration) reports a sound\n"
          "                  *subset* within its iteration budget\n"
          "  --explore-iters <n>  explore: schedules per path combo\n"
          "  --explore-seed <n>   explore: PRNG seed for random schedules\n"
          "  --no-prune      disable rf value-constraint pruning\n"
          "  --no-cat-cache  disable incremental Cat evaluation\n"
          "  --dedupe        serve one unit per canonical test shape and\n"
          "                  rename its result onto the duplicates\n");
}

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  if (std::string(argv[1]) == "--serve")
    return campaignToolMain(argc, argv, usage, CampaignCliMode::SimServe);
  if (std::string(argv[1]) == "--work")
    return workerToolMain(argc, argv, usage);
  if (std::string(argv[1]) == "--relay")
    return relayToolMain(argc, argv, usage);
  std::string Path = argv[1];
  std::string Model;
  bool Stats = false;
  SimOptions Opts;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    // A flag missing its value is refused like an unknown flag.
    auto Value = [&]() -> const char * {
      if (I + 1 == argc) {
        usage();
        exit(1);
      }
      return argv[++I];
    };
    if (Arg == "--model")
      Model = Value();
    else if (Arg == "-j" || Arg == "--jobs") {
      if (!parseFlag(Arg, Value(), Opts.Jobs))
        return 1;
    } else if (Arg == "--max-steps") {
      if (!parseFlag(Arg, Value(), Opts.MaxSteps))
        return 1;
    } else if (Arg == "--dot")
      Opts.CollectExecutions = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--no-prune")
      Opts.RfValuePruning = false;
    else if (Arg == "--no-cat-cache")
      Opts.IncrementalCatEval = false;
    else if (Arg == "--backend") {
      const char *V = Value();
      if (!backendFromName(V, Opts.Backend)) {
        fprintf(stderr, "error: unknown backend '%s'\n", V);
        return 1;
      }
    } else if (Arg == "--explore-iters") {
      if (!parseFlag(Arg, Value(), Opts.ExploreIterations))
        return 1;
    } else if (Arg == "--explore-seed") {
      if (!parseFlag(Arg, Value(), Opts.ExploreSeed))
        return 1;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  // C tests begin with "C "; everything else is assembly.
  SimProgram Program;
  if (Text.rfind("C ", 0) == 0 || Text.rfind("{", 0) == 0) {
    ErrorOr<LitmusTest> T = parseLitmusC(Text);
    if (!T) {
      fprintf(stderr, "parse error: %s\n", T.error().c_str());
      return 1;
    }
    Program = lowerLitmusC(*T);
    if (Model.empty())
      Model = "rc11";
  } else {
    ErrorOr<AsmLitmusTest> T = parseAsmLitmus(Text);
    if (!T) {
      fprintf(stderr, "parse error: %s\n", T.error().c_str());
      return 1;
    }
    ErrorOr<SimProgram> Lowered = lowerAsmTest(*T);
    if (!Lowered) {
      fprintf(stderr, "lowering error: %s\n", Lowered.error().c_str());
      return 1;
    }
    Program = std::move(*Lowered);
    if (Model.empty())
      Model = archModelName(T->TargetArch);
  }

  SimResult R = simulateProgram(Program, Model, Opts);
  if (!R.ok()) {
    fprintf(stderr, "simulation error: %s\n", R.Error.c_str());
    return 1;
  }
  printf("Test %s %s\n", Program.Name.c_str(),
         Program.Final.Q == FinalCond::Quant::Forall ? "Required"
                                                     : "Allowed");
  printf("States %zu\n", R.Allowed.size());
  printf("%s", outcomeSetToString(R.Allowed).c_str());
  bool Witness = finalConditionHolds(Program, R);
  printf("%s\n", Witness ? "Ok" : "No");
  for (const std::string &F : R.Flags)
    printf("Flag %s\n", F.c_str());
  printf("Condition %s\n", Program.Final.toString().c_str());
  if (R.TimedOut)
    printf("TIMEOUT (budget exhausted)\n");
  if (Stats) {
    printf("Time %s %.4f (", Program.Name.c_str(), R.Stats.Seconds);
    const char *Sep = "";
#define PRINT_COUNT(Member, Key)                                               \
  printf("%s" Key "=%llu", Sep,                                                \
         static_cast<unsigned long long>(R.Stats.Member));                     \
  Sep = " ";
#define PRINT_NAMED(Member, Key)                                               \
  printf("%s" Key "=%s", Sep, backendUsedName(R.Stats.Member));                \
  Sep = " ";
    TELECHAT_SIM_STATS(PRINT_COUNT, PRINT_NAMED)
#undef PRINT_COUNT
#undef PRINT_NAMED
    printf(")\n");
  }
  if (Opts.CollectExecutions)
    for (size_t I = 0; I != R.Executions.size() && I < 4; ++I)
      printf("%s", executionToDot(R.Executions[I],
                                  Program.Name + std::to_string(I))
                       .c_str());
  return 0;
}
