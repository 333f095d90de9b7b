//===--- CampaignCli.cpp - Shared campaign/serve CLI driver ---------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignCli.h"

#include "core/Campaign.h"
#include "dist/CampaignJson.h"
#include "dist/CampaignLedger.h"
#include "dist/Journal.h"
#include "dist/WorkServer.h"
#include "diy/Classics.h"
#include "diy/Config.h"
#include "diy/Generator.h"
#include "diy/RealWorld.h"
#include "litmus/Snippet.h"
#include "sim/Backend.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace telechat;

namespace {

/// A corpus flag, recorded during parsing and materialised afterwards so
/// flag order does not matter (--limit may follow --suite).
struct CorpusSpec {
  enum class Kind { File, Suite, RealWorldSuite, Classics, KernelDir } K;
  std::string Value; ///< RealWorldSuite: family name, or "" for all.
};

/// Expands the specs (in the order given) into the campaign corpus.
/// Prints and returns false on errors.
bool buildCorpus(const std::vector<CorpusSpec> &Specs, unsigned SuiteLimit,
                 std::vector<LitmusTest> &Tests) {
  for (const CorpusSpec &Spec : Specs) {
    switch (Spec.K) {
    case CorpusSpec::Kind::File: {
      ErrorOr<std::vector<LitmusTest>> FileTests =
          readLitmusCorpus(Spec.Value);
      if (!FileTests) {
        fprintf(stderr, "error: %s\n", FileTests.error().c_str());
        return false;
      }
      Tests.insert(Tests.end(), FileTests->begin(), FileTests->end());
      break;
    }
    case CorpusSpec::Kind::Suite: {
      SuiteConfig Config = Spec.Value == "c11acq" ? SuiteConfig::c11Acq()
                                                  : SuiteConfig::c11();
      Config.Limit = SuiteLimit;
      std::vector<LitmusTest> Suite = generateSuite(Config);
      Tests.insert(Tests.end(), Suite.begin(), Suite.end());
      break;
    }
    case CorpusSpec::Kind::RealWorldSuite: {
      std::vector<LitmusTest> Suite;
      if (Spec.Value.empty()) {
        Suite = realWorldTests();
      } else {
        ErrorOr<std::vector<RealWorldCase>> Family =
            realWorldFamily(Spec.Value);
        if (!Family) {
          fprintf(stderr, "error: %s\n", Family.error().c_str());
          return false;
        }
        for (RealWorldCase &C : *Family)
          Suite.push_back(std::move(C.Test));
      }
      if (SuiteLimit && Suite.size() > SuiteLimit)
        Suite.resize(SuiteLimit);
      Tests.insert(Tests.end(), std::make_move_iterator(Suite.begin()),
                   std::make_move_iterator(Suite.end()));
      break;
    }
    case CorpusSpec::Kind::Classics:
      for (const std::string &Name : classicNames())
        Tests.push_back(classicTest(Name));
      break;
    case CorpusSpec::Kind::KernelDir: {
      ErrorOr<std::vector<LitmusTest>> Kernels =
          readKernelDirectory(Spec.Value);
      if (!Kernels) {
        fprintf(stderr, "error: %s\n", Kernels.error().c_str());
        return false;
      }
      Tests.insert(Tests.end(), std::make_move_iterator(Kernels->begin()),
                   std::make_move_iterator(Kernels->end()));
      break;
    }
    }
  }
  return true;
}

bool writeJson(const std::string &Path, const std::string &Contents) {
  if (!writeTextFile(Path, Contents)) {
    fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// Pipeline-campaign summary (bug table); exit 2 on bugs, like
/// single-test mode. With several configs, a bug line names its unit's
/// profile too.
int summarisePipeline(const std::vector<CampaignUnitMeta> &Units,
                      const std::vector<CampaignConfig> &Configs,
                      const std::vector<TelechatResult> &Results) {
  size_t Bugs = 0, Errors = 0, Timeouts = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    const TelechatResult &R = Results[I];
    if (R.isBug()) {
      ++Bugs;
      std::string Test = I < Units.size() ? Units[I].TestName : "?";
      if (Configs.size() > 1)
        Test += I < Units.size() && Units[I].Config < Configs.size()
                    ? " " + Configs[Units[I].Config].P.name()
                    : " ?";
      printf("  BUG  %-28s %s\n", Test.c_str(), campaignVerdict(R).c_str());
    } else if (!R.ok()) {
      ++Errors;
    } else if (R.timedOut()) {
      ++Timeouts;
    }
  }
  printf("campaign: %zu units, %zu bugs, %zu errors, %zu timeouts\n",
         Results.size(), Bugs, Errors, Timeouts);
  return Bugs ? 2 : 0;
}

/// The configs' profile names in table order, space-separated.
std::string profileList(const std::vector<CampaignConfig> &Configs) {
  std::string Names;
  for (const CampaignConfig &C : Configs)
    Names += (Names.empty() ? "" : " ") + C.P.name();
  return Names;
}

/// Simulation-only summary: herd-style state counts per test.
int summariseSim(const std::vector<CampaignUnitMeta> &Units,
                 const std::vector<TelechatResult> &Results) {
  for (size_t I = 0; I != Results.size(); ++I) {
    const SimResult &R = Results[I].SourceSim;
    std::string Suffix = R.ok() ? "" : " ERROR: " + R.Error;
    printf("%-28s %zu states%s%s\n",
           I < Units.size() ? Units[I].TestName.c_str() : "?",
           R.Allowed.size(), R.TimedOut ? " TIMEOUT" : "",
           Suffix.c_str());
  }
  return 0;
}

} // namespace

int telechat::campaignToolMain(int argc, char **argv, void (*Usage)(),
                               CampaignCliMode Mode) {
  bool Serve = Mode != CampaignCliMode::Local;
  std::vector<std::string> ProfileNames; ///< One config each, flag order.
  TestOptions Options;
  bool ConfigFlagsSet = false; ///< --profile/--model/... explicitly given.
  unsigned Jobs = 0;
  std::vector<CorpusSpec> Corpus;
  unsigned SuiteLimit = 0;
  RandomGenOptions GenOpts;
  bool UseGen = false, GenExtras = false, Materialise = false;
  std::string JournalPath;
  bool Resume = false, Compact = false;
  std::string CampaignJsonPath, EngineJsonPath;
  WorkServerOptions ServerOpts;
  bool Dedupe = false;
  bool Verbose = false;
  int I = 2;
  if (Serve) {
    if (argc < 3) {
      Usage();
      return 1;
    }
    if (!parseFlag(argv[1], argv[2], ServerOpts.Port))
      return 1;
    I = 3;
  }
  for (; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--limit") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, SuiteLimit))
        return 1;
    } else if (Arg == "--corpus" || Arg == "--suite") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      std::string Val = V;
      if (Arg == "--suite" && Val.rfind("realworld", 0) == 0 &&
          (Val.size() == strlen("realworld") ||
           Val[strlen("realworld")] == ':')) {
        std::string Family = Val.size() > strlen("realworld")
                                 ? Val.substr(strlen("realworld") + 1)
                                 : "";
        Corpus.push_back(
            CorpusSpec{CorpusSpec::Kind::RealWorldSuite, Family});
      } else {
        Corpus.push_back(CorpusSpec{Arg == "--corpus"
                                        ? CorpusSpec::Kind::File
                                        : CorpusSpec::Kind::Suite,
                                    Val});
      }
    } else if (Arg == "--classics") {
      Corpus.push_back(CorpusSpec{CorpusSpec::Kind::Classics, ""});
    } else if (Arg == "--kernels") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      Corpus.push_back(CorpusSpec{CorpusSpec::Kind::KernelDir, V});
    } else if (Arg == "--gen-seed") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      UseGen = true;
      if (!parseFlag(Arg, V, GenOpts.Seed))
        return 1;
    } else if (Arg == "--gen-count") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      GenExtras = true;
      if (!parseFlag(Arg, V, GenOpts.Count))
        return 1;
    } else if (Arg == "--gen-max-edges") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      GenExtras = true;
      if (!parseFlag(Arg, V, GenOpts.MaxEdges))
        return 1;
    } else if (Arg == "--materialise" || Arg == "--materialize") {
      Materialise = true;
    } else if (Arg == "--journal") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      JournalPath = V;
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg == "--compact") {
      Compact = true;
    } else if (Arg == "--status-port") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, ServerOpts.StatusPort, 65535))
        return 1;
    } else if (Arg == "--profile") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      ProfileNames.push_back(V);
      ConfigFlagsSet = true;
    } else if (Arg == "--model") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      Options.SourceModel = V;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-augment") {
      Options.AugmentLocals = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-optimise") {
      Options.OptimiseCompiled = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--const-model") {
      Options.ConstAugmentedModel = true;
      ConfigFlagsSet = true;
    } else if (Arg == "--backend") {
      if (!(V = Next()) || !backendFromName(V, Options.Sim.Backend)) {
        fprintf(stderr, "error: --backend expects sweep|solve|auto|explore\n");
        return 1;
      }
      ConfigFlagsSet = true;
    } else if (Arg == "--explore-budget") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, Options.Sim.ExploreBudget))
        return 1;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-prune") {
      Options.Sim.RfValuePruning = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-cat-cache") {
      Options.Sim.IncrementalCatEval = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--max-steps") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, Options.Sim.MaxSteps))
        return 1;
      ConfigFlagsSet = true;
    } else if (Arg == "-j" || Arg == "--jobs") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, Jobs))
        return 1;
    } else if (Arg == "--campaign-json") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      CampaignJsonPath = V;
    } else if (Arg == "--engine-json") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      EngineJsonPath = V;
    } else if (Arg == "--bind") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      ServerOpts.BindAddress = V;
    } else if (Arg == "--lease-timeout") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, ServerOpts.LeaseTimeoutSeconds))
        return 1;
    } else if (Arg == "--batch") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlag(Arg, V, ServerOpts.MaxUnitsPerRequest))
        return 1;
    } else if (Arg == "--dedupe") {
      Dedupe = true;
    } else if (Arg == "--verbose") {
      Verbose = true;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Usage();
      return 1;
    }
  }

  if (UseGen && !Corpus.empty()) {
    fprintf(stderr, "error: --gen-seed cannot mix with "
                    "--corpus/--suite/--classics (unit ids would be "
                    "ambiguous)\n");
    return 1;
  }
  if (!UseGen && (GenExtras || Materialise)) {
    fprintf(stderr, "error: --gen-count/--gen-max-edges/--materialise "
                    "require --gen-seed\n");
    return 1;
  }
  if (Resume && JournalPath.empty()) {
    fprintf(stderr, "error: --resume requires --journal\n");
    return 1;
  }
  if (Compact && JournalPath.empty()) {
    fprintf(stderr, "error: --compact requires --journal\n");
    return 1;
  }

  bool SimOnly = Mode == CampaignCliMode::SimServe;
  std::vector<CampaignConfig> Configs;
  CampaignSourceSpec Spec;
  JournalWriter Journal;
  std::vector<std::pair<uint64_t, TelechatResult>> Replay;

  if (Resume) {
    // The journal is authoritative: it records the spec and configs the
    // crashed server ran, which are what the replayed results belong to.
    ErrorOr<JournalContents> J = readJournal(JournalPath);
    if (!J) {
      fprintf(stderr, "error: %s\n", J.error().c_str());
      return 1;
    }
    if (J->TruncatedTail)
      fprintf(stderr,
              "note: %s ends in a partial record (server died "
              "mid-append); the tail was discarded\n",
              JournalPath.c_str());
    if (UseGen || !Corpus.empty() || ConfigFlagsSet)
      fprintf(stderr,
              "note: --resume replays the journal's campaign spec and "
              "config table; corpus/generator/profile/model flags are "
              "ignored\n");
    Spec = std::move(J->Spec);
    Configs = std::move(J->Configs);
    Replay = std::move(J->Results);
    if (Configs.empty()) {
      fprintf(stderr, "error: %s: empty config table\n",
              JournalPath.c_str());
      return 1;
    }
    SimOnly = Configs[0].SimulateOnly;
    // Truncate to the valid prefix: appending behind a discarded
    // partial tail would corrupt the framing for the next resume.
    std::string E = Journal.openAppend(JournalPath, J->ValidBytes);
    if (!E.empty()) {
      fprintf(stderr, "error: %s\n", E.c_str());
      return 1;
    }
    printf("resuming campaign from %s: %zu results replayed\n",
           JournalPath.c_str(), Replay.size());
  } else {
    if (ProfileNames.empty())
      ProfileNames.push_back("llvm-O2-AArch64");
    if (SimOnly) // The profile plays no part in a simulation unit.
      Configs = {{Profile(), Options, true}};
    else
      for (const std::string &Name : ProfileNames) {
        Profile P;
        if (!profileFromName(Name, P)) {
          fprintf(stderr, "error: unknown profile '%s'\n", Name.c_str());
          return 1;
        }
        Configs.push_back({P, Options, false});
      }
    if (UseGen && !Materialise) {
      // Streamed: the corpus exists only as this spec; units are
      // generated as they are leased (or executed, locally).
      Spec.K = CampaignSourceSpec::Kind::Generator;
      Spec.Gen = GenOpts;
      Spec.NumConfigs = uint32_t(Configs.size());
    } else {
      std::vector<LitmusTest> Tests;
      if (UseGen) {
        Tests = generateRandomTests(GenOpts);
      } else if (!buildCorpus(Corpus, SuiteLimit, Tests)) {
        return 1;
      }
      if (Tests.empty()) {
        fprintf(stderr,
                UseGen ? "error: the generator produced no tests\n"
                       : "error: empty corpus "
                         "(--corpus/--suite/--classics/--gen-seed)\n");
        return 1;
      }
      Spec.K = CampaignSourceSpec::Kind::Corpus;
      Spec.Units =
          makeCampaignUnits(Tests, uint32_t(Configs.size()), /*Cross=*/true);
    }
    if (!JournalPath.empty()) {
      // Never truncate an existing journal: it may be a crashed
      // campaign's only record.
      std::ifstream Probe(JournalPath);
      if (Probe) {
        fprintf(stderr,
                "error: journal %s already exists; restart with "
                "--resume to continue it, or remove it\n",
                JournalPath.c_str());
        return 1;
      }
    }
  }

  // A new journal's header needs the spec intact, so it is written before
  // the corpus moves into its source -- except when serving, where it is
  // created only once the port is bound, so a failed bind cannot orphan a
  // header-only file that would block a plain retry of the same command.
  bool CreateJournal = !JournalPath.empty() && !Resume;
  auto StartJournal = [&] {
    std::string E = Journal.create(JournalPath, Spec, Configs);
    if (!E.empty())
      fprintf(stderr, "error: %s\n", E.c_str());
    return E.empty();
  };
  CampaignReport Report;
  if (Serve) {
    ServerOpts.Verbose = Verbose;
    ServerOpts.Dedupe = Dedupe;
    bool Streamed = Spec.K == CampaignSourceSpec::Kind::Generator;
    std::unique_ptr<UnitSource> Source =
        CreateJournal ? Spec.makeSource() : Spec.takeSource();
    uint64_t Hint = Source->sizeHint();
    WorkServer Server(std::move(Source), Configs, ServerOpts);
    Server.preloadResults(std::move(Replay));
    std::string Error = Server.start();
    if (!Error.empty()) {
      fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (CreateJournal) {
      if (!StartJournal())
        return 1;
      Spec.Units.clear();
      Spec.Units.shrink_to_fit();
    }
    Server.setJournal(&Journal);
    if (SimOnly)
      printf("serving %s%llu simulation units on %s:%u (model %s)\n",
             Streamed ? "up to " : "",
             static_cast<unsigned long long>(Hint),
             ServerOpts.BindAddress.c_str(), unsigned(Server.port()),
             Configs[0].Opts.SourceModel.c_str());
    else
      printf("serving %s%llu units on %s:%u (profile %s, model %s)\n",
             Streamed ? "up to " : "",
             static_cast<unsigned long long>(Hint),
             ServerOpts.BindAddress.c_str(), unsigned(Server.port()),
             profileList(Configs).c_str(),
             Configs[0].Opts.SourceModel.c_str());
    fflush(stdout);
    Report = Server.run();
    printf("served: %.2f s, %llu requeues, %llu replayed, %llu deduped, "
           "%zu workers\n",
           Report.Seconds,
           static_cast<unsigned long long>(Report.Requeues),
           static_cast<unsigned long long>(Report.ReplayedResults),
           static_cast<unsigned long long>(Report.DedupedUnits),
           Report.Workers.size());
  } else {
    if (CreateJournal && !StartJournal())
      return 1;
    CampaignLedger Ledger(Dedupe);
    Ledger.replay(std::move(Replay));
    Ledger.setJournal(&Journal);
    ThreadPool Pool(resolveJobs(Jobs));
    Report = runLocalCampaign(*Spec.takeSource(), Configs, Pool, Ledger);
    if (Resume)
      printf("replayed: %llu results merged from the journal without "
             "re-execution\n",
             static_cast<unsigned long long>(Report.ReplayedResults));
    if (Dedupe)
      printf("deduped: %llu of %zu units answered by canonical "
             "representatives\n",
             static_cast<unsigned long long>(Report.DedupedUnits),
             Report.Results.size());
  }
  if (Report.StaleReplays)
    fprintf(stderr,
            "warning: %llu journal results matched no unit of the "
            "campaign spec\n",
            static_cast<unsigned long long>(Report.StaleReplays));
  if (!EngineJsonPath.empty() &&
      !writeJson(EngineJsonPath,
                 campaignEngineJson(Report, Serve ? "work-server" : "local")))
    return 1;

  if (Report.Results.empty()) {
    // Every materialised path refused an empty corpus up front; the
    // streamed paths only learn the size after draining. A zero-unit
    // campaign (--gen-count 0, or an exhausted attempt budget) reading
    // as "campaign passed" would hide a broken spec. A source refused at
    // its first unit lands here too, and its Error is the real cause.
    fprintf(stderr, "error: %s\n",
            Report.Error.empty() ? "the campaign produced no units"
                                 : Report.Error.c_str());
    return 1;
  }
  if (!CampaignJsonPath.empty() &&
      !writeJson(CampaignJsonPath, campaignResultsJson(Report.UnitsMeta,
                                                       Configs,
                                                       Report.Results)))
    return 1;
  int Exit = SimOnly ? summariseSim(Report.UnitsMeta, Report.Results)
                     : summarisePipeline(Report.UnitsMeta, Configs,
                                         Report.Results);
  if (!Report.Error.empty()) {
    // The merged results above are valid, but the run broke a promise
    // (journal stopped accepting appends, or the source misbehaved):
    // write the artefacts, then fail loudly -- an exit-0 campaign that
    // silently lost its durability would be worse than the fault.
    fprintf(stderr, "error: %s\n", Report.Error.c_str());
    return 1;
  }
  if (Compact) {
    // Only after a fault-free campaign: compacting a journal whose run
    // just broke would destroy the evidence a resume needs.
    Journal.close();
    ErrorOr<CompactStats> S = compactJournal(JournalPath);
    if (!S) {
      fprintf(stderr, "error: %s\n", S.error().c_str());
      return 1;
    }
    printf("compacted %s: %llu -> %llu bytes, %llu results\n",
           JournalPath.c_str(),
           static_cast<unsigned long long>(S->BytesBefore),
           static_cast<unsigned long long>(S->BytesAfter),
           static_cast<unsigned long long>(S->Results));
  }
  return Exit;
}
