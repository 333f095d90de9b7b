//===--- CampaignJson.cpp - Campaign report rendering ---------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignJson.h"

#include "sim/Backend.h"
#include "support/StringUtils.h"

using namespace telechat;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20)
        Out += strFormat("\\u%04x", Ch);
      else
        Out += Ch;
    }
  }
  return Out;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  Out += jsonEscape(S);
  Out += '"';
  return Out;
}

void appendOutcomeSet(std::string &J, const OutcomeSet &S) {
  J += "[";
  bool First = true;
  for (const Outcome &O : S) {
    if (!First)
      J += ", ";
    First = false;
    J += quoted(O.toString());
  }
  J += "]";
}

void appendStringList(std::string &J, const std::vector<std::string> &V) {
  J += "[";
  for (size_t I = 0; I != V.size(); ++I) {
    if (I)
      J += ", ";
    J += quoted(V[I]);
  }
  J += "]";
}

/// The deterministic slice of SimStats: everything but Seconds.
void appendSimSide(std::string &J, const SimResult &R) {
  J += "{\"outcomes\": ";
  appendOutcomeSet(J, R.Allowed);
  J += ", \"flags\": ";
  appendStringList(J, std::vector<std::string>(R.Flags.begin(),
                                               R.Flags.end()));
  J += strFormat(", \"timed_out\": %s", R.TimedOut ? "true" : "false");
  J += ", \"stats\": {";
  const char *Sep = "";
#define JSON_COUNT(Member, Key)                                                \
  J += strFormat("%s\"" Key "\": %llu", Sep,                                   \
                 static_cast<unsigned long long>(R.Stats.Member));             \
  Sep = ", ";
#define JSON_NAMED(Member, Key)                                                \
  J += strFormat("%s\"" Key "\": %s", Sep,                                     \
                 quoted(backendUsedName(R.Stats.Member)).c_str());             \
  Sep = ", ";
  TELECHAT_SIM_STATS(JSON_COUNT, JSON_NAMED)
#undef JSON_COUNT
#undef JSON_NAMED
  J += "}}";
}

} // namespace

std::string telechat::campaignVerdict(const TelechatResult &R) {
  if (!R.ok())
    return "error";
  if (R.timedOut())
    return "timeout";
  switch (R.Compare.K) {
  case CompareResult::Kind::Equal:
    return "equal";
  case CompareResult::Kind::Negative:
    return "negative";
  case CompareResult::Kind::Positive:
    return R.Compare.SourceRace ? "racy-positive" : "bug";
  case CompareResult::Kind::CoverageGap:
    return "coverage-gap";
  }
  return "error";
}

std::string
telechat::campaignResultsJson(const std::vector<CampaignUnit> &Units,
                              const std::vector<CampaignConfig> &Configs,
                              const std::vector<TelechatResult> &Results) {
  return campaignResultsJson(campaignUnitMeta(Units), Configs, Results);
}

std::string
telechat::campaignResultsJson(const std::vector<CampaignUnitMeta> &Units,
                              const std::vector<CampaignConfig> &Configs,
                              const std::vector<TelechatResult> &Results) {
  std::string J = "{\n";
  J += strFormat("  \"units\": %zu,\n", Units.size());
  J += "  \"configs\": [";
  for (size_t I = 0; I != Configs.size(); ++I) {
    if (I)
      J += ", ";
    J += "{\"profile\": " + quoted(Configs[I].P.name());
    J += ", \"source_model\": " + quoted(Configs[I].Opts.SourceModel);
    J += strFormat(", \"simulate_only\": %s}",
                   Configs[I].SimulateOnly ? "true" : "false");
  }
  J += "],\n  \"results\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const TelechatResult &R = Results[I];
    J += "    {\"id\": " + std::to_string(I);
    if (I < Units.size()) {
      J += ", \"test\": " + quoted(Units[I].TestName);
      J += strFormat(", \"config\": %u", Units[I].Config);
    }
    J += ", \"verdict\": " + quoted(campaignVerdict(R));
    J += ", \"error\": " + quoted(R.Error);
    J += ", \"source\": ";
    appendSimSide(J, R.SourceSim);
    J += ", \"target\": ";
    appendSimSide(J, R.TargetSim);
    J += ", \"witnesses\": [";
    for (size_t W = 0; W != R.Compare.Witnesses.size(); ++W) {
      if (W)
        J += ", ";
      J += quoted(R.Compare.Witnesses[W].toString());
    }
    J += "], \"target_flags\": ";
    appendStringList(J, R.Compare.TargetFlags);
    J += strFormat(", \"source_race\": %s}",
                   R.Compare.SourceRace ? "true" : "false");
    if (I + 1 != Results.size())
      J += ",";
    J += "\n";
  }
  J += "  ]\n}\n";
  return J;
}

std::string telechat::serviceStatusJson(const ServiceStatus &S) {
  std::string J = "{\n";
  J += "  \"role\": " + quoted(S.Role) + ",\n";
  J += strFormat("  \"planned\": %llu,\n",
                 static_cast<unsigned long long>(S.Planned));
  J += strFormat("  \"generated\": %llu,\n",
                 static_cast<unsigned long long>(S.Generated));
  J += strFormat("  \"completed\": %llu,\n",
                 static_cast<unsigned long long>(S.Completed));
  J += strFormat("  \"pending\": %llu,\n",
                 static_cast<unsigned long long>(S.Pending));
  J += strFormat("  \"leased\": %llu,\n",
                 static_cast<unsigned long long>(S.Leased));
  J += strFormat("  \"requeues\": %llu,\n",
                 static_cast<unsigned long long>(S.Requeues));
  J += strFormat("  \"duplicate_results\": %llu,\n",
                 static_cast<unsigned long long>(S.DuplicateResults));
  J += strFormat("  \"replayed_results\": %llu,\n",
                 static_cast<unsigned long long>(S.ReplayedResults));
  J += strFormat("  \"deduped_units\": %llu,\n",
                 static_cast<unsigned long long>(S.DedupedUnits));
  J += strFormat("  \"poll_wakeups\": %llu,\n",
                 static_cast<unsigned long long>(S.PollWakeups));
  J += strFormat("  \"lease_size_min\": %llu,\n",
                 static_cast<unsigned long long>(S.Sizing.Min));
  J += strFormat("  \"lease_size_max\": %llu,\n",
                 static_cast<unsigned long long>(S.Sizing.Max));
  J += strFormat("  \"lease_size_final\": %llu,\n",
                 static_cast<unsigned long long>(S.Sizing.Final));
  J += strFormat("  \"seconds\": %.3f,\n", S.Seconds);
  J += "  \"workers\": [\n";
  for (size_t I = 0; I != S.Workers.size(); ++I) {
    const ServiceStatus::WorkerRow &W = S.Workers[I];
    double Rate = W.ConnectedSeconds > 0.0
                      ? double(W.UnitsCompleted) / W.ConnectedSeconds
                      : 0.0;
    J += strFormat("    {\"peer\": %s, \"jobs\": %u, \"units_leased\": "
                   "%llu, \"units_completed\": %llu, \"requeued\": %llu, "
                   "\"outstanding\": %llu, \"connected_seconds\": %.3f, "
                   "\"units_per_second\": %.2f}%s\n",
                   quoted(W.Peer).c_str(), W.Jobs,
                   static_cast<unsigned long long>(W.UnitsLeased),
                   static_cast<unsigned long long>(W.UnitsCompleted),
                   static_cast<unsigned long long>(W.Requeued),
                   static_cast<unsigned long long>(W.Outstanding),
                   W.ConnectedSeconds, Rate,
                   I + 1 != S.Workers.size() ? "," : "");
  }
  J += "  ]\n}\n";
  return J;
}

std::string telechat::campaignEngineJson(const CampaignReport &Report,
                                         const char *Engine) {
  std::string J = "{\n";
  J += strFormat("  \"engine\": \"%s\",\n  \"units\": %llu,\n", Engine,
                 static_cast<unsigned long long>(Report.Units));
  J += strFormat("  \"seconds\": %.3f,\n", Report.Seconds);
  J += strFormat("  \"requeues\": %llu,\n",
                 static_cast<unsigned long long>(Report.Requeues));
  J += strFormat("  \"duplicate_results\": %llu,\n",
                 static_cast<unsigned long long>(Report.DuplicateResults));
  J += strFormat("  \"replayed_results\": %llu,\n",
                 static_cast<unsigned long long>(Report.ReplayedResults));
  J += strFormat("  \"deduped_units\": %llu,\n",
                 static_cast<unsigned long long>(Report.DedupedUnits));
  J += strFormat("  \"stale_replays\": %llu,\n",
                 static_cast<unsigned long long>(Report.StaleReplays));
  J += strFormat("  \"source_sims_shared\": %llu,\n",
                 static_cast<unsigned long long>(Report.SourceSimsShared));
  J += strFormat("  \"poll_wakeups\": %llu,\n",
                 static_cast<unsigned long long>(Report.PollWakeups));
  J += strFormat("  \"lease_size_min\": %llu,\n",
                 static_cast<unsigned long long>(Report.Sizing.Min));
  J += strFormat("  \"lease_size_max\": %llu,\n",
                 static_cast<unsigned long long>(Report.Sizing.Max));
  J += strFormat("  \"lease_size_final\": %llu,\n",
                 static_cast<unsigned long long>(Report.Sizing.Final));
  J += "  \"error\": " + quoted(Report.Error) + ",\n";
  // The budget-split coverage summary: which units the campaign ran
  // dynamically (--backend explore or an --explore-budget reroute) and
  // how much schedule exploration they consumed. A unit counts as
  // explored when either simulated side ran the explore backend.
  {
    uint64_t ExploredUnits = 0, ExhaustiveUnits = 0;
    uint64_t Iters = 0, Schedules = 0, CoverageGaps = 0;
    for (const TelechatResult &R : Report.Results) {
      const bool Dyn =
          R.SourceSim.Stats.BackendUsed == uint8_t(SimBackendKind::Explore) ||
          R.TargetSim.Stats.BackendUsed == uint8_t(SimBackendKind::Explore);
      (Dyn ? ExploredUnits : ExhaustiveUnits) += 1;
      Iters += R.SourceSim.Stats.ExploreIterations +
               R.TargetSim.Stats.ExploreIterations;
      Schedules += R.SourceSim.Stats.ExploreSchedules +
                   R.TargetSim.Stats.ExploreSchedules;
      CoverageGaps += R.Compare.K == CompareResult::Kind::CoverageGap;
    }
    J += strFormat("  \"explore\": {\"explored_units\": %llu, "
                   "\"exhaustive_units\": %llu, \"iterations\": %llu, "
                   "\"schedules\": %llu, \"coverage_gaps\": %llu},\n",
                   static_cast<unsigned long long>(ExploredUnits),
                   static_cast<unsigned long long>(ExhaustiveUnits),
                   static_cast<unsigned long long>(Iters),
                   static_cast<unsigned long long>(Schedules),
                   static_cast<unsigned long long>(CoverageGaps));
  }
  J += "  \"workers\": [\n";
  for (size_t I = 0; I != Report.Workers.size(); ++I) {
    const WorkerTelemetry &W = Report.Workers[I];
    double Rate = W.ConnectedSeconds > 0.0
                      ? double(W.UnitsCompleted) / W.ConnectedSeconds
                      : 0.0;
    J += strFormat("    {\"peer\": %s, \"jobs\": %u, \"units_leased\": "
                   "%llu, \"units_completed\": %llu, \"requeued\": %llu, "
                   "\"connected_seconds\": %.3f, \"units_per_second\": "
                   "%.2f}%s\n",
                   quoted(W.Peer).c_str(), W.Jobs,
                   static_cast<unsigned long long>(W.UnitsLeased),
                   static_cast<unsigned long long>(W.UnitsCompleted),
                   static_cast<unsigned long long>(W.Requeued),
                   W.ConnectedSeconds, Rate,
                   I + 1 != Report.Workers.size() ? "," : "");
  }
  J += "  ]\n}\n";
  return J;
}
