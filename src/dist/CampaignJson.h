//===--- CampaignJson.h - Campaign report rendering -------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON rendering of campaign results, split along the determinism
/// boundary:
///
///  - campaignResultsJson(): outcomes, flags, verdicts and the
///    deterministic stats of every unit in corpus order -- and nothing
///    wall-clock-dependent. A distributed campaign and the local driver
///    over the same corpus produce *byte-identical* files, which is how
///    the CI loopback smoke (and any deployment) verifies a cluster:
///    cmp local.json distributed.json.
///
///  - campaignEngineJson(): what the run cost -- wall clock, replays and
///    dedupes, and for a served run per-worker throughput and requeues.
///    Legitimately different every run; kept in a separate file so the
///    deterministic artefact stays diffable.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_CAMPAIGNJSON_H
#define TELECHAT_DIST_CAMPAIGNJSON_H

#include "core/Campaign.h"
#include "dist/CampaignLedger.h"

#include <string>
#include <vector>

namespace telechat {

/// One-word verdict for a campaign unit ("equal", "negative", "bug",
/// "racy-positive", "timeout", "error"), the JSON vocabulary shared by
/// reports and the regression-gate examples.
std::string campaignVerdict(const TelechatResult &R);

/// Deterministic per-unit results, corpus order. See the file comment.
/// The meta form is what streamed campaigns use (unit bodies are gone by
/// report time); the unit form renders byte-identically for the same
/// corpus.
std::string campaignResultsJson(const std::vector<CampaignUnitMeta> &Units,
                                const std::vector<CampaignConfig> &Configs,
                                const std::vector<TelechatResult> &Results);
std::string campaignResultsJson(const std::vector<CampaignUnit> &Units,
                                const std::vector<CampaignConfig> &Configs,
                                const std::vector<TelechatResult> &Results);

/// Engine telemetry of a campaign (nondeterministic by nature); \p Engine
/// names the driver that ran it: "local" or "work-server".
std::string campaignEngineJson(const CampaignReport &Report,
                               const char *Engine);

/// A live snapshot of a running campaign service (server or relay), the
/// body of the HTTP status endpoint (`GET /status`). Same vocabulary as
/// the engine JSON, taken mid-run.
struct ServiceStatus {
  std::string Role; ///< "server" or "relay".
  uint64_t Planned = 0;   ///< sizeHint of the stream (advisory).
  uint64_t Generated = 0; ///< Units pulled off the source so far.
  uint64_t Completed = 0;
  uint64_t Pending = 0; ///< Queued, not leased.
  uint64_t Leased = 0;  ///< In flight on workers.
  uint64_t Requeues = 0;
  uint64_t DuplicateResults = 0;
  uint64_t ReplayedResults = 0;
  uint64_t DedupedUnits = 0;
  uint64_t PollWakeups = 0;
  LeaseSizing Sizing;
  double Seconds = 0.0; ///< Wall clock since run() started.
  struct WorkerRow {
    std::string Peer;
    uint32_t Jobs = 0;
    uint64_t UnitsLeased = 0;
    uint64_t UnitsCompleted = 0;
    uint64_t Requeued = 0;
    uint64_t Outstanding = 0; ///< Leases held right now.
    double ConnectedSeconds = 0.0;
  };
  std::vector<WorkerRow> Workers;
};

/// Renders \p S as the /status JSON document.
std::string serviceStatusJson(const ServiceStatus &S);

} // namespace telechat

#endif // TELECHAT_DIST_CAMPAIGNJSON_H
