//===--- CampaignLedger.h - The merge of one campaign -----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign ledger: everything between the unit stream and the merged
/// report, implemented once for the local driver and the work server.
/// A driver hands the ledger the stream in order (admit) and the results
/// it executed (complete); the ledger owns the rest:
///
///  - the one id == stream-position check: Results, the completion state
///    and the journal all index the stream, so a unit breaking it is
///    refused rather than merged into a wrong slot;
///  - journal replay: a unit the journal already answered merges on
///    admission, is never executed and is not re-appended. Replay runs
///    before dedupe classification, so a duplicate whose synthesised
///    result was journaled is replayed, never parked;
///  - canonical dedupe (litmus/Canon.h): one representative per (config,
///    canonical class) executes; later members park behind it and are
///    synthesised by renaming its result the moment it merges;
///  - journal-before-merge: every executed or synthesised result is
///    appended and flushed before it merges, so a crash never resumes
///    without a result the report already holds. The first failed append
///    closes the journal and sets the report's Error; merging goes on.
///
/// Because both drivers merge through this class, a local and a served
/// campaign over the same spec and journal produce the same report --
/// the same results, replay and dedupe counts, stale replays and errors.
///
/// Threading: none. The work server calls it from its poll loop; the
/// local driver (runLocalCampaign) serialises its lanes on one mutex.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_CAMPAIGNLEDGER_H
#define TELECHAT_DIST_CAMPAIGNLEDGER_H

#include "core/Campaign.h"
#include "dist/LeaseFront.h"
#include "litmus/Canon.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace telechat {

/// Everything one campaign produced, local or served.
struct CampaignReport {
  /// Results in corpus order (index = unit id); the deterministic merge.
  std::vector<TelechatResult> Results;
  /// Name/config of every unit in corpus order: what summaries and the
  /// results JSON need after streamed unit bodies are dropped.
  std::vector<CampaignUnitMeta> UnitsMeta;
  uint64_t Units = 0;             ///< Corpus size (survives moving Results).
  uint64_t Requeues = 0;          ///< Leases re-issued (faults observed).
  uint64_t DuplicateResults = 0;  ///< Late results dropped after requeue.
  /// Results merged from a journal replay instead of execution (resume).
  uint64_t ReplayedResults = 0;
  /// Units answered by canonical dedupe instead of execution this run.
  /// Duplicates resumed from a journal count as ReplayedResults, not
  /// here (their results never needed a rename).
  uint64_t DedupedUnits = 0;
  /// Results a driver executed this run and handed to complete(): lane
  /// completions locally, worker results served. Replayed and deduped
  /// units are never among them.
  uint64_t ExecutedUnits = 0;
  /// Replayed results whose unit ids the stream never produced (a
  /// journal replayed against the wrong spec); dropped from the merge.
  uint64_t StaleReplays = 0;
  /// Units whose source side a lane took from another config's
  /// simulation of the same test (runCampaignUnits' source memo). 0 for
  /// a served run: workers share within a lease but do not report it.
  uint64_t SourceSimsShared = 0;
  /// Poll-loop iterations of a served run: with the earliest-deadline
  /// timer this tracks actual work (frames, accepts, expiries), not a
  /// fixed tick rate. 0 for a local run.
  uint64_t PollWakeups = 0;
  /// Adaptive lease-size trajectory (LeaseScheduler.h) of a served run.
  LeaseSizing Sizing;
  std::vector<WorkerTelemetry> Workers; ///< Empty for a local run.
  double Seconds = 0.0; ///< Wall clock of the run.
  /// Nonempty when the unit source misbehaved (ids out of stream order)
  /// or the journal stopped accepting appends; the merge covers only the
  /// units streamed before the fault.
  std::string Error;
};

/// What CampaignLedger::admit decided for one unit.
enum class Admission {
  Execute,  ///< Run it and hand its result to complete().
  Answered, ///< Replayed, or a duplicate: the ledger supplies its result.
  Refused,  ///< Its id is not its stream position: stop pulling.
};

class JournalWriter;

class CampaignLedger {
public:
  /// \p Dedupe turns on canonical corpus dedupe (WorkServerOptions).
  explicit CampaignLedger(bool Dedupe) : Dedupe(Dedupe) {}

  /// Attaches a campaign journal: while \p J is open, every completed or
  /// synthesised result is appended (and flushed) before it merges.
  /// \p J must outlive the ledger's use.
  void setJournal(JournalWriter *J) { Journal = J; }

  /// Seeds results replayed from a journal; the first occurrence of an id
  /// wins. Those units merge on admission instead of executing.
  void replay(std::vector<std::pair<uint64_t, TelechatResult>> R);

  /// Takes the next unit of the stream. A unit whose id is not its
  /// stream position is refused and sets the report's Error; the driver
  /// must stop pulling, and the merge covers the units admitted before.
  Admission admit(const CampaignUnit &U);

  /// The result of unit \p Id, which admit() answered Execute: counts it
  /// as executed, journals and merges it, then synthesises the
  /// duplicates parked behind it.
  void complete(uint64_t Id, TelechatResult R);

  /// Units admitted so far; stream ids are [0, admitted()).
  uint64_t admitted() const { return Report.Results.size(); }
  uint64_t completed() const { return Completed; }
  /// True when every admitted unit has its result.
  bool settled() const { return Completed == admitted(); }
  /// Duplicates parked behind representative \p Id.
  size_t parkedBehind(uint64_t Id) const;
  const CampaignReport &report() const { return Report; }

  /// The merged report, with Units and StaleReplays final. The ledger is
  /// spent afterwards.
  CampaignReport finish();

private:
  void record(uint64_t Id, TelechatResult R);
  void merge(uint64_t Id, TelechatResult R);

  bool Dedupe;
  JournalWriter *Journal = nullptr;
  /// Journal results whose units the stream has not produced yet.
  std::map<uint64_t, TelechatResult> Replay;
  std::vector<bool> Merged; ///< Per admitted unit: its result is in.
  uint64_t Completed = 0;
  /// (config, canon key, canon text) -> the representative's id and its
  /// canonicalisation (composeRenaming input). The canonical text rides
  /// along so a key collision splits classes instead of merging
  /// strangers.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t, std::string>,
           std::pair<uint64_t, CanonResult>>
      Reps;
  /// Representative id -> (duplicate id, rep's names -> the duplicate's)
  /// for each duplicate waiting on its result.
  std::map<uint64_t, std::vector<std::pair<uint64_t, CanonRenaming>>> Parked;
  CampaignReport Report;
};

/// The local driver: drains \p Source over \p Pool's lanes through
/// \p Ledger, admitting and completing under one mutex, and returns the
/// finished report with Seconds set to the pool's wall clock and
/// SourceSimsShared to runCampaignUnits' count.
CampaignReport runLocalCampaign(UnitSource &Source,
                                const std::vector<CampaignConfig> &Configs,
                                ThreadPool &Pool, CampaignLedger &Ledger);

} // namespace telechat

#endif // TELECHAT_DIST_CAMPAIGNLEDGER_H
