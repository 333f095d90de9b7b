//===--- WorkServer.h - The distributed campaign work server ----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign work server: pulls units off a UnitSource (a fixed
/// corpus, or a generator streaming diy tests on demand), leases batches
/// to workers over TCP (Protocol.h), re-issues the leases of dead or
/// stalled workers, and merges results by corpus index -- so the merged
/// campaign is bit-identical to the single-process batch drivers no
/// matter how many workers served it, in which order they pulled, or how
/// many of them died along the way. Units are pulled lazily (a Work
/// frame's worth at a time) and their bodies are dropped once merged, so
/// a streamed campaign never materialises the whole corpus.
///
/// Fault model: a lease is returned to the pending queue when its
/// connection drops or its deadline passes. Units are idempotent (pure
/// simulation), so double execution after a requeue is harmless; the
/// first result accepted for a unit wins and duplicates are counted and
/// dropped. Because unit execution is deterministic, a duplicate is
/// byte-equal to the accepted result anyway.
///
/// Durability: with a journal attached (setJournal), every accepted
/// result is appended and flushed before it is merged; preloadResults
/// seeds a restarted server with the journal's replayed results, which
/// merge without being re-served -- the resume path of
/// docs/DISTRIBUTED.md. A resumed campaign's report is byte-identical
/// to an uninterrupted run over the same spec.
///
/// Threading: the server is single-threaded (one poll loop); it is the
/// *workers* that bring parallelism. run() blocks until every unit has a
/// result and can be driven from a std::thread when embedded (tests,
/// benches, the loopback sweep).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_WORKSERVER_H
#define TELECHAT_DIST_WORKSERVER_H

#include "core/Campaign.h"
#include "dist/LeaseFront.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace telechat {

/// Server knobs.
struct WorkServerOptions {
  /// 0 asks the kernel for a free port (see WorkServer::port()).
  uint16_t Port = 0;
  /// Loopback by default: exposing a campaign to a network is an
  /// explicit deployment decision (--bind 0.0.0.0).
  std::string BindAddress = "127.0.0.1";
  /// A lease older than this is re-issued even if its worker is still
  /// connected (covers stalls, not just crashes). Campaign units are
  /// sub-second; minutes of slack only delays fault recovery.
  double LeaseTimeoutSeconds = 120.0;
  /// Cap on units per Work frame regardless of what a worker asks for.
  unsigned MaxUnitsPerRequest = 64;
  /// Retry hint carried by Wait frames.
  unsigned WaitRetryMs = 50;
  /// Canonical corpus dedupe (litmus/Canon.h): serve one unit per
  /// canonical equivalence class and config, answer the others by
  /// renaming the representative's result into their vocabulary. The
  /// merged Results are byte-identical to executing every unit (modulo
  /// per-unit stats, which mirror the representative's); strictly fewer
  /// units hit the wire. Duplicates arriving as journal replays merge
  /// directly and are never re-served (the resume path).
  bool Dedupe = false;
  /// HTTP status endpoint (`GET /status` -> live JSON): -1 disables, 0
  /// binds an ephemeral port (see WorkServer::statusPort()), otherwise
  /// the given port. Bound on BindAddress, like the campaign port.
  int StatusPort = -1;
  /// Progress lines on stderr.
  bool Verbose = false;
};

/// Everything one served campaign produced.
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
  /// Units answered by canonical dedupe (Options::Dedupe) instead of
  /// execution this run. Duplicates resumed from a journal count as
  /// ReplayedResults, not here (their results never needed a rename).
  uint64_t DedupedUnits = 0;
  /// Replayed results whose unit ids the stream never produced (a
  /// journal replayed against the wrong spec); dropped from the merge.
  uint64_t StaleReplays = 0;
  /// Poll-loop iterations of run(): with the earliest-deadline timer
  /// this tracks actual work (frames, accepts, expiries), not a fixed
  /// tick rate.
  uint64_t PollWakeups = 0;
  /// Adaptive lease-size trajectory (LeaseScheduler.h).
  LeaseSizing Sizing;
  std::vector<WorkerTelemetry> Workers;
  double Seconds = 0.0;           ///< Wall clock of run().
  /// Nonempty when the unit source misbehaved (ids out of stream order)
  /// or the journal stopped accepting appends; the merge covers only the
  /// units streamed before the fault.
  std::string Error;
};

class JournalWriter;

class WorkServer {
public:
  /// A materialised corpus. \p Units must satisfy Units[i].Id == i (what
  /// makeCampaignUnits produces): the id is the merge key AND the corpus
  /// position. start() refuses corpora that violate it.
  WorkServer(std::vector<CampaignUnit> Units,
             std::vector<CampaignConfig> Configs,
             WorkServerOptions Options = WorkServerOptions());

  /// A streamed corpus: units are pulled off \p Source on demand (a Work
  /// frame's worth at a time) and must arrive in id order starting at 0
  /// -- what every UnitSource in the tree produces. A violation aborts
  /// the stream and surfaces in CampaignReport::Error.
  WorkServer(std::unique_ptr<UnitSource> Source,
             std::vector<CampaignConfig> Configs,
             WorkServerOptions Options = WorkServerOptions());
  ~WorkServer();
  WorkServer(const WorkServer &) = delete;
  WorkServer &operator=(const WorkServer &) = delete;

  /// Attaches a campaign journal: every accepted result is appended (and
  /// flushed) before it merges. \p J must be open and outlive run().
  /// Call before run().
  void setJournal(JournalWriter *J);

  /// Seeds results replayed from a journal: matching units merge as
  /// completed without being served, and are not re-journaled. Call
  /// before run().
  void preloadResults(std::vector<std::pair<uint64_t, TelechatResult>> R);

  /// Binds and listens. Empty string on success, error text otherwise.
  std::string start();

  /// The bound port; valid after a successful start().
  uint16_t port() const;

  /// The bound status port (Options::StatusPort), 0 when the endpoint
  /// is off; valid after a successful start().
  uint16_t statusPort() const;

  /// Serves until every unit has a result (immediately for an empty or
  /// fully-replayed corpus), then disconnects workers and returns the
  /// merged report.
  CampaignReport run();

private:
  struct Impl;
  Impl *P;
};

} // namespace telechat

#endif // TELECHAT_DIST_WORKSERVER_H
