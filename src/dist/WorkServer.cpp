//===--- WorkServer.cpp - The distributed campaign work server ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// The server is a LeaseFront (LeaseFront.h) fed by a UnitSource: the
// front speaks to the workers and enforces the fault discipline, and
// this file owns what it may not know -- the unit stream, the merge, the
// journal, and canonical dedupe.
//
//===----------------------------------------------------------------------===//

#include "dist/WorkServer.h"

#include "dist/CampaignJson.h"
#include "dist/Journal.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "litmus/Canon.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

using namespace telechat;

struct WorkServer::Impl : LeaseFront::Supply, LeaseFront::Sink {
  /// The unit stream. The vector constructor wraps its corpus in a
  /// VectorUnitSource at start() after validating ids; the streaming
  /// constructor hands Source over directly.
  std::unique_ptr<UnitSource> Source;
  std::vector<CampaignUnit> SeedUnits; ///< Vector ctor: pending start().
  bool SeedIsVector = false;
  std::vector<CampaignConfig> Configs;
  WorkServerOptions Opts;
  LeaseFront Front;
  LeaseScheduler &Sched;

  JournalWriter *Journal = nullptr;
  /// Journal replay pending application: results whose units the stream
  /// has not produced yet. Applied (and erased) as units are pulled.
  std::map<uint64_t, TelechatResult> Replay;

  /// Units pulled off the source so far; stream ids are [0, Generated).
  uint64_t Generated = 0;
  bool Drained = false;
  /// Bodies of generated-but-uncompleted units (pending or leased);
  /// erased on completion, so a streamed campaign's memory tracks the
  /// in-flight window, not the corpus.
  std::map<uint64_t, CampaignUnit> Live;

  uint64_t CompletedCount = 0;

  // --- Canonical dedupe state (Opts.Dedupe; all empty otherwise).
  /// (config, canon key, canon text) -> representative unit id; the
  /// canonical text disambiguates hash collisions.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t, std::string>, uint64_t>
      CanonReps;
  /// Representative id -> its canonicalization (composeRenaming input).
  std::map<uint64_t, CanonResult> RepCanon;
  /// A duplicate waiting for its representative's result.
  struct ParkedDup {
    uint64_t RepId;
    CanonRenaming Renaming; ///< Rep's names -> the duplicate's names.
  };
  std::map<uint64_t, ParkedDup> Parked;
  /// Representative id -> duplicates to synthesize when it completes.
  std::map<uint64_t, std::vector<uint64_t>> DupsOf;

  CampaignReport Report;

  Impl(std::vector<CampaignConfig> C, WorkServerOptions O)
      : Configs(std::move(C)), Opts(std::move(O)),
        Front("server", "serve", *this, *this, Opts.MaxUnitsPerRequest,
              Opts.LeaseTimeoutSeconds, Opts.WaitRetryMs, Opts.Verbose),
        Sched(Front.scheduler()) {
    sanitizeConfigs();
  }

  void sanitizeConfigs();
  uint64_t planned() const {
    return Drained || !Source ? Generated : Source->sizeHint();
  }
  void complete(uint64_t Id, TelechatResult R, bool FromReplay);
  bool pullOne();
  void refill(size_t Want);
  CampaignReport run();

  // LeaseFront::Supply.
  void appendHelloAck(WireBuffer &B) override;
  void topUp(uint32_t Max) override;
  void appendUnit(WireBuffer &B, uint64_t Id) override {
    encodeCampaignUnit(B, Live.at(Id));
  }
  bool finished() const override {
    return Drained && CompletedCount == Generated;
  }
  uint64_t finalCount() const override { return Generated; }
  int upkeep(int TimeoutMs) override;
  void fillStatus(ServiceStatus &S) const override;
  void collectFds(std::vector<pollfd> &) override {}
  void onReady(const pollfd &) override {}

  // LeaseFront::Sink.
  bool accept(uint64_t Id, TelechatResult R,
              const std::vector<uint8_t> &) override {
    complete(Id, std::move(R), /*FromReplay=*/false);
    return true;
  }
};

void WorkServer::Impl::sanitizeConfigs() {
  // Collected executions are not part of the wire result (Serialize.h);
  // force the option off so the distributed run and a local run of the
  // *sanitized* configs remain bit-identical. Jobs=1 restates what the
  // unit executor enforces anyway.
  for (CampaignConfig &C : Configs) {
    C.Opts.Sim.CollectExecutions = false;
    C.Opts.Sim.Jobs = 1;
  }
}

void WorkServer::Impl::complete(uint64_t Id, TelechatResult R,
                                bool FromReplay) {
  // Journal before merging: a result the journal never saw must not be
  // merged, or a crash right here would resume without it. Replayed
  // results are already on disk and are not re-appended.
  if (!FromReplay && Journal && Journal->isOpen() &&
      !Journal->appendResult(Id, R)) {
    Journal->close();
    if (Report.Error.empty())
      Report.Error = strFormat("journal append failed at unit %llu; "
                               "journaling disabled",
                               static_cast<unsigned long long>(Id));
    Front.log("%s", Report.Error.c_str());
  }
  Report.Results[Id] = std::move(R);
  Sched.markCompleted(Id);
  ++CompletedCount;
  Live.erase(Id);

  // The representative's result just landed (by execution or journal
  // replay): synthesize its parked duplicates. Synthesized results are
  // journaled like executed ones (the FromReplay=false path above), so a
  // resume replays them directly instead of re-parking. Depth is one:
  // duplicates are never representatives.
  auto D = DupsOf.find(Id);
  if (D == DupsOf.end())
    return;
  std::vector<uint64_t> Dups = std::move(D->second);
  DupsOf.erase(D);
  for (uint64_t DupId : Dups) {
    auto P = Parked.find(DupId);
    if (P == Parked.end())
      continue;
    TelechatResult Renamed =
        renameTelechatResult(Report.Results[Id], P->second.Renaming);
    Parked.erase(P);
    complete(DupId, std::move(Renamed), /*FromReplay=*/false);
  }
}

bool WorkServer::Impl::pullOne() {
  if (Drained)
    return false;
  CampaignUnit U;
  if (!Source->next(U)) {
    Drained = true;
    return false;
  }
  if (U.Id != Generated) {
    // The merge (Results, the completion bitmap, the echoed wire id)
    // indexes the stream position; a source breaking the contract would
    // scatter results into wrong slots. Abort the stream instead.
    Drained = true;
    Report.Error = strFormat(
        "unit source produced id %llu at stream position %llu; "
        "WorkServer requires id == position",
        static_cast<unsigned long long>(U.Id),
        static_cast<unsigned long long>(Generated));
    Front.log("%s", Report.Error.c_str());
    return false;
  }
  ++Generated;
  Report.UnitsMeta.push_back(CampaignUnitMeta{U.Test.Name, U.Config});
  Report.Results.emplace_back();
  bool Serve = true;
  auto R = Replay.find(U.Id);
  if (R != Replay.end()) {
    // Already answered by the journal: merge without serving. This runs
    // *before* dedupe classification, so a duplicate whose synthesized
    // result was journaled is replayed, never parked or re-served.
    uint64_t Id = U.Id;
    TelechatResult Res = std::move(R->second);
    Replay.erase(R);
    complete(Id, std::move(Res), /*FromReplay=*/true);
    ++Report.ReplayedResults;
    Serve = false;
  }
  if (Opts.Dedupe) {
    CanonResult CR = canonicalizeTest(U.Test);
    auto Key = std::make_tuple(U.Config, CR.Key.Hi, CR.Key.Lo, CR.Text);
    auto [It, IsNew] = CanonReps.emplace(std::move(Key), U.Id);
    if (IsNew) {
      // First of its class: the representative. Replayed units register
      // too -- their merged result can answer later duplicates.
      RepCanon.emplace(U.Id, std::move(CR));
    } else if (Serve) {
      uint64_t RepId = It->second;
      CanonRenaming Ren = composeRenaming(RepCanon.at(RepId), CR);
      ++Report.DedupedUnits;
      Front.log("unit %llu dedupes to unit %llu",
                static_cast<unsigned long long>(U.Id),
                static_cast<unsigned long long>(RepId));
      if (Sched.completed(RepId)) {
        // Rep already merged (typically a replay): synthesize now.
        complete(U.Id, renameTelechatResult(Report.Results[RepId], Ren),
                 /*FromReplay=*/false);
      } else {
        Parked.emplace(U.Id, ParkedDup{RepId, std::move(Ren)});
        DupsOf[RepId].push_back(U.Id);
      }
      Serve = false;
    }
  }
  if (Serve) {
    Sched.addPending(U.Id);
    Live.emplace(U.Id, std::move(U));
  }
  return true;
}

void WorkServer::Impl::refill(size_t Want) {
  while (Sched.pendingCount() < Want && pullOne()) {
  }
}

void WorkServer::Impl::appendHelloAck(WireBuffer &B) {
  B.appendU16(WireVersion);
  // Planned campaign size: exact for a fixed corpus, the generator's
  // upper bound for a streamed one (advisory; Done carries the final
  // count).
  B.appendU64(planned());
  B.appendU32(uint32_t(Configs.size()));
  for (const CampaignConfig &Config : Configs)
    encodeCampaignConfig(B, Config);
}

void WorkServer::Impl::topUp(uint32_t Max) {
  // Top up the queue from the stream: this is where a generative
  // campaign actually generates, one Work frame's worth at a time.
  refill(Max);
  // Canonical-class-aware scheduling: under --dedupe only class
  // representatives reach the queue, and completing one synthesizes
  // every duplicate parked behind it. Leasing the representatives with
  // the most parked duplicates first turns each completion into the
  // largest possible batch of synthesized results early in the
  // campaign. The merge is keyed by unit id, so serve order is a
  // latency heuristic only -- results stay byte-identical to FIFO order.
  if (Opts.Dedupe && Sched.pendingCount() > 1) {
    std::deque<uint64_t> &Pending = Sched.pending();
    std::sort(Pending.begin(), Pending.end(),
              [this](uint64_t A, uint64_t B) {
                auto DA = DupsOf.find(A), DB = DupsOf.find(B);
                size_t NA = DA == DupsOf.end() ? 0 : DA->second.size();
                size_t NB = DB == DupsOf.end() ? 0 : DB->second.size();
                if (NA != NB)
                  return NA > NB;
                return A < B; // Corpus order within a class-size tier.
              });
  }
}

int WorkServer::Impl::upkeep(int TimeoutMs) {
  // Every generated unit is done but the source may have more: find out
  // *now*, not at the next GetWork -- the last worker may have died
  // right after its final result, and waiting for a request that never
  // comes would hang a finished campaign. (On the first iteration this
  // also applies a replayed journal prefix, so a fully-replayed campaign
  // completes with no worker at all.)
  if (!Drained && CompletedCount == Generated)
    refill(1);
  return TimeoutMs;
}

void WorkServer::Impl::fillStatus(ServiceStatus &S) const {
  S.Planned = planned();
  S.Generated = Generated;
  S.Completed = CompletedCount;
  S.ReplayedResults = Report.ReplayedResults;
  S.DedupedUnits = Report.DedupedUnits;
}

CampaignReport WorkServer::Impl::run() {
  Front.run();
  Report.Units = Generated;
  Report.Requeues = Front.Requeues;
  Report.DuplicateResults = Front.DuplicateResults;
  Report.PollWakeups = Front.PollWakeups;
  Report.Sizing = Sched.sizing();
  Report.Workers = std::move(Front.Workers);
  Report.Seconds = Front.Seconds;
  // Replay entries the stream never produced: a journal replayed against
  // the wrong spec. They are not merge keys, so they are dropped.
  Report.StaleReplays = Replay.size();
  if (Report.StaleReplays)
    Front.log("%llu replayed results matched no streamed unit "
              "(journal/spec mismatch?)",
              static_cast<unsigned long long>(Report.StaleReplays));
  Front.log("campaign done: %llu units, %llu requeues, %llu duplicates, "
            "%llu replayed, %llu deduped, %llu wakeups",
            static_cast<unsigned long long>(Generated),
            static_cast<unsigned long long>(Report.Requeues),
            static_cast<unsigned long long>(Report.DuplicateResults),
            static_cast<unsigned long long>(Report.ReplayedResults),
            static_cast<unsigned long long>(Report.DedupedUnits),
            static_cast<unsigned long long>(Report.PollWakeups));
  return std::move(Report);
}

WorkServer::WorkServer(std::vector<CampaignUnit> Units,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options)
    : P(new Impl(std::move(Configs), std::move(Options))) {
  P->SeedUnits = std::move(Units);
  P->SeedIsVector = true;
}

WorkServer::WorkServer(std::unique_ptr<UnitSource> Source,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options)
    : P(new Impl(std::move(Configs), std::move(Options))) {
  P->Source = std::move(Source);
}

WorkServer::~WorkServer() { delete P; }

void WorkServer::setJournal(JournalWriter *J) { P->Journal = J; }

void WorkServer::preloadResults(
    std::vector<std::pair<uint64_t, TelechatResult>> R) {
  for (auto &[Id, Result] : R)
    P->Replay.emplace(Id, std::move(Result)); // First occurrence wins.
}

std::string WorkServer::start() {
  if (P->SeedIsVector) {
    // The whole merge is keyed on "unit id == corpus position" (the
    // pending queue, the completion bitmap, Results and the echoed wire
    // id all index the same stream). Refuse a corpus that breaks the
    // invariant up front rather than scattering results into wrong
    // slots.
    for (size_t I = 0; I != P->SeedUnits.size(); ++I)
      if (P->SeedUnits[I].Id != I)
        return strFormat("campaign unit at position %zu has id %llu; "
                         "WorkServer requires id == corpus index",
                         I,
                         static_cast<unsigned long long>(
                             P->SeedUnits[I].Id));
    P->Source = std::make_unique<VectorUnitSource>(std::move(P->SeedUnits));
    P->SeedUnits.clear();
    P->SeedIsVector = false;
  }
  if (!P->Source)
    return "WorkServer has no unit source";
  return P->Front.listen(P->Opts.Port, P->Opts.BindAddress,
                         P->Opts.StatusPort);
}

uint16_t WorkServer::port() const { return P->Front.port(); }

uint16_t WorkServer::statusPort() const { return P->Front.statusPort(); }

CampaignReport WorkServer::run() { return P->run(); }
