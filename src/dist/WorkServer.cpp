//===--- WorkServer.cpp - The distributed campaign work server ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// The server is a LeaseFront (LeaseFront.h) fed by a UnitSource through
// a CampaignLedger (CampaignLedger.h): the front speaks to the workers
// and enforces the fault discipline, the ledger owns the merge, replay,
// dedupe and the journal, and this file pulls the stream and keeps the
// bodies of the units in flight.
//
//===----------------------------------------------------------------------===//

#include "dist/WorkServer.h"

#include "dist/CampaignJson.h"
#include "dist/LeaseFront.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

using namespace telechat;

struct WorkServer::Impl : LeaseFront::Supply, LeaseFront::Sink {
  std::unique_ptr<UnitSource> Source;
  std::vector<CampaignConfig> Configs;
  WorkServerOptions Opts;
  LeaseFront Front;
  LeaseScheduler &Sched;
  CampaignLedger Ledger;
  bool Drained = false;
  bool FaultLogged = false;
  /// Bodies of units queued or leased; erased on completion, so a
  /// streamed campaign's memory tracks the in-flight window, not the
  /// corpus.
  std::map<uint64_t, CampaignUnit> Live;

  Impl(std::unique_ptr<UnitSource> S, std::vector<CampaignConfig> C,
       WorkServerOptions O)
      : Source(std::move(S)), Configs(std::move(C)), Opts(std::move(O)),
        Front("server", "serve", *this, *this, Opts.MaxUnitsPerRequest,
              Opts.LeaseTimeoutSeconds, Opts.WaitRetryMs, Opts.Verbose),
        Sched(Front.scheduler()), Ledger(Opts.Dedupe) {
    sanitizeConfigs();
  }

  void sanitizeConfigs();
  uint64_t planned() const {
    return Drained ? Ledger.admitted() : Source->sizeHint();
  }
  bool pullOne();
  void refill(size_t Want);
  void logFault();
  CampaignReport run();

  // LeaseFront::Supply.
  void appendHelloAck(WireBuffer &B) override;
  void topUp(uint32_t Max) override;
  void appendUnit(WireBuffer &B, uint64_t Id) override {
    encodeCampaignUnit(B, Live.at(Id));
  }
  bool finished() const override { return Drained && Ledger.settled(); }
  uint64_t finalCount() const override { return Ledger.admitted(); }
  int upkeep(int TimeoutMs) override;
  void fillStatus(ServiceStatus &S) const override;
  void collectFds(std::vector<pollfd> &) override {}
  void onReady(const pollfd &) override {}

  // LeaseFront::Sink.
  bool accept(uint64_t Id, TelechatResult R,
              const std::vector<uint8_t> &) override {
    Ledger.complete(Id, std::move(R));
    Live.erase(Id);
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

bool WorkServer::Impl::pullOne() {
  if (Drained)
    return false;
  CampaignUnit U;
  if (!Source->next(U)) {
    Drained = true;
    return false;
  }
  Admission A = Ledger.admit(U);
  if (A == Admission::Execute) {
    Sched.addPending(U.Id);
    Live.emplace(U.Id, std::move(U));
  }
  Drained = A == Admission::Refused;
  return !Drained;
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
                size_t NA = Ledger.parkedBehind(A);
                size_t NB = Ledger.parkedBehind(B);
                if (NA != NB)
                  return NA > NB;
                return A < B; // Corpus order within a class-size tier.
              });
  }
}

int WorkServer::Impl::upkeep(int TimeoutMs) {
  // Every admitted unit is done but the source may have more: find out
  // *now*, not at the next GetWork -- the last worker may have died
  // right after its final result, and waiting for a request that never
  // comes would hang a finished campaign. (On the first iteration this
  // also applies a replayed journal prefix, so a fully-replayed campaign
  // completes with no worker at all.)
  if (!Drained && Ledger.settled())
    refill(1);
  logFault();
  return TimeoutMs;
}

void WorkServer::Impl::logFault() {
  // Once, when it happens: an operator should learn of a lost journal or
  // a misbehaving source while the campaign still runs, not at its end.
  const std::string &Error = Ledger.report().Error;
  if (FaultLogged || Error.empty())
    return;
  FaultLogged = true;
  Front.log("%s", Error.c_str());
}

void WorkServer::Impl::fillStatus(ServiceStatus &S) const {
  const CampaignReport &R = Ledger.report();
  S.Planned = planned();
  S.Generated = Ledger.admitted();
  S.Completed = Ledger.completed();
  S.ReplayedResults = R.ReplayedResults;
  S.DedupedUnits = R.DedupedUnits;
}

CampaignReport WorkServer::Impl::run() {
  Front.run();
  logFault(); // The last result may have faulted after the last upkeep.
  CampaignReport Report = Ledger.finish();
  Report.Requeues = Front.Requeues;
  Report.DuplicateResults = Front.DuplicateResults;
  Report.PollWakeups = Front.PollWakeups;
  Report.Sizing = Sched.sizing();
  Report.Workers = std::move(Front.Workers);
  Report.Seconds = Front.Seconds;
  if (Report.StaleReplays)
    Front.log("%llu replayed results matched no streamed unit "
              "(journal/spec mismatch?)",
              static_cast<unsigned long long>(Report.StaleReplays));
  Front.log("campaign done: %llu units, %llu requeues, %llu duplicates, "
            "%llu replayed, %llu deduped, %llu wakeups",
            static_cast<unsigned long long>(Report.Units),
            static_cast<unsigned long long>(Report.Requeues),
            static_cast<unsigned long long>(Report.DuplicateResults),
            static_cast<unsigned long long>(Report.ReplayedResults),
            static_cast<unsigned long long>(Report.DedupedUnits),
            static_cast<unsigned long long>(Report.PollWakeups));
  return Report;
}

WorkServer::WorkServer(std::vector<CampaignUnit> Units,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options)
    : WorkServer(std::make_unique<VectorUnitSource>(std::move(Units)),
                 std::move(Configs), std::move(Options)) {}

WorkServer::WorkServer(std::unique_ptr<UnitSource> Source,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options)
    : P(new Impl(std::move(Source), std::move(Configs), std::move(Options))) {
}

WorkServer::~WorkServer() { delete P; }

void WorkServer::setJournal(JournalWriter *J) { P->Ledger.setJournal(J); }

void WorkServer::preloadResults(
    std::vector<std::pair<uint64_t, TelechatResult>> R) {
  P->Ledger.replay(std::move(R));
}

std::string WorkServer::start() {
  return P->Front.listen(P->Opts.Port, P->Opts.BindAddress,
                         P->Opts.StatusPort);
}

uint16_t WorkServer::port() const { return P->Front.port(); }

uint16_t WorkServer::statusPort() const { return P->Front.statusPort(); }

CampaignReport WorkServer::run() { return P->run(); }
