//===--- LeaseFront.cpp - Downstream protocol of the campaign service -----===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/LeaseFront.h"

#include "dist/CampaignJson.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace telechat;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Idle poll bound: with no leases outstanding the loop still wakes a
/// couple of times a second to notice a drained stream. Lease deadlines
/// shorten it (LeaseScheduler::pollTimeoutMs).
constexpr int IdlePollMs = 500;

} // namespace

LeaseFront::LeaseFront(const char *Role, const char *LogTag, Supply &Units,
                       Sink &Results, unsigned MaxUnitsPerRequest,
                       double LeaseTimeoutSeconds, unsigned WaitRetryMs,
                       bool Verbose)
    : Role(Role), LogTag(LogTag), Units(Units), Results(Results),
      MaxPerRequest(std::max(MaxUnitsPerRequest, 1u)),
      WaitRetryMs(WaitRetryMs ? WaitRetryMs : 50), Verbose(Verbose),
      Sched(MaxPerRequest, LeaseTimeoutSeconds) {}

std::string LeaseFront::listen(uint16_t Port, const std::string &BindAddress,
                               int StatusPort) {
  std::string Err = Host.listen(Port, BindAddress);
  if (!Err.empty())
    return Err;
  if (StatusPort >= 0) {
    Err = Status.listen(uint16_t(StatusPort), BindAddress);
    if (!Err.empty())
      return "status endpoint: " + Err;
  }
  return "";
}

void LeaseFront::log(const char *Fmt, ...) const {
  if (!Verbose)
    return;
  va_list Args;
  va_start(Args, Fmt);
  fprintf(stderr, "[%s] ", LogTag);
  vfprintf(stderr, Fmt, Args);
  fprintf(stderr, "\n");
  va_end(Args);
}

bool LeaseFront::anyWorker() const {
  for (const PeerSession &C : Host.peers())
    if (C.Sock.valid() && C.Handshook)
      return true;
  return false;
}

void LeaseFront::dropConn(size_t Slot) {
  PeerSession &C = Host.peer(Slot);
  if (!C.Sock.valid())
    return;
  std::vector<uint64_t> Requeued = Sched.dropPeer(Slot);
  Requeues += Requeued.size();
  Workers[C.Telemetry].Requeued += Requeued.size();
  Workers[C.Telemetry].ConnectedSeconds = secondsSince(C.ConnectedAt);
  C.Sock.close();
  log("worker %s disconnected", Workers[C.Telemetry].Peer.c_str());
}

void LeaseFront::sendError(size_t Slot, const std::string &Reason) {
  WireBuffer B;
  B.appendString(Reason);
  sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Error), B);
  dropConn(Slot);
}

void LeaseFront::expireLeases() {
  for (const auto &[Id, Slot] : Sched.expire()) {
    ++Requeues;
    ++Workers[Host.peer(Slot).Telemetry].Requeued;
    log("lease on unit %llu expired, requeued",
        static_cast<unsigned long long>(Id));
  }
}

void LeaseFront::onAccept(size_t Slot) {
  PeerSession &C = Host.peer(Slot);
  C.Telemetry = Workers.size();
  WorkerTelemetry T;
  T.Peer = C.Sock.peerName();
  Workers.push_back(T);
  Sched.addPeer(Slot);
}

void LeaseFront::handleHello(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Magic = C.readU32();
  uint16_t Version = C.readU16();
  uint32_t Jobs = C.readU32();
  if (!C.ok() || Magic != WireMagic) {
    sendError(Slot, "bad magic");
    return;
  }
  if (Version != WireVersion) {
    sendError(Slot, strFormat("protocol version mismatch: %s %u, worker %u",
                              Role, unsigned(WireVersion),
                              unsigned(Version)));
    return;
  }
  PeerSession &Peer = Host.peer(Slot);
  Peer.Handshook = true;
  Workers[Peer.Telemetry].Jobs = Jobs;
  WireBuffer B;
  Units.appendHelloAck(B);
  if (!sendFrame(Peer.Sock, uint8_t(Msg::HelloAck), B)) {
    dropConn(Slot);
    return;
  }
  log("worker %s joined (jobs=%u)", Workers[Peer.Telemetry].Peer.c_str(),
      Jobs);
}

void LeaseFront::handleGetWork(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Max = C.readU32();
  if (!C.ok()) {
    sendError(Slot, "malformed GetWork");
    return;
  }
  Max = std::min(Max, MaxPerRequest);
  Units.topUp(Max);
  PeerSession &Peer = Host.peer(Slot);
  if (Units.finished()) {
    WireBuffer B;
    B.appendU64(Units.finalCount());
    if (sendFrame(Peer.Sock, uint8_t(Msg::Done), B))
      Peer.DoneSent = true;
    else
      dropConn(Slot);
    return;
  }
  std::vector<uint64_t> Batch = Sched.lease(Slot, Max);
  if (Batch.empty()) {
    // Everything is leased out (or the corpus is smaller than the
    // worker count): the worker naps and asks again.
    WireBuffer B;
    B.appendU32(WaitRetryMs);
    if (!sendFrame(Peer.Sock, uint8_t(Msg::Wait), B))
      dropConn(Slot);
    return;
  }
  WireBuffer B;
  B.appendU32(uint32_t(Batch.size()));
  for (uint64_t Id : Batch)
    Units.appendUnit(B, Id);
  Workers[Peer.Telemetry].UnitsLeased += Batch.size();
  if (!sendFrame(Peer.Sock, uint8_t(Msg::Work), B))
    dropConn(Slot); // The just-taken leases requeue right here.
}

void LeaseFront::handleResult(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint64_t Id = C.readU64();
  if (!C.ok()) {
    sendError(Slot, "malformed Result");
    return;
  }
  if (!Sched.everLeased(Slot, Id)) {
    // This connection never held the unit: reject before decoding.
    // Accepting would let a peer fabricate merge results and force
    // decodes (which intern outcome keys process-wide) at will.
    sendError(Slot, "result for a unit not leased here");
    return;
  }
  if (Sched.completed(Id)) {
    // Duplicate (the unit was requeued and someone else won): drop it
    // before decoding, for the same interning reason as above.
    Sched.releaseLease(Slot, Id);
    ++DuplicateResults;
    return;
  }
  // Decoding also validates what the relay forwards verbatim: a malformed
  // result shipped upstream would get the *relay* erred out, taking
  // every worker behind it.
  TelechatResult R;
  if (!decodeTelechatResult(C, R)) {
    // Keep the lease entries intact: sendError's dropConn requeues the
    // unit immediately instead of waiting out the lease timeout.
    sendError(Slot, "malformed Result");
    return;
  }
  // The result may come from a worker whose lease was already reassigned
  // (a slow worker beaten by the timeout): still accept it -- execution
  // is deterministic, so whichever copy lands first is *the* result.
  if (!Results.accept(Id, std::move(R), F.Payload))
    return;
  // A delivered result also restarts the lease clock on the worker's
  // remaining units (proof of life) and feeds its adaptive batch cap.
  Sched.resultDelivered(Slot, Id);
  Sched.markCompleted(Id);
  ++Workers[Host.peer(Slot).Telemetry].UnitsCompleted;
}

bool LeaseFront::onFrame(size_t Slot, const Frame &F) {
  PeerSession &C = Host.peer(Slot);
  if (!C.Handshook) {
    if (F.Type != uint8_t(Msg::Hello)) {
      sendError(Slot, "expected Hello");
      return false;
    }
    handleHello(Slot, F);
    return C.Sock.valid();
  }
  switch (Msg(F.Type)) {
  case Msg::GetWork:
    handleGetWork(Slot, F);
    return C.Sock.valid();
  case Msg::Result:
    handleResult(Slot, F);
    return C.Sock.valid();
  case Msg::Error: {
    WireCursor Cur(F.Payload);
    log("worker error: %s", Cur.readString().c_str());
    dropConn(Slot);
    return false;
  }
  default:
    sendError(Slot, strFormat("unexpected message type %u",
                              unsigned(F.Type)));
    return false;
  }
}

void LeaseFront::collectAuxFds(std::vector<pollfd> &Fds) {
  Units.collectFds(Fds);
  Status.collectFds(Fds);
}

void LeaseFront::onAuxReady(const pollfd &PF) {
  if (!Status.onReady(PF, [this] { return statusJson(); }))
    Units.onReady(PF);
}

std::string LeaseFront::statusJson() {
  ServiceStatus S;
  S.Role = Role;
  Units.fillStatus(S);
  S.Pending = Sched.pendingCount();
  S.Leased = Sched.leasedCount();
  S.Requeues = Requeues;
  S.DuplicateResults = DuplicateResults;
  S.PollWakeups = PollWakeups;
  S.Sizing = Sched.sizing();
  S.Seconds = secondsSince(StartedAt);
  const std::vector<PeerSession> &Peers = Host.peers();
  for (size_t Slot = 0; Slot != Peers.size(); ++Slot) {
    const WorkerTelemetry &W = Workers[Peers[Slot].Telemetry];
    ServiceStatus::WorkerRow Row;
    Row.Peer = W.Peer;
    Row.Jobs = W.Jobs;
    Row.UnitsLeased = W.UnitsLeased;
    Row.UnitsCompleted = W.UnitsCompleted;
    Row.Requeued = W.Requeued;
    Row.Outstanding = Sched.outstanding(Slot);
    Row.ConnectedSeconds = Peers[Slot].Sock.valid()
                               ? secondsSince(Peers[Slot].ConnectedAt)
                               : W.ConnectedSeconds;
    S.Workers.push_back(std::move(Row));
  }
  return serviceStatusJson(S);
}

void LeaseFront::run() {
  StartedAt = Clock::now();
  while (!Stopped && !Units.finished()) {
    expireLeases();
    // Sleep until the earliest lease deadline (or the idle bound):
    // expiry-driven requeue fires when it is due, not at the next fixed
    // tick, and an idle front costs ~2 wakeups/s instead of 20.
    int TimeoutMs = Units.upkeep(Sched.pollTimeoutMs(IdlePollMs));
    if (Stopped || Units.finished())
      break;
    ++PollWakeups;
    Host.cycle(*this, TimeoutMs);
  }

  // Campaign over (or stopped): tell everyone still connected, then hang
  // up.
  WireBuffer DoneB;
  DoneB.appendU64(Units.finalCount());
  for (PeerSession &C : Host.peers()) {
    if (!C.Sock.valid())
      continue;
    if (Units.finished() && !C.DoneSent)
      sendFrame(C.Sock, uint8_t(Msg::Done), DoneB);
    Workers[C.Telemetry].ConnectedSeconds = secondsSince(C.ConnectedAt);
    C.Sock.close();
  }
  Host.closeAll();
  Status.close();
  Seconds = secondsSince(StartedAt);
}
