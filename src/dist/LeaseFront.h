//===--- LeaseFront.h - Downstream protocol of the campaign service -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The downstream side of the campaign service, implemented once: to the
/// workers it leases to, a work server and a relay are the same peer.
/// LeaseFront is the service's one SessionHost::Handler. It owns the
/// listener and its connections, the /status endpoint, the lease
/// scheduler and the per-connection telemetry, and it speaks the whole
/// worker conversation of Protocol.h: Hello -> HelloAck, GetWork ->
/// Work | Wait | Done, Result, Error.
///
/// The two roles differ only in where units come from and where results
/// go, and those are the two interfaces a role plugs in:
///
///  - a Supply: the HelloAck bytes, a top-up before each lease, a leased
///    unit's bytes, whether the campaign is over and its final count,
///    and any extra fd the loop must poll (the relay's upstream link);
///  - a Sink: where an accepted result goes (the server journals and
///    merges it; the relay forwards the payload verbatim upstream).
///
/// The fault rules live here and nowhere else: a dropped or expired lease
/// requeues at the queue front in id order, the first result for a unit
/// wins, and a result from a connection that never leased its unit is
/// refused before it is decoded.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_LEASEFRONT_H
#define TELECHAT_DIST_LEASEFRONT_H

#include "core/Telechat.h"
#include "dist/LeaseScheduler.h"
#include "dist/Session.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace telechat {

struct ServiceStatus;

/// Per-connection telemetry, reported in connect order. One worker
/// process = one connection; a reconnecting worker is a new entry.
struct WorkerTelemetry {
  std::string Peer;     ///< "address:port" as accepted.
  uint32_t Jobs = 0;    ///< Pool width announced in Hello.
  uint64_t UnitsLeased = 0;
  uint64_t UnitsCompleted = 0;
  /// Leases taken from this worker by disconnect or timeout.
  uint64_t Requeued = 0;
  double ConnectedSeconds = 0.0;
};

class LeaseFront final : public SessionHost::Handler {
public:
  /// Where a role's units come from.
  struct Supply {
    virtual ~Supply() = default;
    /// The HelloAck payload every worker receives.
    virtual void appendHelloAck(WireBuffer &B) = 0;
    /// Runs before each lease of up to \p Max units: queue more units on
    /// the scheduler if the role can.
    virtual void topUp(uint32_t Max) = 0;
    /// Appends the wire form of queued unit \p Id to a Work frame.
    virtual void appendUnit(WireBuffer &B, uint64_t Id) = 0;
    /// True once the campaign is over: GetWork is answered with Done.
    virtual bool finished() const = 0;
    /// The unit count Done frames carry.
    virtual uint64_t finalCount() const = 0;
    /// Once per poll cycle, after lease expiry: the role's housekeeping.
    /// Returns how long the cycle may sleep, \p TimeoutMs or less.
    virtual int upkeep(int TimeoutMs) = 0;
    /// The role's counters in the /status document: planned, generated
    /// and completed units, replays and dedupes.
    virtual void fillStatus(ServiceStatus &S) const = 0;
    /// Extra fds to poll, and readiness on one of them.
    virtual void collectFds(std::vector<pollfd> &Fds) = 0;
    virtual void onReady(const pollfd &PF) = 0;
  };

  /// Where a role's accepted results go.
  struct Sink {
    virtual ~Sink() = default;
    /// Unit \p Id's result, decoded as \p R and on the wire as
    /// \p Payload (id included). The unit was leased on the delivering
    /// connection and has no result yet. False when the result could not
    /// be taken (the relay lost its upstream): the unit stays leased.
    virtual bool accept(uint64_t Id, TelechatResult R,
                        const std::vector<uint8_t> &Payload) = 0;
  };

  /// \p Role names the front in /status and handshake refusals
  /// ("server", "relay"); \p LogTag prefixes its --verbose lines. A zero
  /// batch cap is raised to 1 (a cap of 0 would answer every GetWork
  /// with Wait forever) and a zero Wait hint to 50 ms.
  LeaseFront(const char *Role, const char *LogTag, Supply &Units,
             Sink &Results, unsigned MaxUnitsPerRequest,
             double LeaseTimeoutSeconds, unsigned WaitRetryMs, bool Verbose);

  /// Binds the worker port and, when \p StatusPort >= 0, the status
  /// endpoint (0 = ephemeral). Empty string on success.
  std::string listen(uint16_t Port, const std::string &BindAddress,
                     int StatusPort);
  uint16_t port() const { return Host.port(); }
  /// The bound status port, 0 when the endpoint is off.
  uint16_t statusPort() const { return Status.active() ? Status.port() : 0; }

  /// Serves until the supply is finished or stop() is called, then sends
  /// Done to every open connection (only when finished) and closes them.
  void run();
  /// Ends run() without Done after the current step (the relay's fatal
  /// path: its workers reconnect elsewhere).
  void stop() { Stopped = true; }

  LeaseScheduler &scheduler() { return Sched; }
  unsigned maxUnitsPerRequest() const { return MaxPerRequest; }
  /// True while some handshaken worker is connected.
  bool anyWorker() const;
  void log(const char *Fmt, ...) const __attribute__((format(printf, 2, 3)));

  // Telemetry, final once run() returns.
  uint64_t Requeues = 0;         ///< Leases re-issued (faults observed).
  uint64_t DuplicateResults = 0; ///< Late results dropped after requeue.
  uint64_t PollWakeups = 0;      ///< Poll-loop iterations of run().
  std::vector<WorkerTelemetry> Workers;
  double Seconds = 0.0; ///< Wall clock of run().

private:
  void dropConn(size_t Slot);
  void sendError(size_t Slot, const std::string &Reason);
  void expireLeases();
  void handleHello(size_t Slot, const Frame &F);
  void handleGetWork(size_t Slot, const Frame &F);
  void handleResult(size_t Slot, const Frame &F);
  std::string statusJson();

  // SessionHost::Handler.
  void onAccept(size_t Slot) override;
  bool onFrame(size_t Slot, const Frame &F) override;
  void onHangup(size_t Slot) override { dropConn(Slot); }
  void onCorrupt(size_t Slot) override {
    sendError(Slot, "corrupt frame stream");
  }
  void collectAuxFds(std::vector<pollfd> &Fds) override;
  void onAuxReady(const pollfd &PF) override;

  const char *Role;
  const char *LogTag;
  Supply &Units;
  Sink &Results;
  unsigned MaxPerRequest;
  unsigned WaitRetryMs;
  bool Verbose;
  bool Stopped = false;
  SessionHost Host;
  StatusEndpoint Status;
  LeaseScheduler Sched;
  std::chrono::steady_clock::time_point StartedAt;
};

} // namespace telechat

#endif // TELECHAT_DIST_LEASEFRONT_H
