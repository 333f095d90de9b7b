//===--- Relay.h - Tier coordinator of the campaign service -----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier layer of the campaign service: a relay connects *upstream*
/// to a work server (or another relay) exactly like a worker -- Hello
/// (the worker's own openWorkerLink), GetWork, Result -- and
/// *downstream* accepts workers through the server's own lease front
/// (LeaseFront.h), re-leasing the units it pulled. One coordinator can
/// front N servers' worth of workers; a server sees one well-behaved
/// worker per relay instead of a thousand sockets.
///
/// The relay never interprets results: unit bodies and result payloads
/// are forwarded byte-verbatim (after bounds-checked validation), so a
/// relayed campaign's merged JSON is byte-identical to a flat one -- the
/// invariant the 1xNxM bench sweep and the CI relay drill pin with cmp.
///
/// Fault model, downstream: the server's, by construction (the same
/// LeaseFront) -- a dead worker's units re-lease to its siblings behind
/// the same relay. Fault model, upstream: the relay IS a worker, so a
/// dead relay's whole allotment requeues at the server and flows to the
/// surviving relays; the relay itself treats an upstream disconnect
/// before Done as fatal (its workers reconnect elsewhere).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_RELAY_H
#define TELECHAT_DIST_RELAY_H

#include "dist/LeaseScheduler.h"

#include <cstdint>
#include <string>

namespace telechat {

struct RelayOptions {
  /// Downstream listen port; 0 asks the kernel (see Relay::port()).
  uint16_t ListenPort = 0;
  std::string BindAddress = "127.0.0.1";
  std::string UpstreamHost = "127.0.0.1";
  uint16_t UpstreamPort = 0;
  /// Cap on units per downstream Work frame AND the size of each
  /// upstream GetWork (the relay refills when its queue drops below
  /// this).
  unsigned MaxUnitsPerRequest = 64;
  /// Downstream lease re-issue deadline, like the server's.
  double LeaseTimeoutSeconds = 120.0;
  /// Retry hint on downstream Wait frames.
  unsigned WaitRetryMs = 50;
  /// HTTP status endpoint, same semantics as the server's: -1 off, 0
  /// ephemeral, else the port.
  int StatusPort = -1;
  /// How long start() retries the upstream connect (the relay usually
  /// races the server's bind in deployment scripts).
  double ConnectRetrySeconds = 10.0;
  bool Verbose = false;
};

/// What one relayed campaign did (telemetry only; results live at the
/// root server).
struct RelayReport {
  uint64_t UnitsRelayed = 0;      ///< Units pulled from upstream.
  uint64_t ResultsForwarded = 0;  ///< Results shipped upstream.
  uint64_t Requeues = 0;          ///< Downstream leases re-issued.
  uint64_t DuplicateResults = 0;  ///< Late downstream results dropped.
  uint64_t PollWakeups = 0;
  LeaseSizing Sizing;             ///< Downstream lease-size trajectory.
  size_t Workers = 0;             ///< Downstream connections accepted.
  double Seconds = 0.0;
  /// Nonempty when the relay died rather than finished: upstream
  /// handshake refused, upstream disconnected before Done, or a frame
  /// stream went corrupt.
  std::string Error;
};

class Relay {
public:
  explicit Relay(RelayOptions Options);
  ~Relay();
  Relay(const Relay &) = delete;
  Relay &operator=(const Relay &) = delete;

  /// Connects upstream (with retry), handshakes, and binds the
  /// downstream listener (and status endpoint). Empty string on success.
  std::string start();

  /// The downstream port; valid after a successful start().
  uint16_t port() const;

  /// The bound status port, 0 when the endpoint is off.
  uint16_t statusPort() const;

  /// Relays until the upstream campaign completes (Done) or a fatal
  /// fault (RelayReport::Error).
  RelayReport run();

private:
  struct Impl;
  Impl *P;
};

/// CLI driver: `telechat --relay <listen-port> <upstream-host:port>
/// [--bind A] [--batch N] [--lease-timeout S] [--status-port P]
/// [--verbose]`. Exit 0 on a completed campaign, 1 on error.
int relayToolMain(int argc, char **argv, void (*Usage)());

} // namespace telechat

#endif // TELECHAT_DIST_RELAY_H
