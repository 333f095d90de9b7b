//===--- Worker.h - Distributed campaign worker -----------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker half of the distributed campaign engine: connects to a
/// work server, pulls unit batches, executes them through the same
/// unit-queue executor the local batch drivers use (runCampaignUnits on
/// a persistent thread pool, so one worker process saturates all its
/// cores), and streams results back as they finish. Workers hold no
/// campaign state: killing one at any instant loses nothing but the
/// leases the server will re-issue.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_WORKER_H
#define TELECHAT_DIST_WORKER_H

#include "core/Campaign.h"
#include "dist/Wire.h"
#include "support/Error.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace telechat {

/// Worker knobs.
struct WorkerOptions {
  /// Executor pool width (0 = one per hardware thread).
  unsigned Jobs = 0;
  /// Units requested per batch; 0 = 2x the pool width (enough to keep
  /// every lane busy while the next request is in flight).
  unsigned BatchSize = 0;
  /// Keep re-trying the initial connect for this long (the server of a
  /// two-terminal session may not be listening yet).
  double ConnectRetrySeconds = 10.0;
  /// Fault-injection hook for tests and drills: after this many results
  /// have been *sent*, the worker drops the connection on the floor and
  /// returns, abandoning every lease it still holds. 0 = never.
  uint64_t KillAfterResults = 0;
  /// Progress lines on stderr.
  bool Verbose = false;
};

/// What one worker session did.
struct WorkerRunStats {
  uint64_t UnitsCompleted = 0; ///< Results delivered to the server.
  uint64_t Batches = 0;        ///< Work frames processed.
  /// True when the server said Done; false when the session ended by
  /// disconnect (server gone, or the KillAfterResults hook fired). A
  /// disconnect is not an error for the campaign -- the server re-issues
  /// whatever this worker still held.
  bool CleanDone = false;
  /// True iff the KillAfterResults hook terminated the session.
  bool Killed = false;
};

/// The upstream end of a handshaken session, as its worker sees it.
struct WorkerLink {
  TcpSocket Sock;
  uint64_t Planned = 0; ///< HelloAck's planned campaign size.
  std::vector<CampaignConfig> Configs;
  /// The HelloAck payload verbatim: a relay replays it to its own
  /// workers, so the config table crosses every tier unchanged.
  std::vector<uint8_t> AckPayload;
};

/// Connects to \p Host:\p Port (retrying for \p RetrySeconds), sends
/// Hello announcing \p Jobs, and validates the HelloAck: version,
/// planned count and config table. Shared by workers and relays (a relay
/// is its upstream's worker).
ErrorOr<WorkerLink> openWorkerLink(const std::string &Host, uint16_t Port,
                                   double RetrySeconds, uint32_t Jobs);

/// The nap a Wait frame asks for; 50 ms when it names none.
std::chrono::milliseconds waitDelay(const Frame &Wait);

/// Runs one worker session against \p Host:\p Port until the server
/// finishes the campaign (or the connection ends). Errors are handshake
/// and protocol failures; disconnects after a completed handshake are
/// reported through WorkerRunStats::CleanDone instead.
ErrorOr<WorkerRunStats> runCampaignWorker(const std::string &Host,
                                          uint16_t Port,
                                          const WorkerOptions &Options = {});

/// Splits "host:port" (the --work CLI argument; the last colon wins so
/// bracketless IPv6 still parses). False when no colon or the port is
/// not a number in [1, 65535].
bool splitHostPort(const std::string &HostPort, std::string &Host,
                   uint16_t &Port);

/// The tools' whole `--work` mode, shared so telechat and litmus-sim
/// accept the same flags and cannot drift: argv[2] = host:port,
/// then [-j|--jobs N] [--batch N] [--max-units N] [--verbose]. Prints
/// the session summary; returns the process exit code. \p Usage is
/// called on argument errors.
int workerToolMain(int argc, char **argv, void (*Usage)());

} // namespace telechat

#endif // TELECHAT_DIST_WORKER_H
