//===--- Workloads.h - The campaign benchmark's workloads -------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop campaign workloads (see README.md beside this
/// file for why each exists):
///
///  - realworld-x4: the realworld kernel suite crossed with four compiler
///    profiles, full Fig. 5 pipeline, 4 lanes.
///  - diy-stream: seeded streamed diy generation under llvm-O2-AArch64,
///    full pipeline, 4 lanes.
///  - served-sim: a loopback WorkServer (dedupe on, journal on) streams
///    seeded generation as SimulateOnly rc11 units to one in-process
///    worker with 2 lanes.
///
/// Every workload runs from outside the library, through its public
/// entry points only, in a process of its own.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set during static initialisation of the benchmark binary: set-up time
/// is measured from here.
extern const Clock::time_point ProcessEntry;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the timed phase; passes run until it has elapsed.
  double Seconds = 10.0;
  /// Per-layer run: spans on, per-layer metrics instead of end-to-end.
  bool Trace = false;
  /// Set up, hand one unit to a lane, report setup_s and exit.
  bool SetupOnly = false;
  /// Tiny corpora, for the benchmark's own smoke test.
  bool Smoke = false;
  /// Scratch directory for journals and the Chrome trace.
  std::string OutDir = ".";
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

struct RunReport {
  std::vector<Metric> Metrics;
  /// Printed beside the metrics, never reported as metrics.
  std::vector<std::pair<std::string, std::string>> Diagnostics;
  /// Check name -> units it examined.
  std::map<std::string, uint64_t> ChecksRun;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first failures, each naming its unit.
  std::vector<std::string> Failures;
  /// Chrome trace written by a traced run (empty otherwise).
  std::string TracePath;
};

std::vector<std::string> workloadNames();

/// Runs one workload. Unknown workload names and set-up failures are
/// reported as failures, never as metrics.
RunReport runWorkload(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
