//===--- Trace.h - Spans for the traced benchmark run -----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around the library's public calls.
/// Each span has a name, start, end, parent, unit id and thread. Spans
/// stay in per-thread memory while the run is going and are written once,
/// at exit, as Chrome trace-event JSON (one lane per thread). A span's
/// self time is its duration minus the durations of its child spans.
///
/// Recording is off unless enableTracing(true) was called: the untraced
/// runs that give the end-to-end numbers never construct a span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "sim/Enumerator.h"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

constexpr uint64_t NoUnit = ~0ull;

/// The SimStats counts a sim span carries into the trace.
struct SpanCounts {
  uint64_t PathCombos = 0;
  uint64_t RfCandidates = 0;
  uint64_t ValueConsistent = 0;
  uint64_t CoCandidates = 0;
  uint64_t AllowedExecutions = 0;
  uint64_t RfPruned = 0;
  uint64_t CatEvalsAvoided = 0;

  SpanCounts &operator+=(const SpanCounts &O);
};

void enableTracing(bool On);

/// Records one span from construction to destruction on the calling
/// thread. Spans nest: the innermost open span on the thread is the
/// parent. Names must be string literals (stored by pointer).
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Unit = NoUnit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches SimStats counts to this span (sim spans only).
  void attach(const telechat::SimStats &S);

private:
  int32_t Index = -1; ///< In the thread's buffer; -1 when tracing is off.
};

/// Totals over every span of one name.
struct SpanTotals {
  double SelfUs = 0.0;
  double TotalUs = 0.0;
  SpanCounts Counts;
};

/// Aggregates every recorded span by name. Call after all recording
/// threads have finished their spans (pool drained).
std::map<std::string, SpanTotals> spanTotals();

/// Writes every recorded span as Chrome trace-event JSON. False when the
/// file cannot be written.
bool writeChromeTrace(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
