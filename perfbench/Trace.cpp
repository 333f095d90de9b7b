//===--- Trace.cpp - Spans for the traced benchmark run -------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  const char *Name = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t ChildNs = 0; ///< Summed durations of direct children.
  int32_t Parent = -1;
  uint64_t Unit = NoUnit;
  bool HasCounts = false;
  SpanCounts Counts;
};

/// One thread's spans. Owned by the registry, so a pool thread's spans
/// outlive the thread.
struct ThreadBuf {
  unsigned Tid = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open; ///< Stack of open span indices.
};

std::atomic<bool> Enabled{false};
const Clock::time_point Origin = Clock::now();

std::mutex RegistryM;
std::vector<std::unique_ptr<ThreadBuf>> Registry; // Guarded by RegistryM.

thread_local ThreadBuf *Mine = nullptr;

ThreadBuf &myBuf() {
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(RegistryM);
    Registry.push_back(std::make_unique<ThreadBuf>());
    Mine = Registry.back().get();
    Mine->Tid = unsigned(Registry.size());
  }
  return *Mine;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
}

} // namespace

SpanCounts &SpanCounts::operator+=(const SpanCounts &O) {
  PathCombos += O.PathCombos;
  RfCandidates += O.RfCandidates;
  ValueConsistent += O.ValueConsistent;
  CoCandidates += O.CoCandidates;
  AllowedExecutions += O.AllowedExecutions;
  RfPruned += O.RfPruned;
  CatEvalsAvoided += O.CatEvalsAvoided;
  return *this;
}

namespace {

SpanCounts countsOf(const telechat::SimStats &S) {
  SpanCounts C;
  C.PathCombos = S.PathCombos;
  C.RfCandidates = S.RfCandidates;
  C.ValueConsistent = S.ValueConsistent;
  C.CoCandidates = S.CoCandidates;
  C.AllowedExecutions = S.AllowedExecutions;
  C.RfPruned = S.RfPruned;
  C.CatEvalsAvoided = S.CatEvalsAvoided;
  return C;
}

} // namespace

void perfbench::enableTracing(bool On) { Enabled.store(On); }

ScopedSpan::ScopedSpan(const char *Name, uint64_t Unit) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  ThreadBuf &B = myBuf();
  Span S;
  S.Name = Name;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  // A child inherits its parent's unit, so every span of one unit shares
  // the unit's id.
  S.Unit = Unit != NoUnit || S.Parent < 0 ? Unit : B.Spans[S.Parent].Unit;
  Index = int32_t(B.Spans.size());
  B.Open.push_back(Index);
  S.StartNs = nowNs();
  B.Spans.push_back(S);
}

ScopedSpan::~ScopedSpan() {
  if (Index < 0)
    return;
  int64_t End = nowNs();
  ThreadBuf &B = *Mine;
  Span &S = B.Spans[Index];
  S.EndNs = End;
  B.Open.pop_back();
  if (S.Parent >= 0)
    B.Spans[S.Parent].ChildNs += End - S.StartNs;
}

void ScopedSpan::attach(const telechat::SimStats &Stats) {
  if (Index < 0)
    return;
  Span &S = Mine->Spans[Index];
  S.HasCounts = true;
  S.Counts = countsOf(Stats);
}

std::map<std::string, SpanTotals> perfbench::spanTotals() {
  std::lock_guard<std::mutex> Lock(RegistryM);
  std::map<std::string, SpanTotals> Out;
  for (const auto &B : Registry)
    for (const Span &S : B->Spans) {
      SpanTotals &T = Out[S.Name];
      T.TotalUs += double(S.EndNs - S.StartNs) / 1e3;
      T.SelfUs += double(S.EndNs - S.StartNs - S.ChildNs) / 1e3;
      if (S.HasCounts)
        T.Counts += S.Counts;
    }
  return Out;
}

bool perfbench::writeChromeTrace(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(RegistryM);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  bool First = true;
  std::string Line;
  for (const auto &B : Registry) {
    std::fprintf(F,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                 First ? "" : ",\n", B->Tid, B->Tid);
    First = false;
    for (const Span &S : B->Spans) {
      Line = ",\n{\"name\":\"";
      appendEscaped(Line, S.Name);
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"self_us\":%.3f",
                    B->Tid, double(S.StartNs) / 1e3,
                    double(S.EndNs - S.StartNs) / 1e3,
                    double(S.EndNs - S.StartNs - S.ChildNs) / 1e3);
      Line += Buf;
      if (S.Unit != NoUnit)
        Line += ",\"unit\":" + std::to_string(S.Unit);
      if (S.Parent >= 0) {
        Line += ",\"parent\":\"";
        appendEscaped(Line, B->Spans[S.Parent].Name);
        Line += '"';
      }
      if (S.HasCounts) {
        const SpanCounts &C = S.Counts;
        std::snprintf(Buf, sizeof(Buf),
                      ",\"path_combos\":%llu,\"rf_candidates\":%llu,"
                      "\"value_consistent\":%llu,\"co_candidates\":%llu,"
                      "\"allowed_executions\":%llu,\"rf_pruned\":%llu,"
                      "\"cat_evals_avoided\":%llu",
                      (unsigned long long)C.PathCombos,
                      (unsigned long long)C.RfCandidates,
                      (unsigned long long)C.ValueConsistent,
                      (unsigned long long)C.CoCandidates,
                      (unsigned long long)C.AllowedExecutions,
                      (unsigned long long)C.RfPruned,
                      (unsigned long long)C.CatEvalsAvoided);
        Line += Buf;
      }
      Line += "}}";
      std::fputs(Line.c_str(), F);
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
