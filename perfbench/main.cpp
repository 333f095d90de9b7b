//===--- main.cpp - The campaign benchmark's entry point ------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// campaign_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//                [--setup-only] [--smoke] [--out-dir D]
//
// Runs one workload in this process and prints, one per line, every
// metric ("metric <name> <value> <unit>"), the run's diagnostics
// ("diag ..."), every check that ran ("check <name> <items checked>")
// and each failure naming its unit ("FAIL ..."); the last line is the
// JSON result.
// Exits 1 when any check failed. perfbench/run.py builds and runs it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

const Clock::time_point perfbench::ProcessEntry = Clock::now();

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--setup-only] [--smoke] [--out-dir D]\n"
               "workloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (A == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (!V)
      usage();
    ++I;
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!(O.Seconds > 0))
        usage();
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      usage();
    }
    if (End && *End)
      usage();
  }
  if (O.Workload.empty())
    usage();

  std::printf("campaign_bench workload=%s seed=%llu seconds=%g trace=%d%s%s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, int(O.Trace), O.SetupOnly ? " setup-only" : "",
              O.Smoke ? " smoke" : "");
  RunReport R = runWorkload(O);

  for (const Metric &M : R.Metrics)
    std::printf("metric %s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[K, V] : R.Diagnostics)
    std::printf("diag %s %s\n", K.c_str(), V.c_str());
  std::printf("diag failed_share %.6g\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0);
  for (const auto &[Name, N] : R.ChecksRun)
    std::printf("check %s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(N));
  for (const std::string &F : R.Failures)
    std::printf("FAIL %s\n", F.c_str());
  if (!R.TracePath.empty())
    std::printf("trace %s\n", R.TracePath.c_str());

  bool Correct = R.Failed == 0 && R.Failures.empty();
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    Json += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
            jsonNumber(R.Metrics[I].Value) + ", \"unit\": \"" +
            R.Metrics[I].Unit + "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
