// Shared helpers for the experiment-reproduction benches: each binary
// regenerates one table or figure of the paper and prints it in a shape
// comparable to the original.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <time.h>

#include "attacks/scenarios.h"
#include "common/json.h"

namespace faros::bench {

inline void heading(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

/// Wall-clock seconds for `fn()`.
template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// CPU seconds the calling thread spends in `fn()`. Unlike wall time it
/// does not count the time the thread waits while other work on a shared
/// host holds the core.
template <typename Fn>
double thread_cpu_s(Fn&& fn) {
  auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  double t0 = now();
  fn();
  return now() - t0;
}

/// Analyze a scenario and abort loudly on harness errors (a bench must not
/// silently report a half-run experiment).
inline attacks::AnalyzedRun must_analyze(attacks::Scenario& sc,
                                         const core::Options& opts = {}) {
  auto run = attacks::analyze(sc, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: scenario '%s' failed: %s\n",
                 sc.name().c_str(), run.error().message.c_str());
    std::exit(1);
  }
  return std::move(run).take();
}

/// Machine-readable bench output: when FAROS_BENCH_JSON=<path> is set,
/// every json_record() call appends one JSONL line to <path> (the human
/// console output is unaffected). `fields` should already contain the
/// metric fields; the bench name is prepended so one file can aggregate a
/// whole bench sweep across binaries:
///   {"bench":"table5_performance","app":"browser","overhead":12.3}
inline void json_record(const std::string& bench_name,
                        const JsonWriter& fields) {
  static FILE* file = [] {
    const char* path = std::getenv("FAROS_BENCH_JSON");
    return path && *path ? std::fopen(path, "a") : nullptr;
  }();
  if (!file) return;
  JsonWriter line;
  line.field("bench", bench_name);
  std::string body = fields.str();  // "{...}" — splice past the brace
  std::string head = line.str();
  head.pop_back();
  if (body.size() > 2) head += "," + body.substr(1);
  else head += "}";
  std::fprintf(file, "%s\n", head.c_str());
  std::fflush(file);
}

}  // namespace faros::bench
