// Farm scaling bench: triages the full Table IV corpus (90 non-injecting
// malware samples + 14 benign applications) through the farm, first with
// cold per-job boots (snapshot off — the pre-snapshot baseline), then with
// snapshot/COW cloning at worker counts 1 -> hardware_concurrency.
//
// Shapes to check:
//  * snapshot cloning beats the cold baseline by > 2x jobs/s at equal
//    worker count (in practice it is >10x: the cold farm spends nearly all
//    of its time zeroing and re-booting 64 MiB guests);
//  * the verdict JSONL is byte-identical at every sweep point AND against
//    the cold baseline — cloning is purely a throughput lever.
//
// With FAROS_BENCH_JSON=<path> each sweep point also lands as a JSONL
// record, so the before/after trajectory is machine-readable.
#include <algorithm>
#include <thread>
#include <vector>

#include "attacks/corpus.h"
#include "bench_util.h"
#include "farm/farm.h"
#include "farm/results.h"

using namespace faros;

namespace {

std::vector<farm::JobSpec> corpus_jobs() {
  std::vector<farm::JobSpec> jobs;
  for (auto& e : attacks::behavior_corpus()) {
    farm::JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

struct Sweep {
  farm::FarmMetrics metrics;
  std::string verdicts;
  bool failed = false;
};

Sweep run_point(u32 workers, bool snapshot) {
  Sweep out;
  farm::FarmConfig cfg;
  cfg.workers = workers;
  cfg.snapshot = snapshot;
  farm::Farm f(cfg);
  farm::TriageReport rep = f.run(corpus_jobs());
  out.metrics = rep.metrics;
  out.verdicts = farm::results_jsonl(rep);
  out.failed = rep.metrics.errors || rep.metrics.timeouts ||
               rep.metrics.cancelled;
  if (out.failed) {
    std::fprintf(stderr,
                 "FATAL: %u errors, %u timeouts, %u cancelled at %u workers "
                 "(snapshot %s)\n",
                 rep.metrics.errors, rep.metrics.timeouts,
                 rep.metrics.cancelled, workers, snapshot ? "on" : "off");
  }
  return out;
}

void print_row(const char* label, u32 w, const farm::FarmMetrics& m) {
  std::printf("%-10s %6u %10.2f %10.1f %13.1fM %10.1f %10.1f %9u\n", label, w,
              m.wall_s, m.jobs_per_s, m.insns_per_s / 1e6, m.p50_ms, m.p95_ms,
              m.flagged);
}

void emit_record(const char* mode, u32 w, const farm::FarmMetrics& m,
                 double cold_jps) {
  JsonWriter rec;
  rec.field("mode", mode)
      .field("workers", w)
      .field("jobs", m.jobs)
      .field("wall_s", m.wall_s)
      .field("jobs_per_s", m.jobs_per_s)
      .field("insns_per_s", m.insns_per_s)
      .field("p50_ms", m.p50_ms)
      .field("p95_ms", m.p95_ms)
      .field("flagged", m.flagged)
      .field("speedup_vs_cold", cold_jps ? m.jobs_per_s / cold_jps : 1.0);
  bench::json_record("farm_throughput", rec);
}

}  // namespace

int main() {
  bench::heading("Farm throughput — Table IV corpus, cold boot vs snapshot/COW");

  u32 hw = std::max(1u, std::thread::hardware_concurrency());
  // Sweep powers of two up to hardware_concurrency, but always include
  // 1/2/4 so the cross-worker determinism check is meaningful even on
  // small hosts (oversubscribed pools must still agree byte-for-byte).
  u32 top = std::max(hw, 4u);
  std::vector<u32> sweep;
  for (u32 w = 1; w < top; w *= 2) sweep.push_back(w);
  sweep.push_back(top);

  std::printf("hardware_concurrency: %u | corpus: %zu jobs\n\n", hw,
              corpus_jobs().size());
  std::printf("%-10s %6s %10s %10s %14s %10s %10s %9s\n", "mode", "workers",
              "wall (s)", "jobs/s", "insns/s", "p50 (ms)", "p95 (ms)",
              "flagged");

  // Before: the pre-snapshot farm — every job cold-boots (and zeroes) its
  // own 64 MiB guest.
  Sweep cold = run_point(1, /*snapshot=*/false);
  if (cold.failed) return 1;
  print_row("cold", 1, cold.metrics);
  const double cold_jps = cold.metrics.jobs_per_s;
  emit_record("cold", 1, cold.metrics, cold_jps);

  // After: boot once, clone per job.
  bool deterministic = true;
  double snap_w1_jps = 0;
  for (u32 w : sweep) {
    Sweep s = run_point(w, /*snapshot=*/true);
    if (s.failed) return 1;
    print_row("snapshot", w, s.metrics);
    if (w == 1) snap_w1_jps = s.metrics.jobs_per_s;
    if (s.verdicts != cold.verdicts) deterministic = false;
    emit_record("snapshot", w, s.metrics, cold_jps);
  }

  std::printf("\nverdicts (every sweep point vs cold baseline): %s\n",
              deterministic ? "byte-identical JSONL" : "DIVERGED");
  if (!deterministic) {
    std::printf("result: REPRODUCTION FAILURE\n");
    return 1;
  }

  const double speedup = cold_jps ? snap_w1_jps / cold_jps : 0;
  std::printf("snapshot speedup vs cold boot (1 worker): %.1fx (target > 2x)\n",
              speedup);
  bool ok = speedup > 2.0;
  std::printf("result: %s\n",
              ok ? "SNAPSHOT THROUGHPUT REPRODUCED" : "THROUGHPUT FAILURE");
  return ok ? 0 : 1;
}
