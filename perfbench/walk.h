// The traced run's per-job walk: the same steps a farm job takes, made
// one public call at a time so each layer gets its own span. The walk
// replays under the inline core::FarosEngine, runs each extra policy set
// as its own replay, and always builds, serializes and slices the
// provenance graph, so the graph layer is measured on every workload.
#pragma once

#include <string>
#include <vector>

#include "catalogue.h"
#include "obs/obs.h"
#include "trace.h"

namespace perfbench {

/// One policy set's verdict on one job.
struct Verdict {
  bool flagged = false;
  u32 findings = 0;
  std::vector<std::string> policies;  // sorted unique
  bool operator==(const Verdict&) const = default;
};

/// Primary verdict first, then one per extra policy set.
std::vector<Verdict> verdicts_of(const faros::farm::JobResult& r);

struct WalkContext {
  const Workload* workload = nullptr;
  /// Machine config whose kernel clones the benchmark's own snapshot.
  faros::os::MachineConfig machine;
  /// The farm's default engine options with the workload's primary rules.
  faros::core::Options engine;
};

struct WalkResult {
  std::string error;  // empty on success
  std::vector<Verdict> verdicts;
  u64 record_insns = 0;
  u64 replay_insns = 0;  // primary replay
  /// The primary engine's obs counters (the inline engine, whatever path
  /// the farm's default takes).
  faros::obs::MetricSnapshot engine_metrics;
  u64 graph_bytes = 0;
  u32 findings_sliced = 0;
  u32 slices_without_source = 0;
};

WalkResult walk_job(const WalkContext& ctx, const faros::farm::JobSpec& spec,
                    Tracer& t, u64 parent, u32 job, u32 thread);

}  // namespace perfbench
