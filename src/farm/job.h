// Job model for the corpus-triage farm: a JobSpec names one scenario run
// (via a factory, so retries and sharded workers each get a fresh
// deterministic instance) and a JobResult captures everything the results
// layer needs — verdict, findings, counters, and the failure taxonomy
// (ok / error / timeout / cancelled).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/scenarios.h"
#include "common/types.h"
#include "obs/obs.h"

namespace faros::farm {

using ScenarioFactory = std::function<std::unique_ptr<attacks::Scenario>()>;

struct JobSpec {
  u32 id = 0;            // assigned by the farm; the stable ordering key
  std::string name;      // unique within one submission
  std::string category;  // corpus category ("injection", "jit", ...)
  ScenarioFactory make;
  bool expect_flagged = false;  // ground truth, for TP/FP/TN/FN scoring

  u64 budget_override = 0;  // 0 = use Scenario::budget()
  u64 timeout_ms = 0;       // 0 = farm default

  /// Testing hook: run attempts numbered below this fail deterministically
  /// before any work ("injected failure"), so the retry path can be
  /// exercised identically on every worker. 0 (the default) injects
  /// nothing; 1 makes the first attempt fail and the first retry succeed.
  u32 inject_failures = 0;
};

/// What terminated the job. `kOk` covers both clean and flagged runs —
/// detection verdicts live in JobResult::flagged, not the status.
enum class JobStatus {
  kOk,         // the run (+ re-analysis) completed within budget/deadline
  kError,      // harness error (boot/setup failure), after retries
  kTimeout,    // wall-clock deadline hit; partial run discarded
  kCancelled,  // farm shut down before/while the job ran
};

const char* job_status_name(JobStatus s);

struct JobResult {
  // --- identity (copied from the spec) ---
  u32 id = 0;
  std::string name;
  std::string category;
  bool expect_flagged = false;

  // --- verdict (deterministic given the spec) ---
  JobStatus status = JobStatus::kCancelled;
  bool flagged = false;
  std::vector<std::string> policies;  // sorted unique policy names that fired
  u32 findings = 0;                   // all findings, incl. whitelisted
  u32 suppressed = 0;                 // whitelisted findings
  // Both report the one analyzed run's count; the JSONL schema keeps
  // both fields.
  u64 record_instructions = 0;
  u64 replay_instructions = 0;
  bool all_exited = false;       // every guest process terminated
  bool budget_exhausted = false; // hit the instruction budget still running
  size_t prov_lists = 0;
  u64 tainted_bytes = 0;
  u32 retries = 0;               // transient-error retries consumed
  std::string error;             // message for kError

  /// Re-analysis (FarmConfig::extra_policies): one extra verdict per
  /// additional policy set, each from a replay of the job's recording —
  /// equal to a separate live run with that set as the primary ruleset,
  /// which the fan-out test pins. Order follows
  /// FarmConfig::extra_policies.
  struct PolicyRun {
    std::string name;
    bool flagged = false;
    u32 findings = 0;
    u32 suppressed = 0;
    std::vector<std::string> policies;  // sorted unique rule ids that fired
  };
  std::vector<PolicyRun> policy_runs;

  /// Per-rule evaluation/hit counts from the job engine's RuleEngine,
  /// in engine rule order (deterministic given the spec + ruleset, and
  /// identical whether the rules came from the built-ins or a policy file
  /// — the property the CI byte-diff pins).
  struct RuleCount {
    std::string id;
    u64 evals = 0;
    u64 hits = 0;
  };
  std::vector<RuleCount> rules;

  // --- static prefilter (FarmConfig::static_prefilter; deterministic) ---
  // Filled by the zero-execution sa::analyze pass over the job's extracted
  // images. The static verdict is an analyst oracle next to the dynamic
  // one: it never gates or alters the dynamic run.
  bool sa_analyzed = false;
  bool sa_flagged = false;      // risk >= sa::kStaticRiskThreshold
  u32 sa_images = 0;            // SX32 images extracted and analyzed
  u32 sa_blocks = 0;            // basic blocks recovered
  u32 sa_findings = 0;          // lint findings across all images
  u32 sa_risk = 0;              // summed severity weights
  std::vector<std::string> sa_rules;  // sorted unique rule names that fired
  std::string sa_error;         // extraction failure (job still runs)

  // --- provenance graph export (FarmConfig::graph_out; deterministic) ---
  // Stamped when the farm wrote this job's .fpg graph artifact. The graph
  // is a pure function of the spec, so nodes/edges/bytes are too — they
  // ride in the deterministic JSONL next to prov_lists/tainted_bytes.
  bool graph_built = false;
  u32 graph_nodes = 0;
  u32 graph_edges = 0;
  u64 graph_bytes = 0;  // serialized .fpg size

  // --- observability (counters deterministic; timers wall-clock) ---
  // Engine counter snapshot for the analyzed run (collected=false when the
  // engine ran without metrics or the job never finished the run).
  // Counters are a pure function of the spec; timer_ns is not and stays
  // out of the deterministic JSONL, like wall_ms.
  obs::MetricSnapshot metrics;

  // --- timing (wall-clock; excluded from deterministic serialisation) ---
  double wall_ms = 0;

  /// "TP"/"FP"/"TN"/"FN" for completed jobs, "-" otherwise.
  const char* verdict() const {
    if (status != JobStatus::kOk) return "-";
    if (flagged) return expect_flagged ? "TP" : "FP";
    return expect_flagged ? "FN" : "TN";
  }

  /// Static-prefilter verdict against the same ground truth ("-" when the
  /// prefilter did not run). Independent of the dynamic status: the static
  /// pass needs no execution, so even a timed-out job has one.
  const char* static_verdict() const {
    if (!sa_analyzed) return "-";
    if (sa_flagged) return expect_flagged ? "TP" : "FP";
    return expect_flagged ? "FN" : "TN";
  }
};

inline const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kError: return "error";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

}  // namespace faros::farm
