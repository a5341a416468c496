// Workload catalogue: which corpus each workload runs, at how many
// workers, under which policy sets, and what every job must score. Also
// the seed-driven pass order and the thread-budget rule.
#pragma once

#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "farm/farm.h"

namespace perfbench {

using faros::u32;
using faros::u64;

struct Workload {
  std::string name;
  u32 workers = 1;
  /// Highest latency percentile reported as job_tail_ms; a run holds at
  /// least min_samples(tail_pct) jobs so ten samples lie beyond it.
  unsigned tail_pct = 90;
  /// One pass of the catalogue, in corpus order.
  std::vector<faros::attacks::CorpusEntry> entries;
  /// Primary ruleset; empty runs the engine's built-in policies.
  std::vector<faros::core::RuleSpec> primary_rules;
  std::vector<faros::farm::PolicySet> extra_sets;
  /// expect[entry][set]: must policy set `set` (0 = primary) flag it?
  std::vector<std::vector<bool>> expect;
  /// Export one provenance graph per job and slice back from each finding.
  bool graphs = false;

  u32 policy_sets() const { return 1 + static_cast<u32>(extra_sets.size()); }
};

const std::vector<std::string>& workload_names();

/// Builds workload `name` for a host with `nproc` hardware threads. Policy
/// files are read from `policies/` under the working directory.
faros::Result<Workload> make_workload(const std::string& name, u32 nproc);

/// Job order within pass `pass`: a permutation of [0, n) that depends only
/// on (seed, pass), identical on every platform.
std::vector<u32> pass_order(size_t n, u64 seed, u32 pass);

/// Name of the job running entry `entry` in pass `pass`: unique per pass.
std::string job_name(const Workload& w, u32 pass, u32 entry);

/// The job for entry `entry` in pass `pass`.
faros::farm::JobSpec make_job(const Workload& w, u32 pass, u32 entry);

/// Passes [first, first + passes) of the catalogue, each in pass_order.
/// `entry_of[i]` receives the catalogue entry of job i.
std::vector<faros::farm::JobSpec> build_passes(const Workload& w, u64 seed,
                                               u32 first, u32 passes,
                                               std::vector<u32>* entry_of);

/// Threads a farm run keeps busy under the default execution path: each
/// worker runs its job's interpreter plus one DIFT consumer thread per
/// policy set.
u32 thread_budget(u32 workers, u32 policy_sets);
bool thread_budget_ok(u32 workers, u32 policy_sets, u32 nproc);

/// Share of jobs whose catalogue entry already ran earlier in `entry_of`.
double repeat_frac(const std::vector<u32>& entry_of);

}  // namespace perfbench
