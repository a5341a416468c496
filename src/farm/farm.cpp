#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "graph/graph.h"
#include "os/snapshot.h"
#include "sa/analyzer.h"
#include "vm/btcache.h"

namespace faros::farm {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-job watchdog: aborts the run on farm cancellation or when the
/// wall-clock deadline passes. Polled between scheduling rounds (~quantum
/// instructions), so a runaway guest is stopped within one round.
///
/// The *first* reason to fire is latched: the job's terminal status must be
/// decided by what actually stopped the run, not by re-reading cancel_
/// after the fact (a deadline abort racing a request_cancel() would
/// otherwise misreport kTimeout as kCancelled).
class Watchdog final : public os::RunGovernor {
 public:
  enum class Reason { kNone, kCancel, kDeadline };

  Watchdog(const std::atomic<bool>& cancel, Clock::time_point deadline,
           bool has_deadline)
      : cancel_(cancel), deadline_(deadline), has_deadline_(has_deadline) {}

  bool should_stop() override {
    if (reason_ != Reason::kNone) return true;
    if (cancel_.load(std::memory_order_relaxed)) {
      reason_ = Reason::kCancel;
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      reason_ = Reason::kDeadline;
      return true;
    }
    return false;
  }

  bool cancelled() const { return reason_ == Reason::kCancel; }

 private:
  const std::atomic<bool>& cancel_;
  Clock::time_point deadline_;
  bool has_deadline_;
  Reason reason_ = Reason::kNone;
};

/// Filesystem-safe artifact name: job names can carry '/' and other
/// separators; anything outside [A-Za-z0-9._-] becomes '_'.
std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Extra-policy verdict summary from the engine that evaluated the set.
JobResult::PolicyRun policy_run_of(const std::string& name,
                                   const core::FarosEngine& e) {
  JobResult::PolicyRun pr;
  pr.name = name;
  pr.flagged = e.flagged();
  pr.findings = static_cast<u32>(e.findings().size());
  for (const auto& f : e.findings()) {
    if (f.whitelisted) ++pr.suppressed;
    pr.policies.push_back(f.policy);
  }
  std::sort(pr.policies.begin(), pr.policies.end());
  pr.policies.erase(std::unique(pr.policies.begin(), pr.policies.end()),
                    pr.policies.end());
  return pr;
}

}  // namespace

Farm::Farm(FarmConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) {
    cfg_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
}

void Farm::request_cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  queue_.cancel();
}

Result<os::MachineConfig> Farm::machine_config() const {
  os::MachineConfig mcfg = cfg_.machine;
  if (!cfg_.snapshot) return mcfg;
  std::call_once(snap_once_, [this] {
    auto s = os::capture_snapshot(cfg_.machine.kernel);
    if (s.ok()) {
      snap_ = s.value();
    } else {
      snap_error_ = s.error().message;
    }
  });
  if (!snap_) return Err<os::MachineConfig>(snap_error_);
  mcfg.kernel.snapshot = snap_;
  return mcfg;
}

JobResult Farm::run_once(const JobSpec& spec, u32 attempt) const {
  JobResult r;
  r.id = spec.id;
  r.name = spec.name;
  r.category = spec.category;
  r.expect_flagged = spec.expect_flagged;

  auto fail = [&](std::string msg) {
    r.status = JobStatus::kError;
    r.error = std::move(msg);
    return r;
  };

  // Deterministic failure injection (tests only): attempts below the
  // threshold fail before any work, exercising the retry path identically
  // on every worker.
  if (attempt < spec.inject_failures) {
    return fail("injected failure (attempt " + std::to_string(attempt) + ")");
  }

  std::unique_ptr<attacks::Scenario> sc = spec.make ? spec.make() : nullptr;
  if (!sc) return fail("job has no scenario factory");

  auto mc = machine_config();
  if (!mc.ok()) return fail("snapshot: " + mc.error().message);
  const os::MachineConfig& mcfg = mc.value();

  u64 budget = spec.budget_override ? spec.budget_override : sc->budget();
  u64 timeout_ms = spec.timeout_ms ? spec.timeout_ms : cfg_.timeout_ms;
  Watchdog dog(cancel_,
               Clock::now() + std::chrono::milliseconds(timeout_ms),
               timeout_ms != 0);
  auto stopped = [&] {
    // The watchdog latched what fired first; a cancel arriving after a
    // deadline abort must not relabel the timeout.
    r.status = dog.cancelled() ? JobStatus::kCancelled : JobStatus::kTimeout;
    return r;
  };

  // Phase timers live in a run_once-local sink (the static phase runs
  // before the engine exists); null when metrics are off so no clock is
  // read.
  obs::MetricSink timers;
  obs::MetricSink* tsink =
      cfg_.engine_opts.collect_metrics ? &timers : nullptr;

  // --- static analysis (zero-execution; never gates the dynamic run) ---
  // One analyzer pass serves three consumers: the prefilter stamps the
  // result fields, summary elision collects the per-image elide hints
  // into this job's engine options, and static pruning intersects the
  // per-image trigger masks. Extraction failure only surfaces as
  // sa_error under the prefilter — with elision/pruning alone the job
  // silently runs unhinted and unmasked, keeping the JSONL
  // byte-identical to --no-summary-elide / no --static-prune.
  core::Options eopts = cfg_.engine_opts;
  const bool want_hints = eopts.summary_elide;
  if (cfg_.static_prefilter || want_hints || cfg_.static_prune) {
    obs::ScopedTimer t(tsink, obs::Tmr::kStatic);
    auto extracted = attacks::extract_images(*sc, mcfg);
    if (!extracted.ok()) {
      if (cfg_.static_prefilter) r.sa_error = extracted.error().message;
    } else {
      std::vector<os::Image> images;
      images.reserve(extracted.value().size());
      for (auto& e : extracted.value()) images.push_back(std::move(e.image));
      sa::SaOptions sopts;
      sopts.metrics = tsink;
      sa::ProgramReport rep = sa::analyze_images(spec.name, images, sopts);
      if (cfg_.static_prefilter) {
        r.sa_analyzed = true;
        r.sa_flagged = rep.flagged();
        r.sa_images = rep.images;
        r.sa_blocks = rep.blocks;
        r.sa_findings = rep.findings;
        r.sa_risk = rep.risk;
        r.sa_rules = std::move(rep.rules);
      }
      if (want_hints) {
        for (const sa::ImageReport& ir : rep.per_image) {
          for (const sa::ElideHint& h : ir.elide_hints) {
            eopts.elide_hints[h.va].emplace_back(h.insns, h.hash);
          }
        }
      }
      if (cfg_.static_prune) {
        // sa::TriggerMask bit -> core::Trigger bit (the sa encoding skips
        // kTaintedFetch, which is never maskable).
        u8 m = 0;
        if (rep.trigger_mask & sa::kMaskTaintedLoad)
          m |= 1u << static_cast<u32>(core::Trigger::kTaintedLoad);
        if (rep.trigger_mask & sa::kMaskTaintedStore)
          m |= 1u << static_cast<u32>(core::Trigger::kTaintedStore);
        if (rep.trigger_mask & sa::kMaskExecPageWrite)
          m |= 1u << static_cast<u32>(core::Trigger::kExecPageWrite);
        if (rep.trigger_mask & sa::kMaskSyscallArg)
          m |= 1u << static_cast<u32>(core::Trigger::kSyscallArg);
        eopts.static_trigger_mask = m;
      }
    }
  }

  // --- the analyzed run: the live guest under the FAROS engine ---
  // One execution per job. The guest is a deterministic emulator and
  // cannot observe the engine's cost, so there is nothing to gain from a
  // bare record pass followed by an analyzed replay. The machine still
  // captures its ReplayLog, which is the re-analysis path below. The
  // machine is declared before the engine so the engine is torn down
  // first.
  os::Machine m(mcfg);
  core::FarosEngine engine(m.kernel(), eopts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  if (auto b = m.boot(); !b.ok()) return fail("boot: " + b.error().message);
  auto source = sc->make_source();
  if (source) m.set_event_source(source.get());
  if (auto s = sc->setup(m); !s.ok())
    return fail("setup: " + s.error().message);
  os::RunStats stats;
  {
    obs::ScopedTimer t(tsink, obs::Tmr::kRun);
    stats = m.run(budget, &dog);
  }
  if (stats.aborted) return stopped();

  // COW clone stats are plain u64s on PhysMem (src/vm keeps no obs
  // dependency). Every machine of the job counts — the analyzed run and
  // each re-analysis replay — and each fault stream is a pure function of
  // the spec, so the fold stays deterministic.
  auto count_clone = [&](os::Machine& mach) {
    const vm::PhysMem::CowStats& cs = mach.kernel().phys_mem().cow_stats();
    if (!tsink || !cs.cow) return;
    tsink->add(obs::Ctr::kSnapClone);
    tsink->add(obs::Ctr::kCowFault, cs.cow_faults);
    tsink->add(obs::Ctr::kSnapSharedPages, cs.shared_frames);
  };
  count_clone(m);

  // --- re-analysis: each extra policy set replays the recording ---
  for (const PolicySet& ps : cfg_.extra_policies) {
    os::Machine m2(mcfg);
    core::Options o = eopts;
    o.rules = ps.rules;
    o.collect_metrics = false;  // only the primary feeds the metrics row
    core::FarosEngine e2(m2.kernel(), o);
    m2.attach_cpu_plugin(&e2);
    m2.add_monitor(&e2);
    if (auto b = m2.boot(); !b.ok())
      return fail("policy replay boot: " + b.error().message);
    if (auto s = sc->setup(m2); !s.ok())
      return fail("policy replay setup: " + s.error().message);
    m2.load_replay(m.recording());
    os::RunStats s2;
    {
      obs::ScopedTimer t(tsink, obs::Tmr::kReplay);
      s2 = m2.run(budget, &dog);
    }
    if (s2.aborted) return stopped();
    r.policy_runs.push_back(policy_run_of(ps.name, e2));
    count_clone(m2);
  }

  r.status = JobStatus::kOk;
  r.metrics = engine.metrics_snapshot();
  if (r.metrics.collected) {
    // The run_once-local sink carries the phase timers, the static-
    // prefilter counters and the clone stats (the engine never touches
    // those cells, so the element-wise add cannot double-count).
    obs::MetricSnapshot local = timers.snapshot();
    r.metrics.timer_ns = local.timer_ns;
    for (u32 i = 0; i < obs::kCtrCount; ++i) {
      r.metrics.counters[i] += local.counters[i];
    }
    // The block cache lives in the interpreter; like the clone stats its
    // counters are plain u64s surfaced here. Only the analyzed machine
    // counts, which keeps them one run's deterministic facts per job.
    if (const vm::BlockCache* btc = m.kernel().interp().block_cache()) {
      const vm::BlockCacheStats& bs = btc->stats();
      r.metrics.counters[static_cast<u32>(obs::Ctr::kBtTranslate)] +=
          bs.translated;
      r.metrics.counters[static_cast<u32>(obs::Ctr::kBtHit)] += bs.hits;
      r.metrics.counters[static_cast<u32>(obs::Ctr::kBtEvictSmc)] +=
          bs.evict_smc;
      r.metrics.counters[static_cast<u32>(obs::Ctr::kBtEvictCr3)] +=
          bs.evict_cr3;
    }
  }
  r.record_instructions = stats.instructions;
  r.replay_instructions = stats.instructions;
  r.all_exited = stats.all_exited;
  r.budget_exhausted = !stats.all_exited && !stats.deadlocked &&
                       stats.instructions >= budget;
  r.flagged = engine.flagged();
  r.findings = static_cast<u32>(engine.findings().size());
  for (const auto& f : engine.findings()) {
    if (f.whitelisted) ++r.suppressed;
    r.policies.push_back(f.policy);
  }
  std::sort(r.policies.begin(), r.policies.end());
  r.policies.erase(std::unique(r.policies.begin(), r.policies.end()),
                   r.policies.end());
  r.prov_lists = engine.store().size();
  r.tainted_bytes = engine.shadow().tainted_bytes();
  const core::RuleEngine& re = engine.rule_engine();
  r.rules.reserve(re.rule_count());
  for (u32 i = 0; i < re.rule_count(); ++i) {
    r.rules.push_back({re.rule_id(i), re.rule_stats(i).evals,
                       re.rule_stats(i).hits});
  }

  // --- provenance graph export (engine + analyzed kernel still alive) ---
  if (!cfg_.graph_out.empty()) {
    graph::ProvGraph pg = graph::build_graph(engine, m.kernel());
    Bytes blob = graph::serialize(pg);
    std::error_code ec;
    std::filesystem::create_directories(cfg_.graph_out, ec);
    std::string path =
        cfg_.graph_out + "/" + sanitize_name(spec.name) + ".fpg";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return fail("graph write: cannot open " + path);
    size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
    if (written != blob.size()) return fail("graph write: short write " + path);
    r.graph_built = true;
    r.graph_nodes = static_cast<u32>(pg.nodes.size());
    r.graph_edges = static_cast<u32>(pg.edges.size());
    r.graph_bytes = blob.size();
  }
  return r;
}

JobResult Farm::run_job(const JobSpec& spec) const {
  auto t0 = Clock::now();
  JobResult r = run_once(spec, 0);
  // One bounded retry per configured attempt, only for harness errors —
  // timeouts would time out again and cancellations must stay cancelled.
  //
  // Retry hygiene (audited for --metrics determinism): every attempt is a
  // whole-cloth re-run — run_once builds a fresh JobResult, fresh
  // machines, a fresh engine and a fresh local timer sink, and the
  // assignment below discards the aborted attempt's object entirely. No
  // counter or timer from a failed attempt can leak into the result the
  // farm emits; only `retries` (set here) and wall_ms (deliberately wall-
  // clock, excluded from deterministic streams) reflect that a retry
  // happened. The injected-retry test pins this across worker counts.
  for (u32 attempt = 0;
       attempt < cfg_.retries && r.status == JobStatus::kError &&
       !cancel_.load(std::memory_order_relaxed);
       ++attempt) {
    r = run_once(spec, attempt + 1);
    r.retries = attempt + 1;
  }
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

void Farm::deliver(JobResult r) {
  std::lock_guard<std::mutex> lock(emit_mu_);
  // Defensive: a duplicate delivery for an already-emitted id would lodge
  // permanently at reorder_.begin() and wedge every later emission; a
  // duplicate for a pending id would silently double-count. Exactly one
  // result per id is the invariant — keep the first, drop the rest.
  if (r.id < next_emit_ || reorder_.count(r.id)) return;
  reorder_.emplace(r.id, std::move(r));
  while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
    JobResult next = std::move(reorder_.begin()->second);
    reorder_.erase(reorder_.begin());
    if (cfg_.on_result) cfg_.on_result(next);
    results_.push_back(std::move(next));
    ++next_emit_;
  }
}

void Farm::worker_main() {
  while (auto spec = queue_.pop()) {
    deliver(run_job(*spec));
  }
}

TriageReport Farm::run(std::vector<JobSpec> jobs) {
  {
    std::lock_guard<std::mutex> lock(emit_mu_);
    reorder_.clear();
    results_.clear();
    next_emit_ = 0;
  }

  auto t0 = Clock::now();
  for (u32 i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    queue_.push(std::move(jobs[i]));
  }
  queue_.close();

  u32 nworkers = std::min<u32>(cfg_.workers,
                               std::max<size_t>(jobs.size(), 1));
  std::vector<std::thread> pool;
  pool.reserve(nworkers);
  for (u32 i = 0; i < nworkers; ++i) {
    pool.emplace_back([this] { worker_main(); });
  }
  for (auto& t : pool) t.join();

  // Jobs never dispatched (cancellation) still get a result each.
  for (auto& spec : queue_.drain()) {
    JobResult r;
    r.id = spec.id;
    r.name = spec.name;
    r.category = spec.category;
    r.expect_flagged = spec.expect_flagged;
    r.status = JobStatus::kCancelled;
    deliver(std::move(r));
  }

  TriageReport report;
  {
    std::lock_guard<std::mutex> lock(emit_mu_);
    report.results = std::move(results_);
    results_.clear();
  }

  FarmMetrics& m = report.metrics;
  m.jobs = static_cast<u32>(report.results.size());
  m.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> latencies;
  for (const auto& r : report.results) {
    switch (r.status) {
      case JobStatus::kOk:
        ++m.ok;
        r.flagged ? ++m.flagged : ++m.clean;
        latencies.push_back(r.wall_ms);
        break;
      case JobStatus::kError: ++m.errors; break;
      case JobStatus::kTimeout: ++m.timeouts; break;
      case JobStatus::kCancelled: ++m.cancelled; break;
    }
    m.instructions += r.replay_instructions;
    if (r.sa_analyzed) {
      ++m.sa_analyzed;
      if (r.sa_flagged) ++m.sa_flagged;
    }
    if (r.metrics.collected) {
      m.static_s +=
          static_cast<double>(
              r.metrics.timer_ns[static_cast<u32>(obs::Tmr::kStatic)]) /
          1e9;
      m.run_s +=
          static_cast<double>(
              r.metrics.timer_ns[static_cast<u32>(obs::Tmr::kRun)]) /
          1e9;
      m.replay_s +=
          static_cast<double>(
              r.metrics.timer_ns[static_cast<u32>(obs::Tmr::kReplay)]) /
          1e9;
    }
  }
  if (m.wall_s > 0) {
    m.jobs_per_s = m.ok / m.wall_s;
    m.insns_per_s = static_cast<double>(m.instructions) / m.wall_s;
  }
  std::sort(latencies.begin(), latencies.end());
  m.p50_ms = percentile(latencies, 0.50);
  m.p95_ms = percentile(latencies, 0.95);
  return report;
}

}  // namespace faros::farm
