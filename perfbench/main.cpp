// faros_perfbench — the triage benchmark binary (see README.md).
//
//   faros_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--tmp-dir DIR]
//   faros_perfbench --self-test
//
// Drives the farm through its public API with FarmConfig defaults, as an
// analyst's batch would. One run: set up several times (catalogue +
// snapshot capture) and keep the median, run one warm-up pass that also
// sizes the window, then run whole passes of the catalogue inside one
// Farm::run for about S seconds. With --trace 1 the window is halved and
// a traced run of the other half walks each job layer by layer. The last
// stdout line is the result object; the line before it is the full record.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalogue.h"
#include "common/json.h"
#include "graph/graph.h"
#include "graph/slice.h"
#include "host.h"
#include "os/snapshot.h"
#include "stats.h"
#include "trace.h"
#include "walk.h"

namespace perfbench {
int run_self_test();
}

using namespace perfbench;
namespace ff = faros::farm;
namespace fo = faros::os;
namespace obs = faros::obs;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetupReps = 7;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string tmp_dir = ".bench_build/tmp";
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A double with every digit, for the record and result lines.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// [v,...]
std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

/// (name, (value, unit)), in result-line order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

/// {"name":{"value":v,"unit":u},...}
std::string metrics_json(const MetricList& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ',';
    out += "\"" + faros::json_escape(ms[i].first) + "\":{\"value\":" +
           num(ms[i].second.first) + ",\"unit\":\"" + ms[i].second.second +
           "\"}";
  }
  return out + "}";
}

/// Same mapping the farm applies to graph artifact names.
std::string artifact_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// One untraced Farm::run over whole passes of the catalogue.
struct Window {
  std::vector<ff::JobResult> results;  // ascending job id
  std::vector<u32> entry_of;           // catalogue entry of each job
  u32 passes = 0;
  double wall_s = 0;
  double cpu_ms = 0;
  // Wall seconds and process CPU ms of each pass, measured between the
  // deliveries of consecutive passes' last jobs.
  std::vector<double> pass_s;
  std::vector<double> pass_cpu_ms;
  // Analyst follow-up on graph workloads, per job id.
  std::vector<u32> slices;
  std::vector<u32> slices_without_source;
  std::vector<std::string> graph_errors;
};

/// The analyst's follow-up on an exported graph: load it, then slice back
/// from every finding to the inputs that caused it.
void slice_artifact(Window& win, const std::string& dir,
                    const ff::JobResult& r) {
  if (!r.graph_built) return;
  std::string path = dir + "/" + artifact_name(r.name) + ".fpg";
  std::ifstream in(path, std::ios::binary);
  faros::Bytes blob((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::filesystem::remove(path);
  auto g = faros::graph::deserialize(blob);
  if (!g.ok()) {
    win.graph_errors.push_back(r.name + ": " + g.error().message);
    return;
  }
  const faros::graph::ProvGraph& pg = g.value();
  for (u32 i = 0; i < pg.count(faros::graph::NodeType::kFinding); ++i) {
    auto id = pg.node_id(faros::graph::NodeType::kFinding, i);
    if (!id) continue;
    auto sl = faros::graph::slice(pg, *id, {});
    ++win.slices[r.id];
    if (sl.sources.empty()) ++win.slices_without_source[r.id];
  }
}

Window run_window(const Workload& w, const ff::FarmConfig& base, u64 seed,
                  u32 first_pass, u32 passes) {
  Window win;
  win.passes = passes;
  std::vector<ff::JobSpec> jobs =
      build_passes(w, seed, first_pass, passes, &win.entry_of);
  win.slices.assign(jobs.size(), 0);
  win.slices_without_source.assign(jobs.size(), 0);

  const size_t n = w.entries.size();
  Clock::time_point mark;
  double mark_cpu = 0;
  ff::FarmConfig cfg = base;
  // Results arrive in job-id order and passes are contiguous in id, so a
  // pass ends when its last job is delivered.
  cfg.on_result = [&](const ff::JobResult& r) {
    if (w.graphs) slice_artifact(win, cfg.graph_out, r);
    if ((r.id + 1) % n != 0) return;
    auto now = Clock::now();
    double cpu = process_cpu_ms();
    win.pass_s.push_back(std::chrono::duration<double>(now - mark).count());
    win.pass_cpu_ms.push_back(cpu - mark_cpu);
    mark = now;
    mark_cpu = cpu;
  };
  ff::Farm farm(cfg);
  const double cpu0 = process_cpu_ms();
  const auto t0 = Clock::now();
  mark = t0;
  mark_cpu = cpu0;
  ff::TriageReport rep = farm.run(std::move(jobs));
  win.wall_s = secs_since(t0);
  win.cpu_ms = process_cpu_ms() - cpu0;
  win.results = std::move(rep.results);
  return win;
}

/// Did job `r` finish ok with every policy set's expected verdict?
bool job_ok(const Workload& w, u32 entry, const ff::JobResult& r) {
  if (r.status != ff::JobStatus::kOk) return false;
  if (r.policy_runs.size() != w.extra_sets.size()) return false;
  const std::vector<bool>& ex = w.expect[entry];
  if (r.flagged != ex[0]) return false;
  for (size_t i = 0; i < r.policy_runs.size(); ++i) {
    if (r.policy_runs[i].flagged != ex[i + 1]) return false;
  }
  return true;
}

struct Score {
  u64 attempted = 0;
  u64 failed = 0;
  u64 tp = 0, fp = 0, tn = 0, fn = 0;  // primary policy set
  bool counts_ok = false;  // tp/tn are the catalogue's, once per pass
  std::vector<std::string> problems;
};

Score score_window(const Workload& w, const Window& win) {
  Score s;
  for (size_t i = 0; i < win.results.size(); ++i) {
    const ff::JobResult& r = win.results[i];
    const u32 e = win.entry_of[i];
    ++s.attempted;
    bool ok = job_ok(w, e, r);
    if (w.graphs && r.status == ff::JobStatus::kOk &&
        (!r.graph_built || win.slices_without_source[i] != 0 ||
         (r.flagged && win.slices[i] == 0))) {
      ok = false;
    }
    if (!ok) {
      ++s.failed;
      if (s.problems.size() < 8) {
        s.problems.push_back(r.name + ": status " +
                             ff::job_status_name(r.status) + " " + r.error);
      }
    }
    if (r.status == ff::JobStatus::kOk) {
      if (r.flagged) {
        r.expect_flagged ? ++s.tp : ++s.fp;
      } else {
        r.expect_flagged ? ++s.fn : ++s.tn;
      }
    }
  }
  for (const auto& e : win.graph_errors) {
    if (s.problems.size() < 8) s.problems.push_back(e);
  }
  // Whole passes: the confusion counts must be the catalogue's, times
  // the number of passes.
  u64 want_tp = 0, want_tn = 0;
  for (const auto& ex : w.expect) ex[0] ? ++want_tp : ++want_tn;
  s.counts_ok = s.tp == want_tp * win.passes &&
                s.tn == want_tn * win.passes && !s.fp && !s.fn;
  if (!s.counts_ok) {
    s.problems.push_back("confusion counts differ from the catalogue's");
  }
  return s;
}

/// One traced job: the farm's own run of it, then the layer-by-layer walk.
struct TracedJob {
  u32 entry = 0;
  ff::JobResult farm;
  WalkResult walk;
};

struct TracedRun {
  std::vector<TracedJob> jobs;
  double wall_s = 0;
};

TracedRun run_traced(const Workload& w, const ff::FarmConfig& cfg,
                     const WalkContext& ctx, u64 seed, u32 first_pass,
                     double seconds, Tracer& tracer) {
  ff::Farm farm(cfg);  // run_job only; the pool stays idle
  const size_t n = w.entries.size();
  // The farm captures its snapshot on its first job; keep that out of
  // the traced jobs' farm.run_job spans.
  farm.run_job(make_job(w, first_pass, 0));
  ++first_pass;
  std::atomic<u64> next{0};
  std::vector<std::vector<TracedJob>> per_thread(w.workers);
  auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto body = [&](u32 thread) {
    while (Clock::now() < deadline) {
      const u64 k = next.fetch_add(1);
      const u32 pass = first_pass + static_cast<u32>(k / n);
      const u32 entry = pass_order(n, seed, pass)[k % n];
      ff::JobSpec spec = make_job(w, pass, entry);
      spec.id = static_cast<u32>(k);
      const u32 job = static_cast<u32>(k);
      TracedJob tj;
      tj.entry = entry;
      Span root(tracer, "job", 0, job, thread);
      {
        Span s(tracer, "farm.run_job", root.id(), job, thread);
        tj.farm = farm.run_job(spec);
      }
      tj.walk = walk_job(ctx, spec, tracer, root.id(), job, thread);
      per_thread[thread].push_back(std::move(tj));
    }
  };
  std::vector<std::thread> pool;
  for (u32 i = 0; i < w.workers; ++i) pool.emplace_back(body, i);
  for (auto& t : pool) t.join();
  TracedRun out;
  out.wall_s = secs_since(t0);
  for (auto& v : per_thread) {
    for (auto& tj : v) out.jobs.push_back(std::move(tj));
  }
  return out;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

bool parse_args(int argc, char** argv, Args& a, bool& self_test) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--tmp-dir") {
      a.tmp_dir = v;
    } else {
      return false;
    }
  }
  return self_test || !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  if (!parse_args(argc, argv, args, self_test)) {
    std::fprintf(stderr,
                 "usage: faros_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--tmp-dir DIR]\n"
                 "       faros_perfbench --self-test\n");
    return 2;
  }
  if (self_test) return run_self_test();

  const HostStamp host = host_stamp();
  Tracer tracer;

  // --- set-up, repeated; the median is setup_s ---
  std::vector<double> setup_s, capture_ms;
  Workload w;
  fo::SnapshotPtr snap;
  const fo::KernelConfig kernel_cfg = ff::FarmConfig{}.machine.kernel;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span root(tracer, "setup", 0, 0, 0);
    auto t0 = Clock::now();
    faros::Result<Workload> wl = faros::Err<Workload>("unset");
    {
      Span s(tracer, "attacks.catalogue", root.id(), 0, 0);
      wl = make_workload(args.workload, host.nproc);
    }
    if (!wl.ok()) {
      std::fprintf(stderr, "faros_perfbench: %s\n",
                   wl.error().message.c_str());
      return 2;
    }
    auto t1 = Clock::now();
    faros::Result<fo::SnapshotPtr> s = faros::Err<fo::SnapshotPtr>("unset");
    snap.reset();  // hold one guest image at a time
    {
      Span sp(tracer, "os.capture_snapshot", root.id(), 0, 0);
      s = fo::capture_snapshot(kernel_cfg);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "faros_perfbench: snapshot: %s\n",
                   s.error().message.c_str());
      return 2;
    }
    setup_s.push_back(secs_since(t0));
    capture_ms.push_back(secs_since(t1) * 1e3);
    w = std::move(wl).take();
    snap = std::move(s).take();
  }

  const bool traced = args.trace == 1;
  // Only the traced walk boots from the benchmark's own snapshot; the
  // farm captures its own, so drop ours before the window measures RSS.
  if (!traced) snap.reset();

  const u32 budget = thread_budget(w.workers, w.policy_sets());
  const bool budget_ok = thread_budget_ok(w.workers, w.policy_sets(),
                                          host.nproc);
  if (!budget_ok) {
    std::fprintf(stderr,
                 "faros_perfbench: warning: %u workers x (1 + %u policy "
                 "sets) = %u threads exceeds nproc %u\n",
                 w.workers, w.policy_sets(), budget, host.nproc);
  }

  // Private temporary directory for graph artifacts, removed at exit.
  const std::string tmp =
      args.tmp_dir + "/run-" + std::to_string(::getpid());
  ff::FarmConfig cfg;
  cfg.workers = w.workers;
  cfg.extra_policies = w.extra_sets;
  cfg.engine_opts.rules = w.primary_rules;
  if (w.graphs) {
    cfg.graph_out = tmp + "/graphs";
    std::filesystem::create_directories(cfg.graph_out);
  }

  // --- warm-up pass: fills lazy state and sizes the window ---
  Window warm = run_window(w, cfg, args.seed, 0, 1);
  Score warm_score = score_window(w, warm);
  const double pass_s = std::max(warm.wall_s, 1e-3);

  const double window_target = traced ? args.seconds / 2 : args.seconds;
  const size_t n = w.entries.size();
  u32 passes = static_cast<u32>(std::max(1.0, std::round(window_target /
                                                         pass_s)));
  if (!traced) {
    // Enough jobs that ten samples lie beyond the reported tail.
    u32 need = static_cast<u32>((min_samples(w.tail_pct) + n - 1) / n);
    passes = std::max(passes, need);
  }

  // --- the timed window ---
  Window win = run_window(w, cfg, args.seed, 1, passes);
  const double rss_mb = peak_rss_mb();
  Score score = score_window(w, win);

  std::vector<double> lat;
  double busy_ms = 0;
  u64 retries = 0, ok_jobs = 0;
  for (const auto& r : win.results) {
    busy_ms += r.wall_ms;
    retries += r.retries;
    if (r.status != ff::JobStatus::kOk) continue;
    ++ok_jobs;
    lat.push_back(r.wall_ms);
  }
  const size_t jobs = win.results.size();
  const Percentile tail = percentile(lat, w.tail_pct);
  const auto lat_q = quartiles(lat);
  // Throughput and CPU cost are medians over passes: every pass is the
  // same work, so a host slowdown during a few passes moves neither.
  const double jobs_per_s =
      ratio(static_cast<double>(n), median(win.pass_s));
  const double cpu_ms_per_job = median(win.pass_cpu_ms) / static_cast<double>(n);
  const double ok_frac = ratio(static_cast<double>(jobs - score.failed),
                               static_cast<double>(jobs));
  const double untraced_jps = ratio(static_cast<double>(ok_jobs), win.wall_s);

  bool correct = warm_score.failed == 0 && score.failed == 0 &&
                 warm_score.counts_ok && score.counts_ok &&
                 tail.beyond >= (traced ? 0 : kTailSupport);
  u64 attempted = score.attempted;
  u64 failed = score.failed;
  std::vector<std::string> problems = warm_score.problems;
  problems.insert(problems.end(), score.problems.begin(),
                  score.problems.end());

  MetricList e2e = {
      {"jobs_per_s", {jobs_per_s, "1/s"}},
      {"job_p50_ms", {median(lat), "ms"}},
      {"job_tail_ms", {tail.value, "ms"}},
      {"cpu_ms_per_job", {cpu_ms_per_job, "ms"}},
      {"peak_rss_mb", {rss_mb, "MiB"}},
      {"setup_s", {median(setup_s), "s"}},
      {"ok_frac", {ok_frac, "frac"}},
  };

  // --- traced run ---
  MetricList layers, extra;
  std::string span_json = "{}";
  if (traced) {
    WalkContext ctx;
    ctx.workload = &w;
    ctx.machine = cfg.machine;
    ctx.machine.kernel.snapshot = snap;
    ctx.engine = cfg.engine_opts;
    ff::FarmConfig tcfg = cfg;
    if (w.graphs) tcfg.graph_out = tmp + "/traced-graphs";
    TracedRun tr = run_traced(w, tcfg, ctx, args.seed, 1 + passes,
                              args.seconds - window_target, tracer);

    // The untraced verdicts per catalogue entry, for the equality check.
    std::map<u32, std::vector<Verdict>> untraced;
    for (size_t i = 0; i < win.results.size(); ++i) {
      untraced.emplace(win.entry_of[i], verdicts_of(win.results[i]));
    }
    obs::MetricSnapshot sum, core_sum;
    u64 rec_insns = 0, rep_insns = 0, graph_bytes = 0, sliced = 0;
    for (const TracedJob& tj : tr.jobs) {
      ++attempted;
      const std::vector<Verdict> fv = verdicts_of(tj.farm);
      auto it = untraced.find(tj.entry);
      bool ok = job_ok(w, tj.entry, tj.farm) && tj.walk.error.empty() &&
                tj.walk.verdicts == fv &&
                (it == untraced.end() || it->second == fv) &&
                tj.walk.slices_without_source == 0;
      if (!ok) {
        ++failed;
        correct = false;
        if (problems.size() < 16) {
          problems.push_back("traced " + tj.farm.name + ": " +
                             (tj.walk.error.empty()
                                  ? std::string("verdict mismatch")
                                  : tj.walk.error));
        }
      }
      sum.merge(tj.farm.metrics);
      core_sum.merge(tj.walk.engine_metrics);
      rec_insns += tj.walk.record_insns;
      rep_insns += tj.walk.replay_insns;
      graph_bytes += tj.walk.graph_bytes;
      sliced += tj.walk.findings_sliced;
    }
    const double tj_n = std::max<double>(1, tr.jobs.size());
    const auto tot = tracer.totals();
    auto total_ms = [&](const char* name) {
      auto it = tot.find(name);
      return it == tot.end() ? 0.0 : it->second.total_ms;
    };
    // Farm-level counts come from what run_job returns; engine ratios from
    // the walk's inline engine, which counts elision guards on every path.
    auto c = [&](obs::Ctr id) { return static_cast<double>(sum[id]); };
    auto e = [&](obs::Ctr id) { return static_cast<double>(core_sum[id]); };
    // Walk time the farm also spends on a job: everything but the slice,
    // and the graph export only where the farm exports graphs.
    double farm_equiv = total_ms("walk") - total_ms("graph.slice");
    if (!w.graphs) {
      farm_equiv -= total_ms("graph.build_graph") + total_ms("graph.serialize");
    }
    const double bare_ns = ratio(total_ms("os.run_bare") * 1e6,
                                 static_cast<double>(rec_insns));
    const double dift_ns = ratio(total_ms("core.run_engine") * 1e6,
                                 static_cast<double>(rep_insns));
    const double insns = e(obs::Ctr::kInsnsRetired);
    const double rule_evals =
        e(obs::Ctr::kRuleEvalsTaintedLoad) +
        e(obs::Ctr::kRuleEvalsTaintedStore) +
        e(obs::Ctr::kRuleEvalsExecPageWrite) +
        e(obs::Ctr::kRuleEvalsTaintedFetch) +
        e(obs::Ctr::kRuleEvalsSyscallArg);
    const double memo_hit =
        e(obs::Ctr::kMergeMemoHit) + e(obs::Ctr::kAppendMemoHit);
    const double memo_all = memo_hit + e(obs::Ctr::kMergeMemoMiss) +
                            e(obs::Ctr::kAppendMemoMiss);
    const double traced_jps = ratio(tj_n, tr.wall_s);
    const u64 os_boots = tot.count("os.boot") ? tot.at("os.boot").count : 0;
    layers = {
        {"farm.busy_frac",
         {ratio(busy_ms, w.workers * win.wall_s * 1e3), "frac"}},
        {"farm.unattributed_ms_per_job",
         {(total_ms("farm.run_job") - farm_equiv) / tj_n, "ms"}},
        {"farm.retries_per_job",
         {ratio(static_cast<double>(retries), static_cast<double>(jobs)),
          "count"}},
        {"os.snapshot_capture_ms", {median(capture_ms), "ms"}},
        {"os.clone_boot_us",
         {ratio(total_ms("os.boot") * 1e3, static_cast<double>(os_boots)),
          "us"}},
        {"os.cow_faults_per_job", {c(obs::Ctr::kCowFault) / tj_n, "count"}},
        {"attacks.setup_us_per_job",
         {(total_ms("attacks.make_scenario") + total_ms("attacks.setup")) *
              1e3 / tj_n,
          "us"}},
        {"attacks.extract_us_per_job",
         {total_ms("attacks.extract_images") * 1e3 / tj_n, "us"}},
        {"sa.analyze_us_per_job",
         {total_ms("sa.analyze_images") * 1e3 / tj_n, "us"}},
        {"sa.insns_decoded_per_job",
         {c(obs::Ctr::kSaInsnsDecoded) / tj_n, "count"}},
        {"vm.bare_ns_per_insn", {bare_ns, "ns"}},
        {"vm.bt_hit_rate",
         {ratio(c(obs::Ctr::kBtHit),
                c(obs::Ctr::kBtHit) + c(obs::Ctr::kBtTranslate)),
          "frac"}},
        {"vm.bt_evict_smc_per_job", {c(obs::Ctr::kBtEvictSmc) / tj_n, "count"}},
        {"core.dift_ns_per_insn", {dift_ns, "ns"}},
        {"core.dift_tax_ns_per_insn", {dift_ns - bare_ns, "ns"}},
        {"core.elided_insn_frac",
         {ratio(e(obs::Ctr::kBtElidedInsns), insns), "frac"}},
        {"core.guard_fail_rate",
         {ratio(e(obs::Ctr::kBtGuardFail),
                e(obs::Ctr::kBtGuardFail) + e(obs::Ctr::kBtElidedBlocks)),
          "frac"}},
        {"core.tainted_fetch_frac",
         {ratio(e(obs::Ctr::kTaintedFetches), insns), "frac"}},
        {"core.fetch_cache_hit_rate",
         {ratio(e(obs::Ctr::kFetchCacheHit),
                e(obs::Ctr::kFetchCacheHit) + e(obs::Ctr::kFetchCacheMiss)),
          "frac"}},
        {"core.shadow_frame_cache_hit_rate",
         {ratio(e(obs::Ctr::kShadowFrameCacheHit),
                e(obs::Ctr::kShadowFrameCacheHit) +
                    e(obs::Ctr::kShadowFrameCacheMiss)),
          "frac"}},
        {"core.memo_hit_rate", {ratio(memo_hit, memo_all), "frac"}},
        {"core.rule_evals_per_kinsn", {ratio(rule_evals * 1e3, insns), "count"}},
        {"graph.build_us_per_job",
         {total_ms("graph.build_graph") * 1e3 / tj_n, "us"}},
        {"graph.serialize_us_per_job",
         {total_ms("graph.serialize") * 1e3 / tj_n, "us"}},
        {"graph.slice_us_per_finding",
         {ratio(total_ms("graph.slice") * 1e3, static_cast<double>(sliced)),
          "us"}},
        {"graph.bytes_per_job",
         {static_cast<double>(graph_bytes) / tj_n, "count"}},
        {"trace.overhead_frac", {1 - ratio(traced_jps, untraced_jps), "frac"}},
    };
    // Only analyst_fanout has extra policy sets; elsewhere this reads 0 by
    // construction, so it stays in the record, not the result line.
    extra = {
        {"core.extra_policy_ms_per_job",
         {total_ms("core.extra_policy") / tj_n, "ms"}},
        {"traced.jobs_per_s", {traced_jps, "1/s"}},
        {"traced.jobs", {tj_n, "count"}},
    };

    span_json = "{";
    bool first = true;
    for (const auto& [name, t] : tot) {
      if (!first) span_json += ',';
      first = false;
      span_json += "\"" + name + "\":{\"n\":" + std::to_string(t.count) +
                   ",\"total_ms\":" + num(t.total_ms) +
                   ",\"self_ms\":" + num(t.self_ms) + "}";
    }
    span_json += "}";
    if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
      std::fprintf(stderr, "faros_perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);

  // --- the record: every number, stamped with where it came from ---
  std::string probs = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i) probs += ',';
    probs += "\"" + faros::json_escape(problems[i]) + "\"";
  }
  probs += "]";
  faros::JsonWriter rec;
  rec.field("type", "record")
      .field("workload", w.name)
      .field("seed", args.seed)
      .raw_field("seconds", num(args.seconds))
      .field("trace", args.trace)
      .field("nproc", host.nproc)
      .field("cpu_model", host.cpu_model)
      .field("build_type", host.build_type)
      .field("workers", w.workers)
      .field("policy_sets", w.policy_sets())
      .field("thread_budget", budget)
      .field("thread_budget_ok", budget_ok)
      .field("catalogue_jobs", static_cast<u64>(n))
      .field("passes", win.passes)
      .field("jobs", static_cast<u64>(jobs))
      .raw_field("window_s", num(win.wall_s))
      .raw_field("warmup_s", num(warm.wall_s))
      .raw_field("window_jobs_per_s",
                 num(ratio(static_cast<double>(ok_jobs), win.wall_s)))
      .raw_field("window_cpu_ms_per_job",
                 num(ratio(win.cpu_ms, static_cast<double>(jobs))))
      .raw_field("pass_s", list_json(win.pass_s))
      .raw_field("repeat_frac", num(repeat_frac(win.entry_of)))
      .field("tail_pct", w.tail_pct)
      .field("tail_beyond", static_cast<u64>(tail.beyond))
      .raw_field("latency_quartiles_ms",
                 list_json({lat_q[0], lat_q[1], lat_q[2]}))
      .field("tp", score.tp)
      .field("fp", score.fp)
      .field("tn", score.tn)
      .field("fn", score.fn)
      .raw_field("setup_s_samples", list_json(setup_s))
      .raw_field("end_to_end", metrics_json(e2e))
      .raw_field("per_layer", metrics_json(layers))
      .raw_field("extra", metrics_json(extra))
      .raw_field("spans", span_json)
      .raw_field("problems", probs);
  std::printf("%s\n", rec.str().c_str());

  // --- the result line ---
  const MetricList& result = traced ? layers : e2e;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(result).c_str());
  return 0;
}
