// The corpus-triage farm: queue semantics, determinism across worker
// counts, watchdog timeouts, error isolation/retry, ordered streaming, and
// clean shutdown mid-queue. These tests are the ones the TSan CI job runs
// — they deliberately exercise the concurrent paths hard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <sys/wait.h>
#include <unistd.h>

#include "attacks/corpus.h"
#include "attacks/programs.h"
#include "core/rules.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "farm/triage_cli.h"
#include "os/machine.h"

namespace faros {
namespace {

using farm::Farm;
using farm::FarmConfig;
using farm::JobResult;
using farm::JobSpec;
using farm::JobStatus;

// A minimal fast job: one helper process that prints and exits (~hundreds
// of instructions), so shutdown/ordering tests can queue many of them.
class TinyScenario final : public attacks::Scenario {
 public:
  explicit TinyScenario(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  Result<void> setup(os::Machine& m) override {
    auto img = attacks::build_helper_program();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create("C:/tiny.exe", img.value().serialize());
    auto pid = m.kernel().spawn("C:/tiny.exe");
    if (!pid.ok()) return Err<void>(pid.error().message);
    return Ok();
  }
  u64 budget() const override { return 50'000; }

 private:
  std::string name_;
};

// Never exits: an idle process spins until the budget or the watchdog.
class SpinScenario final : public attacks::Scenario {
 public:
  std::string name() const override { return "spin_forever"; }
  Result<void> setup(os::Machine& m) override {
    auto img = attacks::build_idle_program("spin.exe");
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create("C:/spin.exe", img.value().serialize());
    auto pid = m.kernel().spawn("C:/spin.exe");
    if (!pid.ok()) return Err<void>(pid.error().message);
    return Ok();
  }
};

// Setup always fails: exercises the kError path and the bounded retry.
class BrokenScenario final : public attacks::Scenario {
 public:
  std::string name() const override { return "broken"; }
  Result<void> setup(os::Machine&) override {
    return Err<void>("missing sample image");
  }
};

JobSpec tiny_job(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.category = "test";
  spec.make = [name] { return std::make_unique<TinyScenario>(name); };
  return spec;
}

std::vector<JobSpec> corpus_jobs(const std::vector<attacks::CorpusEntry>& es) {
  std::vector<JobSpec> jobs;
  for (const auto& e : es) {
    JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

TEST(JobQueue, PopBlocksUntilPushAndCloseDrains) {
  farm::JobQueue q;
  q.push(tiny_job("a"));
  q.push(tiny_job("b"));
  q.close();
  auto a = q.pop();
  auto b = q.pop();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->name, "a");
  EXPECT_EQ(b->name, "b");
  EXPECT_FALSE(q.pop().has_value());  // closed + empty: no block
}

TEST(JobQueue, CancelWakesBlockedPopperAndPreservesJobs) {
  farm::JobQueue q;
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_FALSE(q.pop().has_value());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.cancel();
  popper.join();
  EXPECT_TRUE(woke);
  // A push after cancel is never dispatched, but stays for drain().
  q.push(tiny_job("left-behind"));
  auto left = q.drain();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].name, "left-behind");
}

TEST(Farm, InjectionCorpusAllFlaggedAndScored) {
  Farm f(FarmConfig{});
  auto report = f.run(corpus_jobs(attacks::injection_corpus()));
  ASSERT_EQ(report.results.size(), 11u);
  for (const auto& r : report.results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name << ": " << r.error;
    EXPECT_TRUE(r.flagged) << r.name;
    EXPECT_STREQ(r.verdict(), "TP") << r.name;
    EXPECT_FALSE(r.policies.empty()) << r.name;
  }
  EXPECT_EQ(report.metrics.flagged, 11u);
  EXPECT_EQ(report.metrics.errors, 0u);
  EXPECT_LE(report.metrics.p50_ms, report.metrics.p95_ms);
}

TEST(Farm, DeterministicAcrossWorkerCounts) {
  // The whole point of the reorder buffer: the serialised result stream is
  // byte-identical no matter how jobs interleave across workers.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  for (auto& e : attacks::jit_corpus()) {
    JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
    if (jobs.size() >= 15) break;  // keep the test fast; mix of categories
  }

  FarmConfig serial_cfg;
  serial_cfg.workers = 1;
  Farm serial(serial_cfg);
  std::string serial_out = farm::results_jsonl(serial.run(jobs));

  FarmConfig wide_cfg;
  wide_cfg.workers = 8;
  Farm wide(wide_cfg);
  std::string wide_out = farm::results_jsonl(wide.run(jobs));

  EXPECT_EQ(serial_out, wide_out);
  EXPECT_FALSE(serial_out.empty());
}

TEST(Farm, MetricsJsonlDeterministicAcrossWorkerCounts) {
  // Same contract as the results stream: per-job counters are a pure
  // function of the spec, so the metrics stream is byte-identical no
  // matter how jobs spread across workers.
  auto jobs = corpus_jobs(attacks::injection_corpus());

  FarmConfig serial_cfg;
  serial_cfg.workers = 1;
  Farm serial(serial_cfg);
  std::string serial_out = farm::metrics_jsonl(serial.run(jobs));

  FarmConfig wide_cfg;
  wide_cfg.workers = 8;
  Farm wide(wide_cfg);
  std::string wide_out = farm::metrics_jsonl(wide.run(jobs));

  EXPECT_EQ(serial_out, wide_out);
  ASSERT_FALSE(serial_out.empty());
  EXPECT_NE(serial_out.find("\"type\":\"job_metrics\""), std::string::npos);
  EXPECT_NE(serial_out.find("\"type\":\"metrics_summary\""),
            std::string::npos);
  EXPECT_NE(serial_out.find("\"insns_retired\":"), std::string::npos);
  // Wall-clock timers must never leak into the deterministic stream.
  EXPECT_EQ(serial_out.find("record_ns"), std::string::npos);
  EXPECT_EQ(serial_out.find("replay_ns"), std::string::npos);
}

TEST(Farm, MetricsOffYieldsEmptyMetricsStream) {
  FarmConfig cfg;
  cfg.engine_opts.collect_metrics = false;
  Farm f(cfg);
  auto report = f.run({tiny_job("quiet")});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].metrics.collected);
  std::string out = farm::metrics_jsonl(report);
  EXPECT_EQ(out.find("\"type\":\"job_metrics\""), std::string::npos);
  EXPECT_NE(out.find("\"jobs_collected\":0"), std::string::npos);
}

TEST(Machine, CompletedWorkloadBeatsGovernorStop) {
  // The watchdog/completion race, at the machine layer: a governor firing
  // on a workload that has already finished must not turn the terminal
  // state into an abort (the farm would misreport kOk as kTimeout).
  struct AlwaysStop final : os::RunGovernor {
    bool should_stop() override { return true; }
  };
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  auto img = attacks::build_helper_program();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/tiny.exe", img.value().serialize());
  ASSERT_TRUE(m.kernel().spawn("C:/tiny.exe").ok());

  // While work is pending the governor aborts before any quantum runs.
  AlwaysStop gov;
  os::RunStats aborted = m.run(50'000, &gov);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.instructions, 0u);

  os::RunStats done = m.run(50'000);
  ASSERT_TRUE(done.all_exited);

  // Once everything has exited, the same governor sees completion win.
  os::RunStats after = m.run(50'000, &gov);
  EXPECT_TRUE(after.all_exited);
  EXPECT_FALSE(after.aborted);
}

TEST(Farm, WatchdogCompletionRaceYieldsExactlyOneResult) {
  // Deadlines tuned to land right around job completion: whichever side
  // wins, every job must yield exactly one result, in id order, with a
  // coherent status. (The TSan CI job runs this under race detection.)
  for (int round = 0; round < 3; ++round) {
    FarmConfig cfg;
    cfg.workers = 4;
    std::atomic<u32> delivered{0};
    cfg.on_result = [&](const JobResult&) { ++delivered; };
    Farm f(cfg);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 48; ++i) {
      JobSpec spec = tiny_job("race" + std::to_string(i));
      spec.timeout_ms = 1 + (i % 3);
      jobs.push_back(std::move(spec));
    }
    auto report = f.run(jobs);
    ASSERT_EQ(report.results.size(), 48u);
    EXPECT_EQ(delivered.load(), 48u);
    for (u32 i = 0; i < report.results.size(); ++i) {
      const JobResult& r = report.results[i];
      EXPECT_EQ(r.id, i);
      EXPECT_TRUE(r.status == JobStatus::kOk ||
                  r.status == JobStatus::kTimeout)
          << r.name << " -> " << farm::job_status_name(r.status);
      // A run reported ok genuinely completed; timeouts carry no verdict.
      if (r.status == JobStatus::kOk) {
        EXPECT_TRUE(r.all_exited) << r.name;
      } else {
        EXPECT_STREQ(r.verdict(), "-") << r.name;
      }
    }
  }
}

TEST(Farm, RunJobMatchesSerialAnalyze) {
  // The farm's job runner must agree with the single-shot harness.
  attacks::HollowingScenario hollow;
  auto direct = attacks::analyze(hollow);
  ASSERT_TRUE(direct.ok());

  Farm f(FarmConfig{});
  JobSpec spec;
  spec.name = "process_hollowing";
  spec.make = [] { return std::make_unique<attacks::HollowingScenario>(); };
  JobResult r = f.run_job(spec);
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(r.flagged, direct.value().flagged);
  EXPECT_EQ(r.findings, direct.value().findings.size());
  EXPECT_EQ(r.prov_lists, direct.value().prov_lists);
  EXPECT_EQ(r.tainted_bytes, direct.value().tainted_bytes);
}

TEST(Farm, TimeoutReportedWithoutPoisoningPool) {
  FarmConfig cfg;
  cfg.workers = 2;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  JobSpec runaway;
  runaway.name = "runaway";
  runaway.category = "test";
  runaway.make = [] { return std::make_unique<SpinScenario>(); };
  runaway.budget_override = 2'000'000'000;  // would run for minutes
  runaway.timeout_ms = 100;
  jobs.push_back(std::move(runaway));
  for (int i = 0; i < 4; ++i) jobs.push_back(tiny_job("tiny" + std::to_string(i)));

  auto report = f.run(jobs);
  ASSERT_EQ(report.results.size(), 5u);
  EXPECT_EQ(report.results[0].status, JobStatus::kTimeout);
  EXPECT_EQ(report.results[0].retries, 0u);  // timeouts are not retried
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(report.results[i].status, JobStatus::kOk)
        << report.results[i].name << ": " << report.results[i].error;
  }
  EXPECT_EQ(report.metrics.timeouts, 1u);
  EXPECT_EQ(report.metrics.ok, 4u);
}

TEST(Farm, HarnessErrorRetriedOnceAndIsolated) {
  FarmConfig cfg;
  cfg.workers = 2;
  cfg.retries = 1;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  JobSpec broken;
  broken.name = "broken";
  broken.category = "test";
  broken.make = [] { return std::make_unique<BrokenScenario>(); };
  jobs.push_back(std::move(broken));
  jobs.push_back(tiny_job("healthy"));

  auto report = f.run(jobs);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, JobStatus::kError);
  EXPECT_EQ(report.results[0].retries, 1u);
  EXPECT_NE(report.results[0].error.find("missing sample image"),
            std::string::npos);
  EXPECT_EQ(report.results[1].status, JobStatus::kOk);
}

TEST(Farm, ThrowingScenarioFactoryBecomesErrorNotCrash) {
  // A host-side exception in one job must not take down its worker (or,
  // via std::terminate, the whole run): it is boxed into that job's
  // kError result, retried like any other error, and the pool moves on.
  FarmConfig cfg;
  cfg.workers = 2;
  cfg.retries = 1;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  jobs.push_back(tiny_job("before"));
  JobSpec throwing;
  throwing.name = "throwing";
  throwing.category = "test";
  throwing.make = []() -> std::unique_ptr<attacks::Scenario> {
    throw std::runtime_error("factory exploded");
  };
  jobs.push_back(std::move(throwing));
  for (int i = 0; i < 3; ++i) jobs.push_back(tiny_job("after" + std::to_string(i)));

  auto report = f.run(jobs);
  ASSERT_EQ(report.results.size(), 5u);
  const JobResult& bad = report.results[1];
  EXPECT_EQ(bad.status, JobStatus::kError);
  EXPECT_EQ(bad.retries, 1u);
  EXPECT_NE(bad.error.find("factory exploded"), std::string::npos)
      << bad.error;
  for (size_t i : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(report.results[i].status, JobStatus::kOk)
        << report.results[i].name << ": " << report.results[i].error;
  }
  EXPECT_EQ(report.metrics.errors, 1u);
  EXPECT_EQ(report.metrics.ok, 4u);
}

// Setup throws instead of returning an error: the exception escapes from
// inside the attempt, after the machine is built and booted.
class ThrowingSetupScenario final : public attacks::Scenario {
 public:
  std::string name() const override { return "throwing_setup"; }
  Result<void> setup(os::Machine&) override {
    throw std::runtime_error("setup exploded");
  }
};

TEST(Farm, ThrowingScenarioSetupBecomesError) {
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.retries = 0;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  JobSpec throwing;
  throwing.name = "throwing_setup";
  throwing.category = "test";
  throwing.make = [] { return std::make_unique<ThrowingSetupScenario>(); };
  jobs.push_back(std::move(throwing));
  jobs.push_back(tiny_job("after"));

  auto report = f.run(jobs);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, JobStatus::kError);
  EXPECT_EQ(report.results[0].retries, 0u);
  EXPECT_NE(report.results[0].error.find("setup exploded"), std::string::npos)
      << report.results[0].error;
  EXPECT_EQ(report.results[1].status, JobStatus::kOk)
      << report.results[1].error;
}

TEST(Farm, ThrowOnFirstAttemptRecoversOnRetry) {
  // A transient host-side exception is retried like any other harness
  // error: the second attempt's clean result is what the farm emits.
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.retries = 1;
  Farm f(cfg);

  auto calls = std::make_shared<std::atomic<u32>>(0);
  JobSpec flaky;
  flaky.name = "flaky";
  flaky.category = "test";
  flaky.make = [calls]() -> std::unique_ptr<attacks::Scenario> {
    if (calls->fetch_add(1) == 0) throw std::runtime_error("transient");
    return std::make_unique<TinyScenario>("flaky");
  };

  auto report = f.run({flaky});
  ASSERT_EQ(report.results.size(), 1u);
  const JobResult& r = report.results[0];
  EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(r.retries, 1u);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.all_exited);
  EXPECT_EQ(calls->load(), 2u);
  EXPECT_EQ(report.metrics.errors, 0u);
  EXPECT_EQ(report.metrics.ok, 1u);
}

TEST(Farm, InjectedRetrySucceedsWithUncontaminatedMetrics) {
  // A retried job's final result must be indistinguishable from a job that
  // succeeded first try (aside from the retries count): every counter and
  // timer from the aborted attempt is discarded with that attempt's
  // JobResult, never folded into the retry's.
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.retries = 1;
  cfg.engine_opts.collect_metrics = true;
  Farm f(cfg);

  JobSpec clean = tiny_job("twin");
  JobSpec flaky = tiny_job("twin");
  flaky.inject_failures = 1;  // first attempt fails, retry succeeds

  JobResult cr = f.run_job(clean);
  JobResult fr = f.run_job(flaky);
  ASSERT_EQ(cr.status, JobStatus::kOk);
  ASSERT_EQ(fr.status, JobStatus::kOk);
  EXPECT_EQ(cr.retries, 0u);
  EXPECT_EQ(fr.retries, 1u);

  // Byte-identical modulo the retries field.
  JobResult normalized = fr;
  normalized.retries = 0;
  EXPECT_EQ(farm::job_jsonl(normalized), farm::job_jsonl(cr));
  EXPECT_EQ(farm::job_metrics_jsonl(normalized), farm::job_metrics_jsonl(cr));
}

TEST(Farm, InjectedRetriesAreDeterministicAcrossWorkerCounts) {
  auto make_jobs = [] {
    std::vector<JobSpec> jobs;
    for (int i = 0; i < 6; ++i) {
      JobSpec spec = tiny_job("flaky" + std::to_string(i));
      spec.inject_failures = (i % 2) ? 1u : 0u;  // alternate clean / retried
      jobs.push_back(std::move(spec));
    }
    // Exhausting the retry budget must fail deterministically too.
    JobSpec dead = tiny_job("dead");
    dead.inject_failures = 2;
    jobs.push_back(std::move(dead));
    return jobs;
  };

  FarmConfig c1;
  c1.workers = 1;
  FarmConfig c3;
  c3.workers = 3;
  auto r1 = Farm(c1).run(make_jobs());
  auto r3 = Farm(c3).run(make_jobs());
  ASSERT_EQ(r1.results.size(), 7u);
  ASSERT_EQ(r3.results.size(), 7u);
  for (size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(farm::job_jsonl(r1.results[i]), farm::job_jsonl(r3.results[i]))
        << r1.results[i].name;
  }
  EXPECT_EQ(r1.results[1].retries, 1u);  // flaky1 used its retry
  EXPECT_EQ(r1.results[6].status, JobStatus::kError);  // dead exhausted it
  EXPECT_NE(r1.results[6].error.find("injected failure"), std::string::npos);
}

TEST(Farm, ResultsStreamInStableIdOrder) {
  FarmConfig cfg;
  cfg.workers = 4;
  std::vector<u32> seen;
  cfg.on_result = [&](const JobResult& r) { seen.push_back(r.id); };
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 24; ++i) jobs.push_back(tiny_job("t" + std::to_string(i)));
  auto report = f.run(jobs);

  ASSERT_EQ(seen.size(), 24u);
  for (u32 i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  for (u32 i = 0; i < report.results.size(); ++i)
    EXPECT_EQ(report.results[i].id, i);
}

TEST(Farm, CancelMidQueueDrainsCleanly) {
  // Repetition matters here: shutdown races only show up across runs.
  for (int round = 0; round < 5; ++round) {
    FarmConfig cfg;
    cfg.workers = 2;
    Farm f(cfg);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 120; ++i)
      jobs.push_back(tiny_job("j" + std::to_string(i)));

    farm::TriageReport report;
    std::thread runner([&] { report = f.run(jobs); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    f.request_cancel();
    runner.join();

    // Every job accounted for exactly once, ids ascending, and each is
    // either finished or cleanly cancelled — nothing lost, nothing hung.
    ASSERT_EQ(report.results.size(), 120u);
    for (u32 i = 0; i < report.results.size(); ++i) {
      const JobResult& r = report.results[i];
      EXPECT_EQ(r.id, i);
      EXPECT_TRUE(r.status == JobStatus::kOk ||
                  r.status == JobStatus::kCancelled)
          << r.name << " -> " << farm::job_status_name(r.status);
    }
    EXPECT_EQ(report.metrics.ok + report.metrics.cancelled, 120u);
  }
}

TEST(Farm, LiveAnalysisMatchesReplayReferenceOnFullCorpus) {
  // The farm analyzes each job during its one live run, on a snapshot
  // clone, with the block-translation cache, static elide hints and
  // elision on. The reference is the paper's plainest configuration,
  // attacks::analyze: a bare recorded run, then a replay under a freshly
  // attached engine, both booted cold with no block cache (so no
  // elision) and no hints.
  // Every job-line field the reference can produce must agree on every
  // job of the corpus.
  const std::vector<attacks::CorpusEntry> corpus = attacks::full_corpus();
  FarmConfig cfg;
  cfg.workers = 2;
  farm::TriageReport live = Farm(cfg).run(corpus_jobs(corpus));
  ASSERT_EQ(live.results.size(), corpus.size());
  ASSERT_EQ(corpus.size(), 135u);

  os::MachineConfig plain;
  plain.kernel.block_cache = false;
  ASSERT_EQ(plain.kernel.snapshot, nullptr);

  u32 tp = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const JobResult& r = live.results[i];
    ASSERT_EQ(r.status, JobStatus::kOk) << r.name << ": " << r.error;
    auto sc = corpus[i].make();
    auto ref = attacks::analyze(*sc, {}, plain);
    ASSERT_TRUE(ref.ok()) << r.name << ": " << ref.error().message;
    const attacks::AnalyzedRun& a = ref.value();
    const os::RunStats& stats = a.replayed.stats;

    u32 suppressed = 0;
    std::vector<std::string> policies;
    for (const auto& f : a.findings) {
      if (f.whitelisted) ++suppressed;
      policies.push_back(f.policy);
    }
    std::sort(policies.begin(), policies.end());
    policies.erase(std::unique(policies.begin(), policies.end()),
                   policies.end());
    using RuleRow = std::tuple<std::string, u64, u64>;  // id, evals, hits
    std::vector<RuleRow> live_rules, ref_rules;
    for (const auto& rc : r.rules) {
      live_rules.emplace_back(rc.id, rc.evals, rc.hits);
    }
    for (const auto& rc : a.rules) {
      ref_rules.emplace_back(rc.id, rc.evals, rc.hits);
    }

    EXPECT_EQ(r.flagged, a.flagged) << r.name;
    EXPECT_EQ(r.findings, a.findings.size()) << r.name;
    EXPECT_EQ(r.suppressed, suppressed) << r.name;
    EXPECT_EQ(r.policies, policies) << r.name;
    EXPECT_EQ(r.prov_lists, a.prov_lists) << r.name;
    EXPECT_EQ(r.tainted_bytes, a.tainted_bytes) << r.name;
    EXPECT_EQ(r.record_instructions, a.recorded.stats.instructions)
        << r.name;
    EXPECT_EQ(r.replay_instructions, stats.instructions) << r.name;
    EXPECT_EQ(r.all_exited, stats.all_exited) << r.name;
    EXPECT_EQ(r.budget_exhausted, !stats.all_exited && !stats.deadlocked &&
                                      stats.instructions >= sc->budget())
        << r.name;
    EXPECT_EQ(live_rules, ref_rules) << r.name;
    if (r.flagged && r.expect_flagged) ++tp;
  }
  EXPECT_EQ(live.metrics.flagged, 13u);
  EXPECT_EQ(tp, 13u);
}

TEST(Farm, MultiPolicyFanOutMatchesSeparateRuns) {
  // Re-analysis: each extra policy set replays the job's recording under
  // its own engine, and must reach exactly what a separate live run with
  // that set as the primary ruleset reaches.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(4);
  std::vector<core::RuleSpec> alt = core::builtin_rules(false, true, true);

  FarmConfig fan_cfg;
  fan_cfg.extra_policies.push_back(farm::PolicySet{"alt", alt});
  farm::TriageReport fan = Farm(fan_cfg).run(jobs);

  FarmConfig alone_cfg;
  alone_cfg.engine_opts.rules = alt;
  farm::TriageReport alone = Farm(alone_cfg).run(jobs);

  FarmConfig plain_cfg;
  farm::TriageReport plain = Farm(plain_cfg).run(jobs);

  ASSERT_EQ(fan.results.size(), 4u);
  for (size_t i = 0; i < fan.results.size(); ++i) {
    const JobResult& a = fan.results[i];
    ASSERT_EQ(a.status, JobStatus::kOk) << a.name << ": " << a.error;
    ASSERT_EQ(a.policy_runs.size(), 1u) << a.name;
    EXPECT_EQ(a.policy_runs[0].name, "alt");
    const JobResult& solo = alone.results[i];
    EXPECT_EQ(a.policy_runs[0].flagged, solo.flagged) << a.name;
    EXPECT_EQ(a.policy_runs[0].findings, solo.findings) << a.name;
    EXPECT_EQ(a.policy_runs[0].suppressed, solo.suppressed) << a.name;
    EXPECT_EQ(a.policy_runs[0].policies, solo.policies) << a.name;
    // The primary verdict is untouched by fan-out: the job line equals a
    // plain run's plus the policy_runs field.
    JobResult stripped = a;
    stripped.policy_runs.clear();
    EXPECT_EQ(farm::job_jsonl(stripped), farm::job_jsonl(plain.results[i]))
        << a.name;
    EXPECT_NE(farm::job_jsonl(a).find("\"policy_runs\":"), std::string::npos);
    // One clone for the analyzed run plus one per re-analysis replay.
    EXPECT_EQ(a.metrics[obs::Ctr::kSnapClone], 2u) << a.name;
    EXPECT_EQ(plain.results[i].metrics[obs::Ctr::kSnapClone], 1u) << a.name;
  }
  // Streams without extra policies never carry the field.
  EXPECT_EQ(farm::job_jsonl(plain.results[0]).find("policy_runs"),
            std::string::npos);
}

TEST(Farm, ColdBootReAnalysisMatchesSnapshotClones) {
  // Re-analysis replays boot from the same machine config as the analyzed
  // run. Without the shared snapshot every machine of the job boots cold;
  // the job lines, policy runs included, must not change, and no clone is
  // counted.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(3);
  std::vector<core::RuleSpec> alt = core::builtin_rules(false, true, true);

  auto fan_out = [&](bool snapshot) {
    FarmConfig cfg;
    cfg.snapshot = snapshot;
    cfg.extra_policies.push_back(farm::PolicySet{"alt", alt});
    return Farm(cfg).run(jobs);
  };
  farm::TriageReport cold = fan_out(false);
  farm::TriageReport cloned = fan_out(true);

  ASSERT_EQ(cold.results.size(), 3u);
  ASSERT_EQ(cloned.results.size(), 3u);
  for (size_t i = 0; i < cold.results.size(); ++i) {
    const JobResult& c = cold.results[i];
    ASSERT_EQ(c.status, JobStatus::kOk) << c.name << ": " << c.error;
    ASSERT_EQ(c.policy_runs.size(), 1u) << c.name;
    EXPECT_EQ(farm::job_jsonl(c), farm::job_jsonl(cloned.results[i]))
        << c.name;
    EXPECT_EQ(c.metrics[obs::Ctr::kSnapClone], 0u) << c.name;
    EXPECT_EQ(cloned.results[i].metrics[obs::Ctr::kSnapClone], 2u) << c.name;
  }
}

TEST(TriageCli, RetiredDiftModeFlagsAreRejected) {
  // Retired surfaces must fail loudly, naming the option, rather than be
  // silently accepted by a script written against the old surface: the
  // async DIFT pipeline and its trace ring, static trigger pruning, and
  // the switches for verdict-neutral execution modes (the reference test
  // above covers what they used to toggle).
  using farm::parse_triage_cli;
  const std::vector<std::vector<std::string>> retired = {
      {"--async-dift"},      {"--no-async-dift"},
      {"--sync-dift"},       {"--ring-capacity", "16"},
      {"--block-cache"},     {"--no-block-cache"},
      {"--summary-elide"},   {"--no-summary-elide"},
      {"--snapshot"},        {"--no-snapshot"},
      {"--static-prune"},    {"--no-static-prune"},
      {"--no-static-prefilter"}, {"--no-quiet"}};
  std::string usage = farm::triage_usage();
  for (const auto& argv : retired) {
    farm::TriageCliResult r = parse_triage_cli(argv);
    EXPECT_FALSE(r.ok()) << argv[0];
    EXPECT_NE(r.error.find(argv[0]), std::string::npos) << r.error;
    EXPECT_EQ(usage.find(argv[0]), std::string::npos) << argv[0];
  }
  EXPECT_EQ(usage.find("--no-"), std::string::npos);

  // faros_lint's pruning report mode is gone with the analysis behind it.
  FILE* p = popen("'" FAROS_LINT_BIN "' --policies --jobs 1 2>&1", "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char buf[256];
  while (size_t n = std::fread(buf, 1, sizeof buf, p)) out.append(buf, n);
  int status = pclose(p);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) != 0) << status;
  EXPECT_NE(out.find("unknown option '--policies'"), std::string::npos)
      << out;
}

TEST(TriageCli, FlagsParseIntoFarmConfig) {
  using farm::parse_triage_cli;

  // Defaults: the one detector configuration, static report off.
  farm::TriageCliResult def = parse_triage_cli({});
  ASSERT_TRUE(def.ok()) << def.error;
  EXPECT_TRUE(def.opts.farm.snapshot);
  EXPECT_TRUE(def.opts.farm.machine.kernel.block_cache);
  EXPECT_FALSE(def.opts.farm.static_prefilter);
  EXPECT_FALSE(def.opts.quiet);
  EXPECT_EQ(def.opts.farm.workers, 0u);

  std::vector<std::string> argv = {
      "--workers", "8", "--jobs", "20", "--filter", "jit", "--category",
      "injection", "--timeout-ms", "1234", "--budget", "99", "--out",
      "r.jsonl", "--metrics", "m.jsonl", "--graph-out", "graphs",
      "--policies", "a.json,b.json,c.json", "--static-prefilter", "--quiet",
      "--list", "--list-policies"};
  farm::TriageCliResult o = parse_triage_cli(argv);
  ASSERT_TRUE(o.ok()) << o.error;
  EXPECT_EQ(o.opts.farm.workers, 8u);
  EXPECT_EQ(o.opts.max_jobs, 20u);
  EXPECT_EQ(o.opts.filter, "jit");
  EXPECT_EQ(o.opts.category, "injection");
  EXPECT_EQ(o.opts.farm.timeout_ms, 1234u);
  EXPECT_EQ(o.opts.budget, 99u);
  EXPECT_EQ(o.opts.out_path, "r.jsonl");
  EXPECT_EQ(o.opts.metrics_path, "m.jsonl");
  EXPECT_EQ(o.opts.farm.graph_out, "graphs");
  ASSERT_EQ(o.opts.policy_paths.size(), 3u);
  EXPECT_EQ(o.opts.policy_paths[1], "b.json");
  EXPECT_TRUE(o.opts.farm.static_prefilter);
  EXPECT_TRUE(o.opts.quiet);
  EXPECT_TRUE(o.opts.list_only);
  EXPECT_TRUE(o.opts.list_policies);
  // No flag reaches the execution mode.
  EXPECT_TRUE(o.opts.farm.snapshot);
  EXPECT_TRUE(o.opts.farm.machine.kernel.block_cache);

  EXPECT_TRUE(parse_triage_cli({"--help"}).opts.help);
  EXPECT_TRUE(parse_triage_cli({"-h"}).opts.help);

  // Errors: unknown flags and missing values are reported, not swallowed.
  EXPECT_FALSE(parse_triage_cli({"--bogus"}).ok());
  EXPECT_FALSE(parse_triage_cli({"--workers"}).ok());
  EXPECT_FALSE(parse_triage_cli({"--workers", "many"}).ok());
  EXPECT_FALSE(parse_triage_cli({"--filter"}).ok());

  // The help names every flag the parser accepts.
  std::string usage = farm::triage_usage();
  for (const char* f :
       {"--workers", "--jobs", "--filter", "--category", "--timeout-ms",
        "--budget", "--out", "--metrics", "--graph-out", "--policies",
        "--static-prefilter", "--quiet", "--list", "--list-policies"}) {
    EXPECT_NE(usage.find(f), std::string::npos) << f;
  }
}

TEST(TriageCli, NumbersRejectSignsBlanksAndOverflow) {
  using farm::parse_triage_cli;
  // A numeric flag takes plain decimal digits that fit its field; anything
  // else is an error, never a silently wrapped or saturated value.
  for (const char* bad : {"-1", "+5", " 5", "5 ", "0x10", "1e3",
                          "18446744073709551616"}) {
    for (const char* flag : {"--workers", "--jobs", "--timeout-ms",
                             "--budget"}) {
      farm::TriageCliResult r = parse_triage_cli({flag, bad});
      EXPECT_FALSE(r.ok()) << flag << " '" << bad << "'";
      EXPECT_NE(r.error.find(flag), std::string::npos) << r.error;
    }
  }
  farm::TriageCliResult big =
      parse_triage_cli({"--budget", "18446744073709551615"});
  ASSERT_TRUE(big.ok()) << big.error;
  EXPECT_EQ(big.opts.budget, ~u64{0});

  // --workers lands in a u32: 2^32 must not wrap to 0 (= hardware).
  farm::TriageCliResult wrap = parse_triage_cli({"--workers", "4294967296"});
  EXPECT_FALSE(wrap.ok());
  EXPECT_NE(wrap.error.find("--workers"), std::string::npos) << wrap.error;
  farm::TriageCliResult max = parse_triage_cli({"--workers", "4294967295"});
  ASSERT_TRUE(max.ok()) << max.error;
  EXPECT_EQ(max.opts.farm.workers, 4294967295u);
}

/// A fresh, empty directory for one test's policy files.
std::string policy_dir(const std::string& test) {
  auto dir = std::filesystem::temp_directory_path() /
             ("faros_policies_" + test + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void write_file(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

TEST(TriageCli, PolicyFilesSplitIntoPrimaryAndStemLabelledExtras) {
  // The first file replaces the built-in ruleset; each further file
  // becomes a re-analysis set labelled by its file stem.
  const std::string dir = policy_dir("split");
  const auto netflow = core::builtin_rules(true, false, false);
  const auto cross = core::builtin_rules(false, true, false);
  const auto both = core::builtin_rules(true, true, true);
  write_file(dir + "/primary.json", core::ruleset_json(netflow));
  write_file(dir + "/cross.v2.json", core::ruleset_json(cross));
  write_file(dir + "/noext", core::ruleset_json(both));

  farm::TriageCliResult r = farm::parse_triage_cli(
      {"--policies",
       dir + "/primary.json," + dir + "/cross.v2.json,," + dir + "/noext"});
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.opts.policy_paths.size(), 3u) << "empty entries are skipped";
  EXPECT_EQ(farm::load_policy_files(r.opts), "");

  EXPECT_EQ(r.opts.farm.engine_opts.rules, netflow);
  ASSERT_EQ(r.opts.farm.extra_policies.size(), 2u);
  EXPECT_EQ(r.opts.farm.extra_policies[0].name, "cross.v2");
  EXPECT_EQ(r.opts.farm.extra_policies[0].rules, cross);
  EXPECT_EQ(r.opts.farm.extra_policies[1].name, "noext");
  EXPECT_EQ(r.opts.farm.extra_policies[1].rules, both);
  std::filesystem::remove_all(dir);
}

TEST(TriageCli, PolicyFileErrorsNameTheFile) {
  const std::string dir = policy_dir("errors");
  const std::string good = dir + "/good.json";
  const std::string bad = dir + "/bad.json";
  const std::string missing = dir + "/missing.json";
  write_file(good, core::ruleset_json(core::builtin_rules(true, true, false)));
  write_file(bad, R"({"rules":[{"id":"x","trigger":"no_such_trigger"}]})");

  farm::TriageCliOptions unreadable;
  unreadable.policy_paths = {good, missing};
  EXPECT_EQ(farm::load_policy_files(unreadable),
            "cannot open '" + missing + "'");

  farm::TriageCliOptions malformed;
  malformed.policy_paths = {bad, good};
  std::string err = farm::load_policy_files(malformed);
  EXPECT_EQ(err.rfind(bad + ": ", 0), 0u) << err;
  EXPECT_TRUE(malformed.farm.engine_opts.rules.empty())
      << "a rejected file must not replace the built-ins";
  std::filesystem::remove_all(dir);
}

TEST(FarmResults, JsonlIsWellFormedAndEscaped) {
  JobResult r;
  r.id = 7;
  r.name = "weird \"name\"\twith\nescapes";
  r.category = "test";
  r.status = JobStatus::kOk;
  r.flagged = true;
  r.policies = {"netflow->exec"};
  std::string line = farm::job_jsonl(r);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\\\"name\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\"verdict\":\"FP\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record, one line

  farm::FarmMetrics m;
  m.jobs = 3;
  std::string s = farm::summary_jsonl(m);
  EXPECT_NE(s.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(s.find("\"jobs\":3"), std::string::npos);
}

}  // namespace
}  // namespace faros
