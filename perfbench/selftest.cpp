// Self-test of the benchmark's own code: the order statistics, the
// tail-support rule, seed determinism, job naming and the thread budget.
// Run with `faros_perfbench --self-test`; exits non-zero on any failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "catalogue.h"
#include "stats.h"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool near3(const std::array<double, 3>& q, double a, double b, double c) {
  return near(q[0], a) && near(q[1], b) && near(q[2], c);
}

void test_order_statistics() {
  // Expected values are Python's statistics.median / quantiles(n=4).
  check(near(median({1, 2, 3, 4}), 2.5), "median of even count");
  check(near(median({5, 1, 4, 2, 3}), 3), "median of odd count");
  check(near3(quartiles({1, 2, 3, 4}), 1.25, 2.5, 3.75), "quartiles 1..4");
  check(near3(quartiles({5, 1, 4, 2, 3}), 1.5, 3.0, 4.5), "quartiles 1..5");
  check(near3(quartiles({1.5, 2.5}), 1.25, 2.0, 2.75), "quartiles of two");
  check(near3(quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 7}), 20,
              50, 80),
        "quartiles of eleven");
}

void test_tail_support() {
  check(min_samples(99) == 1000, "p99 needs 1000 samples");
  check(min_samples(90) == 100, "p90 needs 100 samples");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Percentile p = percentile(v, 99);
  check(p.value == 990 && p.beyond == 10, "p99 of 1..1000 leaves ten beyond");
  v.pop_back();
  check(percentile(v, 99).beyond < kTailSupport, "999 samples are too few");
  std::reverse(v.begin(), v.end());
  check(percentile(v, 50).value == 500, "percentile sorts its input");
  check(percentile({}, 90).beyond == 0, "empty percentile");
}

void test_seed_and_names() {
  auto w = make_workload("triage_corpus", 4);
  check(w.ok(), "triage workload builds");
  if (!w.ok()) return;
  const Workload& wl = w.value();
  const size_t n = wl.entries.size();
  check(n == 135, "triage catalogue has 135 jobs");

  auto a = pass_order(n, 7, 3);
  check(a == pass_order(n, 7, 3), "same seed, same order");
  check(a != pass_order(n, 8, 3), "another seed, another order");
  check(a != pass_order(n, 7, 4), "another pass, another order");
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  bool perm = true;
  for (u32 i = 0; i < n; ++i) perm = perm && sorted[i] == i;
  check(perm, "pass order is a permutation");

  std::vector<u32> entry_of;
  auto jobs = build_passes(wl, 7, 1, 3, &entry_of);
  check(jobs.size() == 3 * n && entry_of.size() == jobs.size(),
        "three passes of jobs");
  std::set<std::string> names;
  for (const auto& j : jobs) names.insert(j.name);
  check(names.size() == jobs.size(), "job names unique across passes");
  bool match = true;
  for (size_t i = 0; i < jobs.size(); ++i) {
    match = match && jobs[i].name == job_name(wl, 1 + static_cast<u32>(i / n),
                                              entry_of[i]);
  }
  check(match, "entry_of names each job's entry");
  check(near(repeat_frac(entry_of), 2.0 / 3.0), "repeat share of 3 passes");
  check(near(repeat_frac({0, 1, 2}), 0), "no repeats in one pass");
}

void test_thread_budget() {
  check(thread_budget(2, 1) == 4, "two workers, one policy set");
  check(thread_budget_ok(2, 1, 4), "fits four cores");
  check(!thread_budget_ok(2, 1, 3), "does not fit three cores");
  check(thread_budget(1, 2) == 3, "one worker, two policy sets");
  auto t = make_workload("triage_corpus", 4);
  check(t.ok() && t.value().workers == 2, "triage uses nproc/2 workers");
  auto one = make_workload("triage_corpus", 1);
  check(one.ok() && one.value().workers == 1, "at least one worker");
  check(!make_workload("no_such_workload", 4).ok(), "unknown workload");
}

}  // namespace

int run_self_test() {
  test_order_statistics();
  test_tail_support();
  test_seed_and_names();
  test_thread_budget();
  if (g_failures) return 1;
  std::printf("self-test: ok\n");
  return 0;
}

}  // namespace perfbench
