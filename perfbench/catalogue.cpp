#include "catalogue.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/rules.h"

namespace perfbench {

namespace fa = faros::attacks;
namespace ff = faros::farm;

namespace {

faros::Result<std::vector<faros::core::RuleSpec>> load_rules(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return faros::Err<std::vector<faros::core::RuleSpec>>("cannot open " +
                                                          path);
  }
  std::stringstream text;
  text << in.rdbuf();
  return faros::core::parse_ruleset_json(text.str());
}

void append(std::vector<fa::CorpusEntry>& out,
            std::vector<fa::CorpusEntry> more) {
  for (auto& e : more) out.push_back(std::move(e));
}

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "triage_corpus", "injection_dift", "analyst_fanout"};
  return names;
}

faros::Result<Workload> make_workload(const std::string& name, u32 nproc) {
  Workload w;
  w.name = name;
  if (name == "triage_corpus") {
    // Half the cores: each job in flight also runs a DIFT consumer thread.
    w.workers = std::max(1u, nproc / 2);
    w.tail_pct = 99;
    w.entries = fa::full_corpus();
  } else if (name == "injection_dift") {
    w.entries = fa::injection_corpus();
  } else if (name == "analyst_fanout") {
    w.entries = fa::injection_corpus();
    append(w.entries, fa::policy_corpus());
    auto primary = load_rules("policies/multistage.json");
    if (!primary.ok()) return faros::Err<Workload>(primary.error().message);
    auto extra = load_rules("policies/default.json");
    if (!extra.ok()) return faros::Err<Workload>(extra.error().message);
    w.primary_rules = std::move(primary).take();
    w.extra_sets.push_back(ff::PolicySet{"default", std::move(extra).take()});
    w.graphs = true;
  } else {
    return faros::Err<Workload>("unknown workload '" + name + "'");
  }
  for (const auto& e : w.entries) {
    std::vector<bool> ex{e.expect_flagged};
    // The default set holds the paper's two confluence rules: it flags
    // the injections and leaves the multi-netflow C2 stager clean.
    for (size_t i = 0; i < w.extra_sets.size(); ++i) {
      ex.push_back(e.category == "injection");
    }
    w.expect.push_back(std::move(ex));
  }
  return w;
}

std::vector<u32> pass_order(size_t n, u64 seed, u32 pass) {
  std::vector<u32> order(n);
  for (u32 i = 0; i < n; ++i) order[i] = i;
  u64 state = seed * 0x2545f4914f6cdd1dull + pass;
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(splitmix64(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::string job_name(const Workload& w, u32 pass, u32 entry) {
  return "p" + std::to_string(pass) + "-" + w.entries[entry].name;
}

ff::JobSpec make_job(const Workload& w, u32 pass, u32 entry) {
  const fa::CorpusEntry& e = w.entries[entry];
  ff::JobSpec spec;
  spec.name = job_name(w, pass, entry);
  spec.category = e.category;
  spec.expect_flagged = w.expect[entry][0];
  spec.make = e.make;
  return spec;
}

std::vector<ff::JobSpec> build_passes(const Workload& w, u64 seed, u32 first,
                                      u32 passes, std::vector<u32>* entry_of) {
  std::vector<ff::JobSpec> jobs;
  jobs.reserve(static_cast<size_t>(passes) * w.entries.size());
  entry_of->clear();
  for (u32 p = first; p < first + passes; ++p) {
    for (u32 e : pass_order(w.entries.size(), seed, p)) {
      jobs.push_back(make_job(w, p, e));
      entry_of->push_back(e);
    }
  }
  return jobs;
}

u32 thread_budget(u32 workers, u32 policy_sets) {
  return workers * (1 + policy_sets);
}

bool thread_budget_ok(u32 workers, u32 policy_sets, u32 nproc) {
  return thread_budget(workers, policy_sets) <= nproc;
}

double repeat_frac(const std::vector<u32>& entry_of) {
  if (entry_of.empty()) return 0;
  std::vector<bool> seen;
  size_t repeats = 0;
  for (u32 e : entry_of) {
    if (e >= seen.size()) seen.resize(e + 1, false);
    if (seen[e]) ++repeats;
    seen[e] = true;
  }
  return static_cast<double>(repeats) / static_cast<double>(entry_of.size());
}

}  // namespace perfbench
