#include "farm/triage_cli.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "core/rules.h"

namespace faros::farm {

namespace {

/// Decimal digits only: strtoull alone would take a sign ("-1" wraps to
/// 2^64-1) or leading blanks, and saturates silently on overflow.
bool parse_u64(const std::string& s, u64* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// "dir/cross_proc.json" → "cross_proc" — the PolicySet label carried into
/// every JobResult::PolicyRun and the policy_runs JSONL field.
std::string path_stem(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  size_t base = slash == std::string::npos ? 0 : slash + 1;
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot <= base) dot = path.size();
  return path.substr(base, dot - base);
}

}  // namespace

TriageCliResult parse_triage_cli(const std::vector<std::string>& args) {
  TriageCliResult r;
  TriageCliOptions& o = r.opts;
  if (const char* env = std::getenv("FAROS_METRICS_JSON")) {
    o.metrics_path = env;
  }

  u64 workers = 0;
  for (size_t i = 0; i < args.size() && r.ok(); ++i) {
    const std::string& arg = args[i];
    auto next_str = [&](std::string* out) {
      if (i + 1 >= args.size()) {
        r.error = arg + " needs a value";
        return;
      }
      *out = args[++i];
    };
    auto next_u64 = [&](u64* out) {
      if (i + 1 >= args.size() || !parse_u64(args[i + 1], out)) {
        r.error = arg + " needs a number";
        return;
      }
      ++i;
    };

    if (arg == "--help" || arg == "-h") { o.help = true; continue; }
    if (arg == "--list") { o.list_only = true; continue; }
    if (arg == "--list-policies") { o.list_policies = true; continue; }
    if (arg == "--workers") {
      next_u64(&workers);
      if (r.ok() && workers > UINT32_MAX) r.error = arg + " out of range";
      continue;
    }
    if (arg == "--jobs") { next_u64(&o.max_jobs); continue; }
    if (arg == "--timeout-ms") { next_u64(&o.farm.timeout_ms); continue; }
    if (arg == "--budget") { next_u64(&o.budget); continue; }
    if (arg == "--filter") { next_str(&o.filter); continue; }
    if (arg == "--category") { next_str(&o.category); continue; }
    if (arg == "--out") { next_str(&o.out_path); continue; }
    if (arg == "--metrics") { next_str(&o.metrics_path); continue; }
    if (arg == "--graph-out") { next_str(&o.farm.graph_out); continue; }
    if (arg == "--static-prefilter") {
      o.farm.static_prefilter = true;
      continue;
    }
    if (arg == "--quiet") { o.quiet = true; continue; }
    if (arg == "--policies") {
      std::string csv;
      next_str(&csv);
      if (r.ok()) o.policy_paths = split_csv(csv);
      continue;
    }
    r.error = "unknown option '" + arg + "'";
  }
  if (r.ok()) o.farm.workers = static_cast<u32>(workers);
  return r;
}

std::string triage_usage() {
  return
      "usage: faros_triage [options]\n"
      "\n"
      "corpus selection:\n"
      "  --jobs N         run at most N jobs (default: all)\n"
      "  --filter STR     only jobs whose name contains STR\n"
      "  --category STR   only jobs in this category\n"
      "                   (injection | jit | malware | benign | policy)\n"
      "  --list           print the job catalogue and exit\n"
      "\n"
      "execution:\n"
      "  --workers N      worker threads (default: hardware)\n"
      "  --timeout-ms N   per-job wall-clock deadline (default 60000;\n"
      "                   0 = none)\n"
      "  --budget N       per-job instruction budget override\n"
      "\n"
      "policies:\n"
      "  --policies A[,B,...]\n"
      "                   load confluence rulesets from JSON policy files.\n"
      "                   The first replaces the built-ins; each further\n"
      "                   file re-analyzes the job by replaying its\n"
      "                   recording (one verdict per set in the\n"
      "                   policy_runs JSONL field). Also adds the\n"
      "                   policy-corpus jobs.\n"
      "  --list-policies  print the effective primary ruleset as\n"
      "                   policy-file JSON and exit\n"
      "\n"
      "output:\n"
      "  --out PATH       write JSONL records + summary to PATH\n"
      "  --metrics PATH   write per-job obs counter JSONL to PATH\n"
      "                   (or set FAROS_METRICS_JSON)\n"
      "  --graph-out DIR  write one provenance-graph artifact per job to\n"
      "                   DIR/<job>.fpg (src/graph format; byte-identical\n"
      "                   for any --workers)\n"
      "  --quiet          suppress the per-job console lines\n"
      "\n"
      "static analysis:\n"
      "  --static-prefilter\n"
      "                   run the zero-execution static analyzer (src/sa)\n"
      "                   per job and score it next to the dynamic\n"
      "                   verdicts (which it never changes)\n";
}

std::string load_policy_files(TriageCliOptions& o) {
  for (size_t i = 0; i < o.policy_paths.size(); ++i) {
    const std::string& path = o.policy_paths[i];
    FILE* pf = std::fopen(path.c_str(), "rb");
    if (!pf) return "cannot open '" + path + "'";
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pf)) > 0) text.append(buf, n);
    std::fclose(pf);
    auto rules = core::parse_ruleset_json(text);
    if (!rules.ok()) return path + ": " + rules.error().message;
    if (i == 0) {
      o.farm.engine_opts.rules = std::move(rules).take();
    } else {
      o.farm.extra_policies.push_back(
          PolicySet{path_stem(path), std::move(rules).take()});
    }
  }
  return "";
}

}  // namespace faros::farm
