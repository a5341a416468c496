#include "walk.h"

#include <algorithm>
#include <memory>

#include "graph/graph.h"
#include "graph/slice.h"
#include "sa/analyzer.h"

namespace perfbench {

namespace fc = faros::core;
namespace ff = faros::farm;
namespace fo = faros::os;

namespace {

Verdict verdict_of(const fc::FarosEngine& e) {
  Verdict v;
  v.flagged = e.flagged();
  v.findings = static_cast<u32>(e.findings().size());
  for (const auto& f : e.findings()) v.policies.push_back(f.policy);
  std::sort(v.policies.begin(), v.policies.end());
  v.policies.erase(std::unique(v.policies.begin(), v.policies.end()),
                   v.policies.end());
  return v;
}

}  // namespace

std::vector<Verdict> verdicts_of(const ff::JobResult& r) {
  std::vector<Verdict> out;
  out.push_back({r.flagged, r.findings, r.policies});
  for (const auto& pr : r.policy_runs) {
    out.push_back({pr.flagged, pr.findings, pr.policies});
  }
  return out;
}

WalkResult walk_job(const WalkContext& ctx, const ff::JobSpec& spec,
                    Tracer& t, u64 parent, u32 job, u32 thread) {
  WalkResult out;
  const Workload& w = *ctx.workload;
  Span walk(t, "walk", parent, job, thread);
  const u64 p = walk.id();

  std::unique_ptr<faros::attacks::Scenario> sc;
  {
    Span s(t, "attacks.make_scenario", p, job, thread);
    sc = spec.make();
  }
  const u64 budget = sc->budget();

  fc::Options eopts = ctx.engine;
  {
    std::vector<fo::Image> images;
    {
      Span s(t, "attacks.extract_images", p, job, thread);
      auto extracted = faros::attacks::extract_images(*sc, ctx.machine);
      if (extracted.ok()) {
        for (auto& e : std::move(extracted).take()) {
          images.push_back(std::move(e.image));
        }
      }
    }
    Span s(t, "sa.analyze_images", p, job, thread);
    faros::sa::ProgramReport rep =
        faros::sa::analyze_images(spec.name, images, {});
    for (const auto& ir : rep.per_image) {
      for (const auto& h : ir.elide_hints) {
        eopts.elide_hints[h.va].emplace_back(h.insns, h.hash);
      }
    }
  }

  // Record: the live run with no engine attached.
  fo::Machine rec(ctx.machine);
  std::unique_ptr<fo::EventSource> source;
  {
    Span s(t, "os.boot", p, job, thread);
    if (auto b = rec.boot(); !b.ok()) {
      out.error = "boot: " + b.error().message;
      return out;
    }
  }
  {
    Span s(t, "attacks.setup", p, job, thread);
    source = sc->make_source();
    if (source) rec.set_event_source(source.get());
    if (auto r = sc->setup(rec); !r.ok()) {
      out.error = "setup: " + r.error().message;
      return out;
    }
  }
  {
    Span s(t, "os.run_bare", p, job, thread);
    out.record_insns = rec.run(budget).instructions;
  }

  // One replay of the recording under an engine with `opts`; the machine
  // is declared before the engine so the engine is torn down first.
  auto replay = [&](fo::Machine& m, fc::FarosEngine& e, u64 parent_id,
                    const char* run_name, u64* insns) -> bool {
    m.attach_cpu_plugin(&e);
    m.add_monitor(&e);
    {
      Span s(t, "os.boot", parent_id, job, thread);
      if (auto b = m.boot(); !b.ok()) {
        out.error = "replay boot: " + b.error().message;
        return false;
      }
    }
    {
      Span s(t, "attacks.setup", parent_id, job, thread);
      if (auto r = sc->setup(m); !r.ok()) {
        out.error = "replay setup: " + r.error().message;
        return false;
      }
    }
    Span s(t, run_name, parent_id, job, thread);
    m.load_replay(rec.recording());
    u64 n = m.run(budget).instructions;
    if (insns) *insns = n;
    return true;
  };

  fo::Machine rep(ctx.machine);
  fc::FarosEngine engine(rep.kernel(), eopts);
  if (!replay(rep, engine, p, "core.run_engine", &out.replay_insns)) {
    return out;
  }
  out.verdicts.push_back(verdict_of(engine));
  out.engine_metrics = engine.metrics_snapshot();

  for (const ff::PolicySet& ps : w.extra_sets) {
    Span s(t, "core.extra_policy", p, job, thread);
    fc::Options o = eopts;
    o.rules = ps.rules;
    o.collect_metrics = false;
    fo::Machine m(ctx.machine);
    fc::FarosEngine e(m.kernel(), o);
    if (!replay(m, e, s.id(), "core.run_extra_engine", nullptr)) return out;
    out.verdicts.push_back(verdict_of(e));
  }

  faros::graph::ProvGraph pg;
  {
    Span s(t, "graph.build_graph", p, job, thread);
    pg = faros::graph::build_graph(engine, rep.kernel());
  }
  {
    Span s(t, "graph.serialize", p, job, thread);
    out.graph_bytes = faros::graph::serialize(pg).size();
  }
  {
    Span s(t, "graph.slice", p, job, thread);
    const auto findings = pg.count(faros::graph::NodeType::kFinding);
    for (u32 i = 0; i < findings; ++i) {
      auto id = pg.node_id(faros::graph::NodeType::kFinding, i);
      if (!id) continue;
      auto sl = faros::graph::slice(pg, *id, {});
      ++out.findings_sliced;
      if (sl.sources.empty()) ++out.slices_without_source;
    }
  }
  return out;
}

}  // namespace perfbench
