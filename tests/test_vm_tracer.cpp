// src/vm/tracer.cpp: the execution tracer's deterministic-replay property
// (two replays of one recording see byte-identical event streams), plugin
// chaining, and the recording a live analyzed run leaves behind.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/engine.h"
#include "os/machine.h"
#include "vm/tracer.h"

namespace faros {
namespace {

using vm::Tracer;

// --- Tracer: deterministic replay -----------------------------------------

bool same_entry(const Tracer::Entry& a, const Tracer::Entry& b) {
  return a.instr_index == b.instr_index && a.cr3 == b.cr3 && a.pc == b.pc &&
         a.insn.op == b.insn.op && a.insn.rd == b.insn.rd &&
         a.insn.rs1 == b.insn.rs1 && a.insn.rs2 == b.insn.rs2 &&
         a.insn.imm == b.insn.imm && a.has_mem == b.has_mem &&
         a.mem_va == b.mem_va && a.mem_write == b.mem_write;
}

TEST(TracerReplay, TwoReplaysOfOneRecordingSeeIdenticalStreams) {
  attacks::HollowingScenario sc;
  auto run = attacks::record_run(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;

  Tracer t1, t2;
  auto r1 = attacks::replay_run(sc, run.value().log, &t1, {});
  auto r2 = attacks::replay_run(sc, run.value().log, &t2, {});
  ASSERT_TRUE(r1.ok()) << r1.error().message;
  ASSERT_TRUE(r2.ok()) << r2.error().message;

  // The whole-stream summary must match exactly...
  EXPECT_GT(t1.total(), 0u);
  EXPECT_EQ(t1.total(), t2.total());
  EXPECT_EQ(t1.blocks(), t2.blocks());
  EXPECT_EQ(r1.value().stats.instructions, r2.value().stats.instructions);
  for (const auto& e : t1.entries()) {
    EXPECT_EQ(t1.count_for(e.cr3), t2.count_for(e.cr3));
  }
  // ...and so must every retained ring entry, field for field.
  ASSERT_EQ(t1.entries().size(), t2.entries().size());
  for (size_t i = 0; i < t1.entries().size(); ++i) {
    EXPECT_TRUE(same_entry(t1.entries()[i], t2.entries()[i])) << "entry " << i;
  }
}

TEST(TracerReplay, ChainedDownstreamSeesTheSameStream) {
  attacks::HollowingScenario sc;
  auto run = attacks::record_run(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;

  Tracer upstream, downstream;
  upstream.chain(&downstream);
  auto r = attacks::replay_run(sc, run.value().log, &upstream, {});
  ASSERT_TRUE(r.ok()) << r.error().message;

  EXPECT_EQ(upstream.total(), downstream.total());
  EXPECT_EQ(upstream.blocks(), downstream.blocks());
  ASSERT_EQ(upstream.entries().size(), downstream.entries().size());
  for (size_t i = 0; i < upstream.entries().size(); ++i) {
    EXPECT_TRUE(same_entry(upstream.entries()[i], downstream.entries()[i]));
  }
}

TEST(TracerReplay, CapacityBoundsRingAndDumpDisassembles) {
  attacks::HollowingScenario sc;
  auto run = attacks::record_run(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;

  Tracer t(64);
  auto r = attacks::replay_run(sc, run.value().log, &t, {});
  ASSERT_TRUE(r.ok()) << r.error().message;

  EXPECT_LE(t.entries().size(), 64u);
  EXPECT_GT(t.total(), t.entries().size());  // ring evicted older entries
  // Surviving entries are the most recent ones, in retirement order.
  for (size_t i = 1; i < t.entries().size(); ++i) {
    EXPECT_GT(t.entries()[i].instr_index, t.entries()[i - 1].instr_index);
  }
  EXPECT_FALSE(t.dump(8).empty());

  t.clear();
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.blocks(), 0u);
  EXPECT_TRUE(t.entries().empty());
}

TEST(TracerReplay, LiveAnalyzedRunRecordingReplaysIdentically) {
  // The farm analyzes a job on the live machine and keeps the recording
  // for re-analysis. The engine riding along must not perturb the run:
  // a bare replay of that recording sees the live run's stream, and a
  // fresh engine on the replay reaches the live engine's state.
  attacks::HollowingScenario sc;
  os::Machine m;
  core::FarosEngine live_engine(m.kernel(), {});
  Tracer live;
  live.chain(&live_engine);
  m.attach_cpu_plugin(&live);
  m.add_monitor(&live_engine);
  ASSERT_TRUE(m.boot().ok());
  auto source = sc.make_source();
  if (source) m.set_event_source(source.get());
  ASSERT_TRUE(sc.setup(m).ok());
  os::RunStats live_stats = m.run(sc.budget());
  ASSERT_TRUE(live_engine.flagged());

  Tracer replayed;
  auto r = attacks::replay_run(sc, m.recording(), &replayed, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().stats.instructions, live_stats.instructions);
  EXPECT_EQ(replayed.total(), live.total());
  EXPECT_EQ(replayed.blocks(), live.blocks());
  ASSERT_EQ(replayed.entries().size(), live.entries().size());
  for (size_t i = 0; i < live.entries().size(); ++i) {
    EXPECT_TRUE(same_entry(replayed.entries()[i], live.entries()[i]))
        << "entry " << i;
  }

  os::Machine m2;
  core::FarosEngine replay_engine(m2.kernel(), {});
  m2.attach_cpu_plugin(&replay_engine);
  m2.add_monitor(&replay_engine);
  ASSERT_TRUE(m2.boot().ok());
  ASSERT_TRUE(sc.setup(m2).ok());
  m2.load_replay(m.recording());
  EXPECT_EQ(m2.run(sc.budget()).instructions, live_stats.instructions);
  EXPECT_EQ(replay_engine.flagged(), live_engine.flagged());
  EXPECT_EQ(replay_engine.findings().size(), live_engine.findings().size());
  EXPECT_EQ(replay_engine.store().size(), live_engine.store().size());
}

}  // namespace
}  // namespace faros
