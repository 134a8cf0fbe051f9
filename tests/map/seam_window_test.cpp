// The seam check's window rule against the reference enumeration.
//
// map::distributed_latency tries only window 0 and one past every start
// of a root op's element on its assigned processor; the test-side
// reference_distributed_latency tries 0, one past every op start on
// every processor and one past every busy link tick, with linear scans.
// Every case here must agree on the latency, the worst-window witness
// and failure. The corpus index 29 pins (values from the broad
// enumeration) hold the deployment and migration table of the instance
// whose unit bus makes every tick a reference candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "map/deploy.hpp"
#include "map/fault_tolerance.hpp"
#include "map/verify.hpp"
#include "seam_reference.hpp"
#include "sim/rng.hpp"
#include "spec/compile.hpp"

namespace rtg::map {
namespace {

using core::StaticSchedule;
using core::TaskGraph;

// A schedule from (element, duration) runs; kIdleEntry marks idle runs.
StaticSchedule schedule(const std::vector<std::pair<ElementId, Time>>& runs) {
  StaticSchedule s;
  for (const auto& [e, d] : runs) {
    if (e == core::kIdleEntry) {
      s.push_idle(d);
    } else {
      s.push_execution(e, d);
    }
  }
  return s;
}

struct HandSlot {
  ElementId from = 0;
  ElementId to = 0;
  std::size_t link = 0;
  Time offset = 0;
  Time duration = 1;
};

// Link tables with the given cycles carrying the given message slots.
CommSchedule tables(const std::vector<Time>& cycles, const std::vector<HandSlot>& slots,
                    const std::vector<ProcId>& assignment) {
  CommSchedule comm;
  for (std::size_t l = 0; l < cycles.size(); ++l) {
    LinkSchedule table;
    table.link = l;
    table.cycle = cycles[l];
    comm.links.push_back(table);
  }
  for (const HandSlot& s : slots) {
    Message m;
    m.from = s.from;
    m.to = s.to;
    m.src = assignment.at(s.from);
    m.dst = assignment.at(s.to);
    m.link = s.link;
    m.slots = s.duration;
    comm.slot_of.emplace_back(s.link, comm.links[s.link].slots.size());
    comm.links[s.link].slots.push_back(
        SlotAssignment{comm.messages.size(), s.offset, s.duration});
    comm.messages.push_back(m);
  }
  return comm;
}

TaskGraph graph(const std::vector<ElementId>& labels,
                const std::vector<std::pair<core::OpId, core::OpId>>& deps) {
  TaskGraph tg;
  for (ElementId e : labels) tg.add_op(e);
  for (const auto& [u, v] : deps) tg.add_dep(u, v);
  return tg;
}

// Production vs reference on latency, witness and failure; returns the
// production latency.
std::optional<Time> expect_agree(const TaskGraph& tg,
                                 const std::vector<StaticSchedule>& schedules,
                                 const std::vector<ProcId>& assignment,
                                 const CommSchedule& comm, const std::string& what) {
  GlobalWitness got;
  GlobalWitness want;
  SeamOptions options;
  options.witness = &got;
  const auto latency = distributed_latency(tg, schedules, assignment, comm, options);
  const auto reference =
      reference_distributed_latency(tg, schedules, assignment, comm, &want);
  EXPECT_EQ(latency, reference) << what;
  if (latency && reference) {
    EXPECT_EQ(got, want) << what;
    EXPECT_EQ(check_witness(tg, schedules, assignment, comm, got), std::nullopt) << what;
  }
  for (const std::size_t threads : {2u, 4u}) {
    GlobalWitness threaded;
    SeamOptions t = options;
    t.n_threads = threads;
    t.witness = &threaded;
    EXPECT_EQ(distributed_latency(tg, schedules, assignment, comm, t), latency) << what;
    if (latency) {
      EXPECT_EQ(threaded, got) << what << " threads " << threads;
    }
  }
  return latency;
}

constexpr ElementId kIdle = core::kIdleEntry;

TEST(SeamWindows, UnitBusBusyEveryTickUnderCoprimeCycles) {
  // Elements 0,1 on processor 0 (length 7), 2,3 on processor 1
  // (length 5); one bus with a unit cycle carrying 0->2, so every tick
  // is busy and the reference tries all 35 ticks.
  const std::vector<ProcId> assignment{0, 0, 1, 1};
  const std::vector<StaticSchedule> schedules{
      schedule({{0, 2}, {kIdle, 1}, {1, 1}, {kIdle, 3}}),
      schedule({{2, 1}, {kIdle, 2}, {3, 1}, {kIdle, 1}})};
  const CommSchedule comm = tables({1}, {{0, 2, 0, 0, 1}}, assignment);
  std::size_t windows = 0;
  ASSERT_EQ(reference_distributed_latency(graph({0, 2}, {{0, 1}}), schedules, assignment,
                                          comm, nullptr, &windows)
                .has_value(),
            true);
  EXPECT_EQ(windows, 35u);

  EXPECT_TRUE(expect_agree(graph({0, 2}, {{0, 1}}), schedules, assignment, comm, "chain"));
  EXPECT_TRUE(expect_agree(graph({0, 2, 3}, {{0, 1}, {1, 2}}), schedules, assignment, comm,
                           "chain of three"));
  EXPECT_TRUE(expect_agree(graph({1, 0, 2}, {{0, 1}, {1, 2}}), schedules, assignment, comm,
                           "local then crossing"));

  SeamStats stats;
  SeamOptions options;
  options.stats = &stats;
  (void)distributed_latency(graph({0, 2}, {{0, 1}}), schedules, assignment, comm, options);
  // Element 0 starts at 0 on a 7-slot processor: windows {0, 1, 8, 15, 22, 29}.
  EXPECT_EQ(stats.windows, 6u);
}

TEST(SeamWindows, SingleOpConstraints) {
  const std::vector<ProcId> assignment{0, 1, 1};
  const std::vector<StaticSchedule> schedules{
      schedule({{0, 1}, {kIdle, 3}}), schedule({{1, 2}, {kIdle, 1}, {2, 1}, {kIdle, 2}})};
  const CommSchedule comm = tables({1}, {{0, 1, 0, 0, 1}}, assignment);
  EXPECT_EQ(expect_agree(graph({0}, {}), schedules, assignment, comm, "op 0"), 4);
  EXPECT_EQ(expect_agree(graph({1}, {}), schedules, assignment, comm, "op 1"), 7);
  EXPECT_EQ(expect_agree(graph({2}, {}), schedules, assignment, comm, "op 2"), 6);
}

TEST(SeamWindows, RootsOnTwoProcessors) {
  // Roots 0 (processor 0) and 2 (processor 1) join at 3 on processor 1,
  // and 3 feeds 1 back on processor 0; two links with different cycles.
  const std::vector<ProcId> assignment{0, 0, 1, 1};
  const std::vector<StaticSchedule> schedules{
      schedule({{0, 1}, {kIdle, 2}, {1, 2}, {kIdle, 1}}),
      schedule({{2, 1}, {3, 2}, {kIdle, 2}, {2, 1}, {kIdle, 3}})};
  const CommSchedule comm =
      tables({3, 2}, {{0, 3, 0, 1, 2}, {3, 1, 1, 0, 1}}, assignment);
  EXPECT_TRUE(expect_agree(graph({0, 2, 3}, {{0, 2}, {1, 2}}), schedules, assignment, comm,
                           "join"));
  EXPECT_TRUE(expect_agree(graph({0, 2, 3, 1}, {{0, 2}, {1, 2}, {2, 3}}), schedules,
                           assignment, comm, "join and return"));
  EXPECT_TRUE(expect_agree(graph({2, 0}, {}), schedules, assignment, comm,
                           "two independent roots"));
}

TEST(SeamWindows, RepeatedLabels) {
  // Element 0 labels a root and a later op; element 1 labels two roots.
  const std::vector<ProcId> assignment{0, 1, 0};
  const std::vector<StaticSchedule> schedules{
      schedule({{0, 1}, {kIdle, 1}, {2, 1}, {0, 1}, {kIdle, 2}}),
      schedule({{1, 2}, {kIdle, 1}, {1, 1}, {kIdle, 1}})};
  const CommSchedule comm =
      tables({3}, {{0, 1, 0, 0, 1}, {1, 0, 0, 1, 1}, {1, 2, 0, 2, 1}}, assignment);
  EXPECT_TRUE(expect_agree(graph({0, 1, 0}, {{0, 1}, {1, 2}}), schedules, assignment, comm,
                           "0 -> 1 -> 0"));
  EXPECT_TRUE(expect_agree(graph({1, 1, 2, 0}, {{0, 2}, {1, 3}}), schedules, assignment,
                           comm, "two roots labelled 1"));
}

TEST(SeamWindows, UnroutableCrossingFails) {
  const std::vector<ProcId> assignment{0, 1};
  const std::vector<StaticSchedule> schedules{schedule({{0, 1}, {kIdle, 2}}),
                                              schedule({{1, 1}, {kIdle, 1}})};
  const CommSchedule none = tables({1}, {}, assignment);
  EXPECT_EQ(expect_agree(graph({0, 1}, {{0, 1}}), schedules, assignment, none, "no message"),
            std::nullopt);
  // A root whose element never runs on its processor fails the same way.
  const std::vector<StaticSchedule> missing{schedule({{kIdle, 3}}),
                                            schedule({{1, 1}, {kIdle, 1}})};
  const CommSchedule comm = tables({1}, {{0, 1, 0, 0, 1}}, assignment);
  EXPECT_EQ(expect_agree(graph({0, 1}, {{0, 1}}), missing, assignment, comm, "no execution"),
            std::nullopt);
}

TEST(SeamWindows, RandomInstancesMatchTheReference) {
  // Small random platforms: 2-3 processors, 4-6 elements, random
  // schedules with idle gaps, 1-2 links with random slot tables (most
  // crossing channels routed, slack left in some cycles), and random
  // DAGs whose labels may repeat.
  sim::Rng rng(0x5ea3);
  std::size_t finite = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t procs = static_cast<std::size_t>(rng.uniform(2, 3));
    const std::size_t elements = static_cast<std::size_t>(rng.uniform(4, 6));
    std::vector<ProcId> assignment(elements);
    for (ProcId& p : assignment) {
      p = static_cast<ProcId>(rng.uniform(0, static_cast<std::int64_t>(procs) - 1));
    }
    // Every assigned element runs at least once on its processor, in a
    // random order, with random repeats and idle gaps.
    std::vector<StaticSchedule> schedules(procs);
    for (std::size_t p = 0; p < procs; ++p) {
      for (ElementId e = 0; e < elements; ++e) {
        if (assignment[e] != p) continue;
        const int runs = static_cast<int>(rng.uniform(1, 2));
        for (int r = 0; r < runs; ++r) {
          schedules[p].push_execution(e, rng.uniform(1, 2));
          if (rng.chance(0.5)) schedules[p].push_idle(rng.uniform(1, 3));
        }
      }
      if (schedules[p].length() == 0) schedules[p].push_idle(1);
    }
    const std::size_t links = static_cast<std::size_t>(rng.uniform(1, 2));
    std::vector<Time> cycles(links, 0);
    std::vector<HandSlot> slots;
    for (ElementId from = 0; from < elements; ++from) {
      for (ElementId to = 0; to < elements; ++to) {
        if (assignment[from] == assignment[to] || !rng.chance(0.8)) continue;
        const auto l = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(links) - 1));
        const Time d = rng.uniform(1, 2);
        slots.push_back(HandSlot{from, to, l, cycles[l], d});
        cycles[l] += d;
      }
    }
    for (std::size_t l = 0; l < links; ++l) {
      cycles[l] = std::max<Time>(cycles[l] + rng.uniform(0, 2), 1);
    }
    const CommSchedule comm = tables(cycles, slots, assignment);

    const std::size_t ops = static_cast<std::size_t>(rng.uniform(1, 5));
    TaskGraph tg;
    for (std::size_t i = 0; i < ops; ++i) {
      tg.add_op(static_cast<ElementId>(
          rng.uniform(0, static_cast<std::int64_t>(elements) - 1)));
    }
    for (core::OpId v = 1; v < ops; ++v) {
      for (core::OpId u = 0; u < v; ++u) {
        if (rng.chance(0.4)) tg.add_dep(u, v);
      }
    }
    if (expect_agree(tg, schedules, assignment, comm, "round " + std::to_string(round))) {
      ++finite;
    }
  }
  // The sweep must exercise finite latencies, not just failures.
  EXPECT_GE(finite, 150u);
}

// ---------------------------------------------------------------------------
// Mapped corpus index 29: a unit bus busy every tick and two processors
// with coprime local lengths (global cycle 532,950). The pinned values
// come from the broad enumeration (every busy link tick a window).

std::string witness_text(const GlobalWitness& w) {
  std::string s = std::to_string(w.window_begin) + "/" + std::to_string(w.makespan) + "[";
  for (const WitnessOp& op : w.ops) {
    s += std::to_string(op.op) + "@" + std::to_string(op.proc) + ":" +
         std::to_string(op.start) + "-" + std::to_string(op.finish) + ",";
  }
  s += "][";
  for (const MessageHop& h : w.hops) {
    s += std::to_string(h.message) + ":" + std::to_string(h.producer) + ">" +
         std::to_string(h.consumer) + ":" + std::to_string(h.send) + "-" +
         std::to_string(h.arrive) + ",";
  }
  return s + "]";
}

std::string deployment_text(const Deployment& d) {
  std::string s = std::to_string(d.success) + ";" + d.failure_reason + ";";
  for (const auto& latency : d.end_to_end) {
    s += latency ? std::to_string(*latency) + "," : std::string("inf,");
  }
  for (std::size_t i = 0; i < d.witnesses.size(); ++i) {
    s += std::to_string(d.witness_constraint[i]) + "=" + witness_text(d.witnesses[i]) + ";";
  }
  return s;
}

struct Index29 {
  core::GraphModel model;
  Platform platform;
};

Index29 index29() {
  const spec::CompileResult compiled =
      spec::compile_text(gen::generate(gen::mapped_corpus_options(29)).spec);
  EXPECT_TRUE(compiled.ok() && compiled.platform.has_value());
  return Index29{*compiled.model, *compiled.platform};
}

TEST(SeamWindows, CorpusIndex29DeployIsPinned) {
  const Index29 in = index29();
  const Deployment d = deploy(in.model, in.platform);
  ASSERT_TRUE(d.success) << d.failure_reason;
  const std::vector<std::optional<Time>> want{7, 7, 34, 34};
  EXPECT_EQ(d.end_to_end, want);
  EXPECT_EQ(gen::fnv1a(deployment_text(d)), 0x8a836e2e0c27d50dull) << deployment_text(d);
  EXPECT_EQ(seam_cycle(d.processor_schedules, d.comm), 532'950);
}

TEST(SeamWindows, CorpusIndex29MigrationTableIsPinned) {
  const Index29 in = index29();
  TolerantOptions options;
  options.k = 1;
  const TolerantDeployment td = deploy_tolerant(in.model, in.platform, options);
  ASSERT_TRUE(td.success) << td.failure_reason;
  std::string text = std::to_string(td.tolerant) + ";" + std::to_string(td.scenarios) + ";";
  for (const MigrationEntry& entry : td.table.entries) {
    for (ProcId p : entry.failed) text += std::to_string(p) + ",";
    text += "=>" + deployment_text(entry.deployment) + "\n";
  }
  for (const UncoveredScenario& u : td.uncovered) {
    for (ProcId p : u.failed) text += std::to_string(p) + ",";
    text += "!" + u.reason + "\n";
  }
  EXPECT_EQ(td.table.size(), 8u);
  EXPECT_EQ(gen::fnv1a(text), 0x248259c0f4680cc2ull) << text;
}

}  // namespace
}  // namespace rtg::map
