// Differential suite for the streaming monitor (the tentpole's
// correctness contract): on any finite trace the online verdicts must
// be bit-identical to naive offline per-window verification
// (reference_check), and monitoring a schedule's own round-robin trace
// must agree with the flat-scan reference_verify verdict per
// constraint. Traces cover seeded random models, injected overruns,
// randomly dropped slots, and the multi-threaded capture path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/reference_verify.hpp"
#include "core/runtime.hpp"
#include "core/static_schedule.hpp"
#include "graph/generators.hpp"
#include "monitor/streaming_monitor.hpp"
#include "monitor/trace_capture.hpp"
#include "rt/task.hpp"
#include "sim/rng.hpp"

namespace rtg::monitor {
namespace {

using core::ConstraintKind;
using core::ElementId;
using core::GraphModel;
using core::ScheduledOp;
using core::StaticSchedule;
using core::TaskGraph;
using core::TimingConstraint;

graph::Digraph random_digraph(sim::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return graph::make_chain(rng.uniform(1, 4));
    case 1:
      return graph::make_fork_join(rng.uniform(1, 3));
    case 2:
      return graph::make_random_dag(rng.uniform(1, 5), 0.4, rng);
    default:
      return graph::make_series_parallel(rng.uniform(1, 4), 0.5, rng);
  }
}

// Same recipe as the parallel differential suite: comm graph from the
// structured generators, task graphs as label-respecting walks.
GraphModel random_model(sim::Rng& rng, Time min_d, Time max_d) {
  const graph::Digraph dag = random_digraph(rng);
  core::CommGraph comm;
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    comm.add_element("e" + std::to_string(v), rng.uniform(1, 2));
  }
  for (const auto& e : dag.edges()) {
    comm.add_channel(static_cast<ElementId>(e.from), static_cast<ElementId>(e.to));
  }
  const std::size_t n = dag.node_count();
  GraphModel model(std::move(comm));

  const int k = static_cast<int>(rng.uniform(1, 3));
  for (int c = 0; c < k; ++c) {
    TaskGraph tg;
    graph::NodeId v = static_cast<graph::NodeId>(rng.uniform(0, n - 1));
    core::OpId prev = tg.add_op(static_cast<ElementId>(v));
    const int steps = static_cast<int>(rng.uniform(0, 2));
    for (int s = 0; s < steps; ++s) {
      const auto& succ = dag.successors(v);
      if (succ.empty()) break;
      v = succ[rng.uniform(0, succ.size() - 1)];
      const core::OpId op = tg.add_op(static_cast<ElementId>(v));
      tg.add_dep(prev, op);
      prev = op;
    }
    model.add_constraint(TimingConstraint{
        "c" + std::to_string(c), std::move(tg), rng.uniform(1, 6),
        rng.uniform(min_d, max_d),
        rng.chance(0.4) ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous});
  }
  return model;
}

StaticSchedule random_schedule(sim::Rng& rng, const GraphModel& model) {
  StaticSchedule sched;
  const std::size_t n = model.comm().size();
  const int entries = static_cast<int>(rng.uniform(1, 12));
  for (int i = 0; i < entries; ++i) {
    if (rng.chance(0.25)) {
      sched.push_idle(rng.uniform(1, 3));
    } else {
      const auto e = static_cast<ElementId>(rng.uniform(0, n - 1));
      sched.push_execution(e, model.comm().weight(e));
    }
  }
  return sched;
}

// Random raw trace: arbitrary runs of valid element ids and idle,
// including partial runs that must be dropped by the decoder.
sim::ExecutionTrace random_trace(sim::Rng& rng, const GraphModel& model, Time slots) {
  sim::ExecutionTrace trace;
  const std::size_t n = model.comm().size();
  while (static_cast<Time>(trace.size()) < slots) {
    if (rng.chance(0.4)) {
      trace.append_idle(static_cast<std::size_t>(rng.uniform(1, 3)));
    } else {
      const auto e = static_cast<sim::Slot>(rng.uniform(0, n - 1));
      trace.append_run(e, static_cast<std::size_t>(rng.uniform(1, 3)));
    }
  }
  return trace;
}

void expect_monitor_matches_reference(const sim::ExecutionTrace& trace,
                                      const GraphModel& model,
                                      const std::string& context) {
  StreamingMonitor monitor(model);
  monitor.on_slots(trace.slots());
  const MonitorReport report = monitor.report();
  const ReferenceVerdict reference = reference_check(trace, model);
  ASSERT_EQ(report.horizon, reference.horizon) << context;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    EXPECT_EQ(report.health[i].windows_checked, reference.checked[i])
        << context << " constraint " << i;
    EXPECT_EQ(report.violated_starts(i), reference.violated[i])
        << context << " constraint " << i;
  }
  EXPECT_TRUE(verdicts_match(report, reference)) << context;
}

class MonitorDiff : public ::testing::TestWithParam<std::uint64_t> {};

// >= 200 seeded instances, three trace shapes each.
INSTANTIATE_TEST_SUITE_P(Seeds, MonitorDiff, ::testing::Range<std::uint64_t>(0, 200));

TEST_P(MonitorDiff, RandomTraceMatchesOfflineReference) {
  sim::Rng rng(GetParam() * 6364136223846793005ULL + 99991ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const sim::ExecutionTrace trace = random_trace(rng, model, rng.uniform(20, 120));
  expect_monitor_matches_reference(trace, model, "random trace");
}

TEST_P(MonitorDiff, OverrunTimelineMatchesOfflineReference) {
  sim::Rng rng(GetParam() * 2862933555777941757ULL + 7ULL);
  const GraphModel model = random_model(rng, 2, 10);
  const StaticSchedule sched = random_schedule(rng, model);
  if (sched.length() == 0) GTEST_SKIP() << "degenerate schedule";

  const Time horizon = rng.uniform(30, 90);
  core::OverrunModel overruns;
  overruns.probability = 0.3;
  overruns.magnitude = 2.0;
  overruns.seed = GetParam() + 1;

  // The slid timeline both as a recorded trace and slot-by-slot.
  const std::vector<ScheduledOp> nominal =
      core::unroll_ops(sched, static_cast<std::size_t>(horizon / sched.length() + 2));
  const std::vector<ScheduledOp> slid = core::inject_overruns(nominal, overruns);
  sim::ExecutionTrace trace;
  sim::TraceAppender appender(trace);
  core::emit_timeline(slid, horizon, appender);
  ASSERT_EQ(static_cast<Time>(trace.size()), horizon);
  expect_monitor_matches_reference(trace, model, "overrun timeline");
}

TEST_P(MonitorDiff, DroppedSlotsMatchOfflineReference) {
  sim::Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 3ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const sim::ExecutionTrace full = random_trace(rng, model, rng.uniform(20, 120));
  // Capture losses surface downstream as idle substitutes; the monitor
  // must judge the degraded trace exactly as the offline checker does.
  std::vector<sim::Slot> degraded = full.slots();
  for (sim::Slot& s : degraded) {
    if (rng.chance(0.15)) s = sim::kIdle;
  }
  expect_monitor_matches_reference(sim::ExecutionTrace(degraded), model,
                                   "dropped slots");
}

// Monitoring the round-robin trace of a static schedule long enough to
// cover every window residue must agree per constraint with the offline
// schedule verifier's flat reference: satisfied <=> zero violated
// windows in the prefix.
TEST_P(MonitorDiff, AgreesWithVerifyScheduleOnCyclicTraces) {
  sim::Rng rng(GetParam() * 0xD1342543DE82EF95ULL + 11ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const StaticSchedule sched = random_schedule(rng, model);
  if (sched.length() == 0) GTEST_SKIP() << "degenerate schedule";

  // Horizon covering every residue: async needs L + d; periodic needs
  // lcm(L, p) + d so invocation instants sweep all phases.
  Time needed = 0;
  for (const TimingConstraint& c : model.constraints()) {
    const Time span = c.periodic()
                          ? rt::lcm_checked(sched.length(), c.period) + c.deadline
                          : sched.length() + c.deadline;
    needed = std::max(needed, span);
  }
  if (needed > 4000) GTEST_SKIP() << "lcm blow-up";
  const auto reps = static_cast<std::size_t>((needed + sched.length() - 1) /
                                             sched.length());
  const sim::ExecutionTrace trace = sched.to_trace(reps);

  StreamingMonitor monitor(model);
  monitor.on_slots(trace.slots());
  const MonitorReport report = monitor.report();
  expect_monitor_matches_reference(trace, model, "cyclic trace");

  const core::FeasibilityReport offline =
      core::reference_verify(sched, model);
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    EXPECT_EQ(offline.verdicts[i].satisfied, report.violated_starts(i).empty())
        << "constraint " << i << " of seed " << GetParam();
  }
}

// The executive emits its own trace into the monitor: a feasible
// schedule must monitor clean over any horizon.
TEST(MonitorExecutive, ExecutiveTraceMonitorsClean) {
  sim::Rng rng(424242);
  for (int attempt = 0; attempt < 50; ++attempt) {
    const GraphModel model = random_model(rng, 4, 16);
    const StaticSchedule sched = random_schedule(rng, model);
    if (sched.length() == 0) continue;
    if (!core::verify_schedule(sched, model).feasible) continue;

    StreamingMonitor monitor(model);
    core::ConstraintArrivals arrivals(model.constraint_count());
    for (std::size_t i = 0; i < model.constraint_count(); ++i) {
      const TimingConstraint& c = model.constraint(i);
      if (!c.periodic()) {
        for (Time t = 0; t < 200; t += c.period) arrivals[i].push_back(t);
      }
    }
    const core::ExecutiveResult result =
        core::run_executive(sched, model, arrivals, 200, &monitor);
    EXPECT_TRUE(result.all_met);
    EXPECT_EQ(monitor.now(), 200);
    EXPECT_TRUE(monitor.report().ok())
        << "feasible schedule produced monitor violations";
  }
}

// Threaded capture path: a producer thread pushes the trace through a
// small ring (drops expected); the monitor's verdict over what was
// delivered must equal the offline verdict over the recorded delivery,
// and the drop accounting must balance.
TEST(MonitorCapture, ThreadedCaptureMatchesRecordedDelivery) {
  sim::Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    const GraphModel model = random_model(rng, 1, 12);
    const sim::ExecutionTrace input = random_trace(rng, model, 4000);

    StreamingMonitor monitor(model);
    sim::ExecutionTrace recorded;
    sim::TraceAppender recorder(recorded);
    sim::FanOutSink fan({&recorder, &monitor});
    CaptureStats stats;
    {
      TraceCapture capture(fan, 64);
      std::thread producer([&] {
        for (const sim::Slot s : input.slots()) capture.on_slot(s);
        capture.close();
      });
      producer.join();
      stats = capture.stats();
    }

    EXPECT_EQ(stats.produced, input.size());
    EXPECT_EQ(stats.consumed + stats.dropped, stats.produced);
    ASSERT_EQ(recorded.size(), input.size());  // drops delivered as idle
    EXPECT_EQ(monitor.now(), static_cast<Time>(recorded.size()));
    EXPECT_TRUE(verdicts_match(monitor.report(), reference_check(recorded, model)));
  }
}

// With a ring larger than the input there is nothing to drop, and the
// delivery is the input bit for bit.
TEST(MonitorCapture, LosslessWhenRingFits) {
  sim::Rng rng(7);
  const GraphModel model = random_model(rng, 1, 12);
  const sim::ExecutionTrace input = random_trace(rng, model, 1000);

  sim::ExecutionTrace recorded;
  sim::TraceAppender recorder(recorded);
  TraceCapture capture(recorder, 2048);
  for (const sim::Slot s : input.slots()) capture.on_slot(s);
  capture.close();

  const CaptureStats stats = capture.stats();
  EXPECT_EQ(stats.produced, input.size());
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.consumed, input.size());
  EXPECT_EQ(recorded, input);
}

// Ring overflow surfaces into the monitor's health metrics: every slot
// the capture layer dropped is announced to note_dropped (on the drain
// thread, before the substituted idles), so the monitor's drop counter
// always equals the capture stats — whether or not the tiny ring
// actually overflowed in this run.
TEST(MonitorCapture, DropListenerFeedsMonitorHealth) {
  sim::Rng rng(31);
  const GraphModel model = random_model(rng, 1, 12);
  const sim::ExecutionTrace input = random_trace(rng, model, 50000);

  StreamingMonitor monitor(model);
  CaptureStats stats;
  {
    TraceCapture capture(monitor, 4);  // tiny ring: overflow expected
    capture.set_drop_listener([&monitor](std::uint64_t n) { monitor.note_dropped(n); });
    for (const sim::Slot s : input.slots()) capture.on_slot(s);
    capture.close();
    stats = capture.stats();
  }
  EXPECT_EQ(stats.consumed + stats.dropped, stats.produced);
  EXPECT_EQ(monitor.dropped_slots(), stats.dropped);
  EXPECT_EQ(monitor.now(), static_cast<Time>(input.size()));
  const MonitorReport report = monitor.report();
  EXPECT_EQ(report.dropped_slots, stats.dropped);
  // Sustained overflow (the expected case with a 4-slot ring) must have
  // raised at least one degraded-health event.
  if (stats.dropped >= 64 &&
      static_cast<double>(stats.dropped) >=
          0.01 * static_cast<double>(monitor.now() + static_cast<Time>(stats.dropped))) {
    EXPECT_TRUE(report.capture_degraded);
    EXPECT_GE(report.capture_events.size(), 1u);
  }
}

}  // namespace
}  // namespace rtg::monitor
