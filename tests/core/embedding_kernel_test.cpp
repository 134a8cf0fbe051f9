// Differential + pin tests for the indexed embedding kernel and the
// incremental verifier (ISSUE 3).
//
//   * verify_schedule's indexed serial and parallel paths must be
//     bit-identical to the flat-scan reference_verify;
//   * EmbeddingKernel witnesses must be bit-identical to the public
//     flat-scan find_earliest_embedding — including exclusion masks and
//     BnB repeated-label instances — and every assignment index must be
//     a valid position into the public unroll_ops view;
//   * IncrementalVerifier's drop reports must equal a from-scratch
//     verify of each candidate, across commits;
//   * compact_schedule on the incremental verifier must reproduce the
//     legacy generate-and-test compaction exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/optimize.hpp"
#include "core/reference_verify.hpp"
#include "core/static_schedule.hpp"
#include "graph/generators.hpp"
#include "sim/rng.hpp"

namespace rtg::core {
namespace {

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

GraphModel random_model(sim::Rng& rng, Time min_d, Time max_d) {
  const graph::Digraph dag = random_digraph(rng);
  CommGraph comm;
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
    OpId prev = tg.add_op(static_cast<ElementId>(v));
    const int steps = static_cast<int>(rng.uniform(0, 2));
    for (int s = 0; s < steps; ++s) {
      const auto& succ = dag.successors(v);
      if (succ.empty()) break;
      v = succ[rng.uniform(0, succ.size() - 1)];
      const OpId op = tg.add_op(static_cast<ElementId>(v));
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
  const int entries = static_cast<int>(rng.uniform(0, 12));
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

// The drop edit compact_schedule performs: execution entry -> equal idle.
StaticSchedule drop_to_idle(const StaticSchedule& sched, std::size_t entry) {
  StaticSchedule out;
  const auto& entries = sched.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == entry || entries[i].elem == kIdleEntry) {
      out.push_idle(entries[i].duration);
    } else {
      out.push_execution(entries[i].elem, entries[i].duration);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential: indexed serial + parallel vs the flat-scan reference.

class IndexedVerifyDiff : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedVerifyDiff,
                         ::testing::Range<std::uint64_t>(0, 200));

TEST_P(IndexedVerifyDiff, BitIdenticalToFlatReference) {
  sim::Rng rng(GetParam() * 6364136223846793005ULL + 1442695040888963407ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const StaticSchedule sched = random_schedule(rng, model);

  const FeasibilityReport flat = reference_verify(sched, model);

  for (const std::size_t n_threads : {1, 2, 4, 8}) {
    VerifyStats stats;
    const FeasibilityReport indexed = verify_schedule(
        sched, model, VerifyOptions{.n_threads = n_threads, .stats = &stats});
    EXPECT_EQ(indexed, flat) << "n_threads = " << n_threads;
    // Every work unit is answered exactly once, computed or memoized —
    // now on the serial path too (it shares the query table).
    EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
  }
}

// ---------------------------------------------------------------------------
// Witness pin: kernel witnesses == flat-scan witnesses, and assignments
// are valid positions into the public unroll_ops view.

void expect_valid_witness(const EmbeddingWitness& w, const TaskGraph& tg,
                          const std::vector<ScheduledOp>& ops, Time window_begin) {
  ASSERT_EQ(w.assignment.size(), tg.size());
  std::vector<bool> taken(ops.size(), false);
  for (std::size_t j = 0; j < w.assignment.size(); ++j) {
    const std::size_t idx = w.assignment[j];
    ASSERT_LT(idx, ops.size());
    EXPECT_EQ(ops[idx].elem, tg.labels()[j]);
    EXPECT_GE(ops[idx].start, window_begin);
    EXPECT_LE(ops[idx].finish(), w.finish);
    EXPECT_FALSE(taken[idx]) << "assignment not injective";
    taken[idx] = true;
  }
}

class KernelWitnessPin : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelWitnessPin,
                         ::testing::Range<std::uint64_t>(0, 150));

TEST_P(KernelWitnessPin, MatchesFlatScanIncludingExclusions) {
  sim::Rng rng(GetParam() * 2862933555777941757ULL + 3037000493ULL);
  const GraphModel model = random_model(rng, 1, 10);
  // An empty draw is redrawn from the same stream, so every seed checks
  // a real schedule (non-empty first draws are unchanged).
  StaticSchedule sched = random_schedule(rng, model);
  while (sched.length() == 0) sched = random_schedule(rng, model);
  ASSERT_GT(sched.length(), 0);

  const std::size_t periods = 4;
  const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
  const UnrollIndex index(sched, periods);
  ASSERT_EQ(index.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(index.op(i).elem, ops[i].elem);
    EXPECT_EQ(index.op(i).start, ops[i].start);
    EXPECT_EQ(index.op(i).duration, ops[i].duration);
  }

  for (std::size_t c = 0; c < model.constraint_count(); ++c) {
    const TaskGraph& tg = model.constraint(c).task_graph;
    EmbeddingKernel kernel(tg, index);
    for (Time t = 0; t < sched.length() + 2; ++t) {
      const auto flat = find_earliest_embedding(tg, ops, t);
      const auto indexed = kernel.witness_at(t);
      ASSERT_EQ(indexed.has_value(), flat.has_value()) << "t = " << t;
      if (!flat) continue;
      EXPECT_EQ(indexed->finish, flat->finish);
      EXPECT_EQ(indexed->assignment, flat->assignment);  // bit-identical
      expect_valid_witness(*indexed, tg, ops, t);

      // Exclude the first pick and re-solve: both kernels must agree on
      // the alternate (or on infeasibility).
      std::vector<bool> excluded(ops.size(), false);
      excluded[flat->assignment.front()] = true;
      const auto flat_ex = find_earliest_embedding(tg, ops, t, excluded);
      const auto indexed_ex = kernel.witness_at(t, excluded);
      ASSERT_EQ(indexed_ex.has_value(), flat_ex.has_value());
      if (flat_ex) {
        EXPECT_EQ(indexed_ex->finish, flat_ex->finish);
        EXPECT_EQ(indexed_ex->assignment, flat_ex->assignment);
        expect_valid_witness(*indexed_ex, tg, ops, t);
      }
    }
    // finish_at agrees with witness_at and with the span reference.
    for (Time t = 0; t < sched.length() + 2; ++t) {
      const auto f = kernel.finish_at(t);
      const auto ref = earliest_embedding_finish(tg, ops, t);
      EXPECT_EQ(f, ref) << "t = " << t;
    }
  }
}

// Repeated labels force the branch-and-bound kernel: two ops on the same
// element must map to *distinct* executions, bit-identically to the
// flat-scan BnB.
TEST(KernelWitnessPin, BnbInjectiveRepeatedLabels) {
  TaskGraph tg;  // a -> b -> a : element 0 labels two ops
  const OpId o0 = tg.add_op(0);
  const OpId o1 = tg.add_op(1);
  const OpId o2 = tg.add_op(0);
  tg.add_dep(o0, o1);
  tg.add_dep(o1, o2);

  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);
  sched.push_execution(1, 2);
  sched.push_execution(0, 1);
  sched.push_idle(2);

  const std::size_t periods = 5;
  const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
  const UnrollIndex index(sched, periods);
  EmbeddingKernel kernel(tg, index);
  for (Time t = 0; t < 2 * sched.length(); ++t) {
    const auto flat = find_earliest_embedding(tg, ops, t);
    const auto indexed = kernel.witness_at(t);
    ASSERT_EQ(indexed.has_value(), flat.has_value()) << "t = " << t;
    if (!flat) continue;
    EXPECT_EQ(indexed->finish, flat->finish);
    EXPECT_EQ(indexed->assignment, flat->assignment);
    EXPECT_NE(indexed->assignment[o0], indexed->assignment[o2]);
    expect_valid_witness(*indexed, tg, ops, t);
  }
}

// The empty schedule indexes nothing: a non-empty task graph has no
// embedding and an infinite latency.
TEST(KernelWitnessPin, EmptyScheduleHasNoEmbedding) {
  TaskGraph tg;
  tg.add_op(0);
  const StaticSchedule sched;
  const UnrollIndex index(sched, 4);
  EXPECT_EQ(index.size(), 0u);
  EmbeddingKernel kernel(tg, index);
  EXPECT_EQ(kernel.finish_at(0), std::nullopt);
  EXPECT_EQ(schedule_latency(sched, tg), std::nullopt);
}

// A periods_limit-capped kernel over a longer shared index answers
// exactly like a kernel over the shorter unroll.
TEST(KernelWitnessPin, PeriodsLimitMatchesShorterUnroll) {
  sim::Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const GraphModel model = random_model(rng, 1, 8);
    const StaticSchedule sched = random_schedule(rng, model);
    if (sched.length() == 0) continue;
    const UnrollIndex big(sched, 6);
    const std::vector<ScheduledOp> small_ops = unroll_ops(sched, 2);
    for (std::size_t c = 0; c < model.constraint_count(); ++c) {
      const TaskGraph& tg = model.constraint(c).task_graph;
      EmbeddingKernel capped(tg, big, /*periods_limit=*/2);
      for (Time t = 0; t < sched.length(); ++t) {
        EXPECT_EQ(capped.finish_at(t), earliest_embedding_finish(tg, small_ops, t));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalVerifier: drop reports equal from-scratch verification,
// across rejected candidates and commits.

class IncrementalDiff : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDiff,
                         ::testing::Range<std::uint64_t>(0, 100));

TEST_P(IncrementalDiff, DropReportsMatchFullVerify) {
  sim::Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL);
  const GraphModel model = random_model(rng, 1, 12);
  StaticSchedule sched = random_schedule(rng, model);

  IncrementalVerifier verifier(model);
  EXPECT_EQ(verifier.verify(sched), verify_schedule(sched, model, VerifyOptions{.n_threads = 1}));

  // Walk the executions like compact_schedule does: probe every drop,
  // commit the feasible ones, and re-check the committed baseline.
  for (int round = 0; round < 3; ++round) {
    bool committed = false;
    const auto entries = sched.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].elem == kIdleEntry) continue;
      const StaticSchedule candidate = drop_to_idle(sched, i);
      const FeasibilityReport& incremental = verifier.verify_drop(candidate, i);
      const FeasibilityReport full =
          verify_schedule(candidate, model, VerifyOptions{.n_threads = 1});
      ASSERT_EQ(incremental, full) << "entry " << i;
      if (incremental.feasible) {
        verifier.commit_drop();
        sched = candidate;
        EXPECT_EQ(verifier.report(), full);
        committed = true;
        break;
      }
    }
    if (!committed) break;
  }
  // After the walk the cumulative counters are consistent.
  const VerifyStats& stats = verifier.stats();
  EXPECT_EQ(stats.embedding_queries + stats.memo_hits + stats.incremental_hits,
            stats.work_units);
}

// Infeasible drops are also reported exactly — including the case where
// the dropped execution was the element's last occurrence.
TEST(IncrementalVerifier, LastOccurrenceDropMatchesFullVerify) {
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 6, ConstraintKind::kAsynchronous});

  StaticSchedule sched;
  sched.push_execution(0, 1);  // only execution of element 0
  sched.push_execution(1, 1);
  sched.push_idle(2);

  IncrementalVerifier verifier(model);
  EXPECT_TRUE(verifier.verify(sched).feasible);
  const StaticSchedule candidate = drop_to_idle(sched, 0);
  const FeasibilityReport& inc = verifier.verify_drop(candidate, 0);
  const FeasibilityReport full = verify_schedule(candidate, model);
  EXPECT_EQ(inc, full);
  EXPECT_FALSE(inc.feasible);
}

TEST(IncrementalVerifier, RejectsMalformedEdits) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);

  IncrementalVerifier verifier(model);
  verifier.verify(sched);
  EXPECT_THROW(verifier.verify_drop(sched, 1), std::invalid_argument);  // idle entry
  StaticSchedule longer = sched;
  longer.push_idle(1);
  EXPECT_THROW(verifier.verify_drop(longer, 0), std::invalid_argument);
  EXPECT_THROW(verifier.commit_drop(), std::logic_error);  // nothing pending
}

// ---------------------------------------------------------------------------
// compact_schedule on the incremental verifier == legacy generate-and-test.

StaticSchedule reference_compact(const StaticSchedule& sched, const GraphModel& model,
                                 std::size_t* removed) {
  StaticSchedule current = sched;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto entries = current.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].elem == kIdleEntry) continue;
      StaticSchedule candidate = drop_to_idle(current, i);
      if (verify_schedule(candidate, model, VerifyOptions{.n_threads = 1}).feasible) {
        current = std::move(candidate);
        if (removed) ++*removed;
        changed = true;
        break;
      }
    }
  }
  return current;
}

TEST(CompactEquivalence, IncrementalCompactionMatchesLegacy) {
  sim::Rng rng(0xC0117AC7);
  int compacted = 0;
  std::size_t total_hits = 0;
  for (int i = 0; i < 40; ++i) {
    const GraphModel model = random_model(rng, 4, 16);
    const HeuristicResult built = latency_schedule(model, HeuristicOptions{.n_threads = 1});
    if (!built.success) continue;
    // The constructed schedule is expressed against the (possibly
    // pipelined) scheduled_model, not the input model.
    const GraphModel& scheduled = built.scheduled_model;

    OptimizeStats stats;
    const StaticSchedule fast = compact_schedule(*built.schedule, scheduled, &stats);
    std::size_t removed = 0;
    const StaticSchedule slow = reference_compact(*built.schedule, scheduled, &removed);
    EXPECT_EQ(fast, slow);
    EXPECT_EQ(stats.executions_removed, removed);
    total_hits += stats.verify.incremental_hits;
    ++compacted;
  }
  ASSERT_GT(compacted, 0);
  // The whole point: the loop stops re-verifying unedited windows.
  EXPECT_GT(total_hits, 0u);
}

TEST(HeuristicRefine, RefinementPreservesFeasibilityAndCachesWindows) {
  sim::Rng rng(4242);
  bool exercised = false;
  for (int i = 0; i < 20 && !exercised; ++i) {
    const GraphModel model = random_model(rng, 6, 20);
    HeuristicOptions options;
    options.n_threads = 1;
    options.refine = true;
    const HeuristicResult refined = latency_schedule(model, options);
    if (!refined.success) continue;
    ASSERT_TRUE(refined.report.feasible);
    EXPECT_TRUE(verify_schedule(*refined.schedule, refined.scheduled_model).feasible);
    if (refined.refine_stats.executions_removed > 0) {
      EXPECT_GT(refined.refine_stats.verify.incremental_hits, 0u);
      exercised = true;
    }
  }
  EXPECT_TRUE(exercised) << "no model exercised the refinement pass";
}

// ---------------------------------------------------------------------------
// Small-work cutoff (auto thread count) + counter sanity.

TEST(VerifyCutoff, AutoFallsBackToSerialOnSmallPlans) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 4, ConstraintKind::kAsynchronous});
  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);

  VerifyStats stats;
  const FeasibilityReport auto_report =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 0, .stats = &stats});
  // The plan is far below the cutoff, so auto must choose the serial
  // path regardless of core count.
  EXPECT_EQ(stats.threads_used, 1u);

  // Explicit thread counts are honoured — and agree with auto.
  const FeasibilityReport forced =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 4, .stats = &stats});
  EXPECT_EQ(stats.threads_used, 4u);
  EXPECT_EQ(forced, auto_report);
}

TEST(VerifyCounters, SerialEngineReportsKernelActivity) {
  // One async constraint over a schedule with several executions: its
  // offset set {0} ∪ {op starts + 1} yields multiple queries on one
  // kernel, so every counter must move.
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  comm.add_channel(0, 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  const OpId o0 = tg.add_op(0);
  const OpId o1 = tg.add_op(1);
  tg.add_dep(o0, o1);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 8, ConstraintKind::kAsynchronous});

  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_execution(1, 1);
  sched.push_idle(1);
  sched.push_execution(0, 1);
  sched.push_execution(1, 1);
  sched.push_idle(1);

  VerifyStats stats;
  const FeasibilityReport report =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 1, .stats = &stats});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
  EXPECT_GT(stats.embedding_queries, 1u);
  EXPECT_GT(stats.index_seeks, 0u);
  EXPECT_GT(stats.arena_reuses, 0u);
}

}  // namespace
}  // namespace rtg::core
