#include "core/reference_verify.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "rt/task.hpp"  // lcm_checked

namespace rtg::core {

namespace {

// Same unroll horizon as the engine: 2|C| + 2 periods past the last
// window begin always suffice for an embedding query.
std::size_t unroll_budget(const TaskGraph& tg) { return 2 * tg.size() + 2; }

// True iff every element of tg occurs at least once in the schedule.
bool covers_elements(const StaticSchedule& sched, const TaskGraph& tg) {
  std::vector<bool> present;
  for (const ScheduledOp& op : sched.ops()) {
    if (op.elem >= present.size()) present.resize(op.elem + 1, false);
    present[op.elem] = true;
  }
  for (ElementId e : tg.labels()) {
    if (e >= present.size() || !present[e]) return false;
  }
  return true;
}

std::optional<Time> schedule_latency_flat(const StaticSchedule& sched,
                                          const TaskGraph& tg) {
  if (tg.empty()) return 0;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return std::nullopt;
  const Time period = sched.length();
  const std::vector<ScheduledOp> unrolled = unroll_ops(sched, unroll_budget(tg));
  std::vector<Time> candidates{0};
  for (const ScheduledOp& op : sched.ops()) {
    if (op.start + 1 < period) candidates.push_back(op.start + 1);
  }
  Time latency = 0;
  for (Time t : candidates) {
    const auto finish = earliest_embedding_finish(tg, unrolled, t);
    if (!finish) return std::nullopt;
    latency = std::max(latency, *finish - t);
  }
  return latency;
}

bool periodic_satisfied_flat(const StaticSchedule& sched, const TaskGraph& tg, Time p,
                             Time d) {
  if (p < 1 || d < 1) {
    throw std::invalid_argument("periodic_satisfied: p and d must be >= 1");
  }
  if (tg.empty()) return true;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return false;
  const Time period = sched.length();
  const Time cycle = rt::lcm_checked(period, p);
  const std::size_t periods_needed =
      static_cast<std::size_t>(cycle / period) + unroll_budget(tg);
  const std::vector<ScheduledOp> unrolled = unroll_ops(sched, periods_needed);
  for (Time t = 0; t < cycle; t += p) {
    const auto finish = earliest_embedding_finish(tg, unrolled, t);
    if (!finish || *finish > t + d) return false;
  }
  return true;
}

}  // namespace

FeasibilityReport reference_verify(const StaticSchedule& sched, const GraphModel& model) {
  FeasibilityReport report;
  report.feasible = true;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    ConstraintVerdict verdict;
    verdict.constraint = i;
    if (c.periodic()) {
      verdict.satisfied =
          periodic_satisfied_flat(sched, c.task_graph, c.period, c.deadline);
    } else {
      verdict.latency = schedule_latency_flat(sched, c.task_graph);
      verdict.satisfied = verdict.latency.has_value() && *verdict.latency <= c.deadline;
    }
    report.feasible = report.feasible && verdict.satisfied;
    report.verdicts.push_back(verdict);
  }
  return report;
}

}  // namespace rtg::core
