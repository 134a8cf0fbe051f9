#include "seam_reference.hpp"

#include <algorithm>
#include <set>

#include "core/latency.hpp"
#include "rt/task.hpp"  // lcm_checked

namespace rtg::map {

namespace {

using core::ScheduledOp;
using core::StaticSchedule;
using core::TaskGraph;

// Greedy distributed completion within the window starting at `t`, each
// op placed by a linear scan of its processor's unrolled ops.
std::optional<Time> completion(const TaskGraph& tg, const std::vector<core::OpId>& topo,
                               const std::vector<std::vector<ScheduledOp>>& flat,
                               const std::vector<ProcId>& assignment,
                               const CommSchedule& comm, Time t, GlobalWitness* witness) {
  std::vector<Time> finish(tg.size(), 0);
  Time makespan = t;
  if (witness) {
    witness->window_begin = t;
    witness->ops.assign(tg.size(), WitnessOp{});
    witness->hops.clear();
  }
  for (core::OpId v : topo) {
    const ElementId ev = tg.label(v);
    const std::size_t pv = assignment.at(ev);
    Time ready = t;
    for (core::OpId u : tg.skeleton().predecessors(v)) {
      const ElementId eu = tg.label(u);
      if (assignment.at(eu) == pv) {
        ready = std::max(ready, finish[u]);
        continue;
      }
      const std::size_t msg = comm.find_message(eu, ev);
      if (msg == CommSchedule::npos) return std::nullopt;
      const Time arrive = comm.arrival(msg, std::max(finish[u], t));
      if (witness) {
        const auto& [li, si] = comm.slot_of[msg];
        const Time duration = comm.links[li].slots[si].duration;
        witness->hops.push_back(MessageHop{msg, u, v, arrive - duration, arrive});
      }
      ready = std::max(ready, arrive);
    }
    const ScheduledOp* placed = nullptr;
    for (const ScheduledOp& op : flat[pv]) {
      if (op.elem == ev && op.start >= ready) {
        placed = &op;
        break;
      }
    }
    if (!placed) return std::nullopt;
    finish[v] = placed->finish();
    makespan = std::max(makespan, finish[v]);
    if (witness) witness->ops[v] = WitnessOp{v, pv, placed->start, placed->finish()};
  }
  if (witness) witness->makespan = makespan;
  return makespan;
}

}  // namespace

Time seam_cycle(const std::vector<StaticSchedule>& schedules, const CommSchedule& comm) {
  Time cycle = 1;
  for (const LinkSchedule& table : comm.links) {
    if (!table.slots.empty()) cycle = rt::lcm_checked(cycle, table.cycle);
  }
  for (const StaticSchedule& s : schedules) {
    if (s.length() > 0) cycle = rt::lcm_checked(cycle, s.length());
  }
  return cycle;
}

std::optional<Time> reference_distributed_latency(const TaskGraph& tg,
                                                  const std::vector<StaticSchedule>& schedules,
                                                  const std::vector<ProcId>& assignment,
                                                  const CommSchedule& comm,
                                                  GlobalWitness* witness,
                                                  std::size_t* windows) {
  if (tg.empty()) {
    if (witness) *witness = GlobalWitness{};
    return 0;
  }
  const Time cycle = seam_cycle(schedules, comm);
  const Time horizon = static_cast<Time>(2 * tg.size() + 2) * cycle;
  std::vector<std::vector<ScheduledOp>> flat(schedules.size());
  for (std::size_t p = 0; p < schedules.size(); ++p) {
    if (schedules[p].length() == 0) continue;
    flat[p] = core::unroll_ops(
        schedules[p], static_cast<std::size_t>(horizon / schedules[p].length()) + 1);
  }

  // 0, one past every op start on every processor, and one past every
  // busy tick of every link.
  std::set<Time> candidates{0};
  for (const StaticSchedule& s : schedules) {
    if (s.length() == 0) continue;
    for (Time base = 0; base < cycle; base += s.length()) {
      for (const ScheduledOp& op : s.ops()) {
        if (base + op.start + 1 < cycle) candidates.insert(base + op.start + 1);
      }
    }
  }
  for (const LinkSchedule& table : comm.links) {
    if (table.slots.empty()) continue;
    std::vector<bool> occupied(static_cast<std::size_t>(table.cycle), false);
    for (const SlotAssignment& slot : table.slots) {
      for (Time d = 0; d < slot.duration; ++d) {
        occupied[static_cast<std::size_t>(slot.offset + d)] = true;
      }
    }
    for (Time s = 1; s < cycle; ++s) {
      if (occupied[static_cast<std::size_t>((s - 1) % table.cycle)]) candidates.insert(s);
    }
  }

  const std::vector<core::OpId> topo = tg.topological_ops();
  Time latency = 0;
  Time best_t = 0;
  for (const Time t : candidates) {
    if (windows) ++*windows;
    const auto finish = completion(tg, topo, flat, assignment, comm, t, nullptr);
    if (!finish) return std::nullopt;
    if (t == 0 || *finish - t > latency) {
      latency = *finish - t;
      best_t = t;
    }
  }
  if (witness) (void)completion(tg, topo, flat, assignment, comm, best_t, witness);
  return latency;
}

}  // namespace rtg::map
