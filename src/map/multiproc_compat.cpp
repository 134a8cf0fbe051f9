// multiproc_compat.cpp — the legacy core/multiproc entry points,
// reimplemented on the map subsystem (ISSUE 9).
//
// core::multiproc_schedule is map::deploy on a shared unit-slot bus
// with the matching legacy greedy policy; core::multiproc_latency is
// map::distributed_latency against a hand-built single-link TDMA table
// whose slot k carries bus_channels[k] for one slot — the arrival
// arithmetic and greedy completion then reduce to exactly the deleted
// legacy code, and the seam check's root-release windows attain the
// same maximum as the legacy every-tick enumeration, so the seed pins
// (tests/core/multiproc_test) hold bit-for-bit.
#include "core/multiproc.hpp"

#include "map/deploy.hpp"

namespace rtg::core {

namespace {

map::GreedyMapper::Policy legacy_policy(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kRoundRobin:
      return map::GreedyMapper::Policy::kRoundRobin;
    case PartitionStrategy::kLpt:
      return map::GreedyMapper::Policy::kLpt;
    case PartitionStrategy::kCommunication:
      return map::GreedyMapper::Policy::kCommunication;
  }
  return map::GreedyMapper::Policy::kLpt;
}

// One link, one unit slot per channel, cycle = channel count: the
// legacy TDMA bus as a CommSchedule.
map::CommSchedule tdma_bus(const std::vector<BusChannel>& bus_channels,
                           const std::vector<std::size_t>& assignment) {
  map::CommSchedule comm;
  map::LinkSchedule table;
  table.link = 0;
  table.cycle =
      static_cast<Time>(bus_channels.empty() ? 1 : bus_channels.size());
  for (std::size_t k = 0; k < bus_channels.size(); ++k) {
    map::Message msg;
    msg.from = bus_channels[k].first;
    msg.to = bus_channels[k].second;
    msg.src = msg.from < assignment.size() ? assignment[msg.from] : 0;
    msg.dst = msg.to < assignment.size() ? assignment[msg.to] : 0;
    msg.link = 0;
    msg.size = 1;
    msg.slots = 1;
    comm.messages.push_back(msg);
    comm.slot_of.emplace_back(0, k);
    table.slots.push_back(
        map::SlotAssignment{k, static_cast<Time>(k), 1});
  }
  comm.links.push_back(std::move(table));
  return comm;
}

}  // namespace

std::optional<Time> multiproc_latency(const TaskGraph& tg,
                                      const std::vector<StaticSchedule>& schedules,
                                      const std::vector<std::size_t>& assignment,
                                      const std::vector<BusChannel>& bus_channels) {
  return map::distributed_latency(tg, schedules, assignment,
                                  tdma_bus(bus_channels, assignment), {});
}

MultiprocResult multiproc_schedule(const GraphModel& input,
                                   const MultiprocOptions& options) {
  map::Platform platform = map::Platform::bus(options.processors);
  platform.fixed_message_size = 1;  // legacy: every message takes one slot

  const map::GreedyMapper mapper(legacy_policy(options.strategy));
  map::DeployOptions deploy_options;
  deploy_options.local = options.local;
  deploy_options.custom = &mapper;

  const map::Deployment d = map::deploy(input, platform, deploy_options);

  MultiprocResult result;
  result.success = d.success;
  result.failure_reason = d.failure_reason;
  result.scheduled_model = d.scheduled_model;
  result.assignment = d.mapping.assignment;
  result.processor_schedules = d.processor_schedules;
  result.bus_channels.reserve(d.messages.size());
  for (const map::Message& msg : d.messages) {
    result.bus_channels.emplace_back(msg.from, msg.to);
  }
  result.end_to_end_latency = d.end_to_end;
  return result;
}

}  // namespace rtg::core
