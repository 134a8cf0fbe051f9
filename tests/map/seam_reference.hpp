// seam_reference.hpp — the monolithic reference for the seam check.
//
// reference_distributed_latency answers the same question as
// map::distributed_latency with none of its machinery: it tries every
// window start in the broad candidate set (0, one past every op start
// on every processor, and one past every busy link tick) and places
// each op by a linear scan over materialized unrolled ops. It shares
// only the task graph, the schedules and CommSchedule's slot arithmetic
// with the production path, so the differential suites use it as an
// independent oracle for the production window rule.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "map/comm_schedule.hpp"
#include "map/verify.hpp"

namespace rtg::map {

/// Common cycle of every non-empty processor schedule and every active
/// link table — the period of the seam check, and what the reference's
/// cost grows with (it scans up to one candidate per tick of it).
[[nodiscard]] Time seam_cycle(const std::vector<core::StaticSchedule>& schedules,
                              const CommSchedule& comm);

/// Exact end-to-end latency of `tg` (nullopt = infinite), with the
/// worst window's witness — the smallest window start attaining the
/// latency — written to `witness` when non-null and the latency is
/// finite. `windows`, when non-null, is bumped per window tried.
[[nodiscard]] std::optional<Time> reference_distributed_latency(
    const core::TaskGraph& tg, const std::vector<core::StaticSchedule>& schedules,
    const std::vector<ProcId>& assignment, const CommSchedule& comm,
    GlobalWitness* witness = nullptr, std::size_t* windows = nullptr);

}  // namespace rtg::map
