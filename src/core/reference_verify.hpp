// reference_verify.hpp — the flat-scan reference verifier.
//
// An independent implementation of the paper's feasibility definition
// (latency <= d for every asynchronous constraint, invocation-window
// containment for every periodic one) with none of verify_schedule's
// machinery: one constraint at a time, linear scans over materialized
// unroll_ops, no index, no memo, no threads. Differential tests and the
// scenario tournament check the production engine against it; it is
// orders of magnitude slower and not meant for production paths.
#pragma once

#include "core/latency.hpp"

namespace rtg::core {

/// Feasibility report for `sched` against `model`, computed by flat
/// scans. Bit-identical to verify_schedule(sched, model) by contract.
/// Throws std::invalid_argument on a periodic constraint with p < 1 or
/// d < 1, like verify_schedule.
[[nodiscard]] FeasibilityReport reference_verify(const StaticSchedule& sched,
                                                 const GraphModel& model);

}  // namespace rtg::core
