// scale_pipeline — the uniprocessor pipeline over a seeded scale family.
//
// Closed loop, one client. Each spec runs spec::compile_text ->
// core::latency_schedule -> core::verify_schedule (auto threads) ->
// core::run_executive over whole hyperperiods at maximum arrival rate,
// the executive feeding a StreamingMonitor through a batching sink.
// This is where compile, verify and the monitor do most of their work;
// map, the exact game and svc do none.
#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/runtime.hpp"
#include "gen/generator.hpp"
#include "monitor/streaming_monitor.hpp"
#include "spec/compile.hpp"

namespace perfbench {
namespace {

using namespace rtg;

constexpr std::size_t kPoolSize = 128;
constexpr core::Time kMaxHyperperiod = 16384;
constexpr core::Time kMinHorizon = 65536;
constexpr std::size_t kBlock = 4096;  // slots per forwarded monitor block
constexpr int kMaxDraws = 64;

/// The server hyperperiod Theorem 3's construction will schedule: the
/// lcm of ceil(d/2) over asynchronous and p over periodic constraints.
core::Time server_hyperperiod(const core::GraphModel& model) {
  core::Time h = 1;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const core::TimingConstraint& c = model.constraint(i);
    h = std::lcm(h, c.periodic() ? c.period : (c.deadline + 1) / 2);
  }
  return h;
}

/// Spec for lattice cell `index` of the scale family. The family is
/// fixed: instances are seeded from the cell index alone, so every run
/// times the same specs and the workload seed only orders the visits and
/// draws arrival phases. Cells cycle layered / random-DAG topologies over
/// a 10x element range in geometric steps, so per-spec cost is spread
/// evenly and the median spec does not jump between a few size classes.
/// Generated hyperperiods have a long tail (up to 2^22 slots), so an
/// instance is redrawn, up to kMaxDraws times, until its hyperperiod is
/// at most kMaxHyperperiod (the smallest draw is kept otherwise); what
/// remains spans 16..16384 slots. Harmonic periods and a low utilization
/// target keep most instances inside Theorem 3's hypotheses.
std::string scale_spec(std::size_t index) {
  static constexpr std::array<std::size_t, 10> kElements = {40,  52,  66,  85,  110,
                                                            140, 180, 235, 300, 400};
  gen::ScenarioOptions o;
  o.platform.topology =
      (index / kElements.size()) % 2 == 0 ? gen::Topology::kLayered : gen::Topology::kRandomDag;
  o.platform.elements = kElements[index % kElements.size()];
  o.platform.density = o.platform.topology == gen::Topology::kLayered ? 0.5 : 0.05;
  o.platform.pipelinable = 1.0;
  o.constraints.constraints = 2 + o.platform.elements / 50;
  o.constraints.utilization = 0.2;
  o.constraints.periods = gen::PeriodFamily::kHarmonic;
  o.constraints.max_ops = 6;
  std::string best;
  core::Time best_h = 0;
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    o.seed = mix(index, static_cast<std::uint64_t>(draw));
    gen::Scenario sc = gen::generate(o);
    const core::Time h = server_hyperperiod(sc.model);
    if (best.empty() || h < best_h) {
      best = std::move(sc.spec);
      best_h = h;
    }
    if (best_h <= kMaxHyperperiod) break;
  }
  return best;
}

/// Forwards executive slots to the monitor in fixed blocks; with
/// tracing on, each forwarded block is one "monitor" span. The
/// untraced run goes through the same sink with timing off.
class BatchingSink final : public sim::TraceSink {
 public:
  BatchingSink(monitor::StreamingMonitor& mon, SpanRecorder& rec, std::uint64_t id)
      : mon_(mon), rec_(rec), id_(id) {}

  void on_slot(sim::Slot s) override {
    buf_[n_++] = s;
    if (n_ == kBlock) flush();
  }

  void flush() {
    if (n_ == 0) return;
    ScopedSpan span(rec_, "monitor", id_);
    mon_.on_slots(std::span<const sim::Slot>(buf_.data(), n_));
    slots_ += n_;
    n_ = 0;
  }

  [[nodiscard]] std::uint64_t slots() const { return slots_; }

 private:
  monitor::StreamingMonitor& mon_;
  SpanRecorder& rec_;
  std::uint64_t id_;
  std::array<sim::Slot, kBlock> buf_{};
  std::size_t n_ = 0;
  std::uint64_t slots_ = 0;
};

/// One pool entry: the spec text and the seed of its arrival phases.
struct ScaleInput {
  std::string text;
  std::uint64_t phase_seed = 0;
};

struct Check {
  bool compiled = false;
  bool theorem3 = false;
  bool synth_ok = false;
  std::string synth_failure;
  bool feasible = false;
  bool all_met = false;
  bool monitor_ok = false;
};

void run_spec(const ScaleInput& in, std::uint64_t id, SpanRecorder& rec, Outcome<Check>& out) {
  const std::string& text = in.text;
  Counters& c = out.counters;
  c.spec_bytes = text.size();

  spec::CompileResult compiled;
  {
    ScopedSpan s(rec, "spec", id);
    compiled = spec::compile_text(text);
  }
  if (!compiled.ok()) return;
  out.check.compiled = true;
  out.check.theorem3 = compiled.model->satisfies_theorem3();

  core::HeuristicResult synth;
  {
    ScopedSpan s(rec, "synth", id);
    synth = core::latency_schedule(*compiled.model);
  }
  c.synth_calls = 1;
  out.check.synth_ok = synth.success;
  if (!synth.success) {
    out.check.synth_failure = synth.failure_reason;
    return;
  }
  c.synth_ok = 1;
  const core::StaticSchedule& sched = *synth.schedule;
  const core::GraphModel& model = synth.scheduled_model;
  c.schedule_slots = static_cast<std::size_t>(sched.length());
  {
    ScopedSpan s(rec, "verify", id);
    core::VerifyOptions vo;
    vo.n_threads = 0;
    vo.stats = &c.verify;
    out.check.feasible = core::verify_schedule(sched, model, vo).feasible;
  }
  c.verify_calls = 1;

  // Whole hyperperiods covering at least kMinHorizon slots: with a
  // fixed count of hyperperiods, monitor work would follow the 1000x
  // hyperperiod range instead of measuring the monitor. Asynchronous
  // constraints arrive at their maximum rate from a seeded phase; a
  // feasible schedule meets every arrival pattern, so any phase is a
  // valid input for the monitor check.
  ScopedSpan s(rec, "exec", id);
  const core::Time horizon =
      sched.length() * ((kMinHorizon + sched.length() - 1) / sched.length());
  core::ConstraintArrivals arrivals(model.constraint_count());
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const core::TimingConstraint& tc = model.constraint(i);
    if (tc.periodic()) continue;
    const core::Time phase = static_cast<core::Time>(
        mix(in.phase_seed, i) % static_cast<std::uint64_t>(tc.period));
    for (core::Time t = phase; t < horizon; t += tc.period) arrivals[i].push_back(t);
  }
  monitor::StreamingMonitor mon(model);
  BatchingSink sink(mon, rec, id);
  const core::ExecutiveResult ex = core::run_executive(sched, model, arrivals, horizon, &sink);
  sink.flush();
  const monitor::MonitorReport report = mon.report();
  c.exec_calls = 1;
  c.exec_dispatches = ex.dispatches;
  c.monitor_slots = sink.slots();
  for (const monitor::ConstraintHealth& h : report.health) {
    c.monitor_queries += h.embedding_queries;
    c.monitor_peak_buffered = std::max(c.monitor_peak_buffered, h.peak_buffered_ops);
  }
  out.check.all_met = ex.all_met;
  out.check.monitor_ok = report.ok();
}

void check(const ClosedPass<Check>& pass, Result& r) {
  for (std::size_t i = 0; i < pass.specs.size(); ++i) {
    const Check& o = pass.specs[i].check;
    ++r.attempted;
    const std::string at = "scale spec " + std::to_string(i) + ": ";
    if (!o.compiled) {
      r.fail(at + "generated spec does not compile");
    } else if (o.theorem3 && !o.synth_ok) {
      r.fail(at + "heuristic failed on a Theorem-3 instance: " + o.synth_failure);
    } else if (o.synth_ok && !o.feasible) {
      r.fail(at + "synthesized schedule does not verify");
    } else if (o.feasible && (!o.monitor_ok || !o.all_met)) {
      r.fail(at + "monitor or executive reports a violation on a verified schedule");
    }
  }
}

}  // namespace

Result run_scale_pipeline(const Args& args) {
  Result r;
  std::vector<ScaleInput> pool;
  const double setup_s = median_setup_seconds([&] {
    pool.clear();
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back({scale_spec(i), mix(args.seed, i)});
    }
    // The seed orders the visits (Fisher-Yates on a SplitMix stream).
    std::uint64_t state = args.seed;
    for (std::size_t i = pool.size(); i > 1; --i) {
      state = mix(state, i);
      std::swap(pool[i - 1], pool[state % i]);
    }
    r.record["calibrated_cutoff"] = static_cast<double>(core::calibrate_serial_cutoff());
    SpanRecorder off(false, Clock::now());
    Outcome<Check> warm;
    run_spec(pool.front(), 0, off, warm);
  });
  auto pass = [&](double seconds, bool traced) {
    return closed_loop<Check>(pool.size(), seconds, traced,
                              [&](std::size_t k, std::uint64_t id, SpanRecorder& rec,
                                  Outcome<Check>& o) { run_spec(pool[k], id, rec, o); });
  };
  finish_closed_loop<Check>(args, setup_s, pass, check, r);
  return r;
}

}  // namespace perfbench
