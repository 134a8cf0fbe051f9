// mapped_corpus — the multiprocessor pipeline over the mapped corpus.
//
// Closed loop, one client. Input is the repository's standing mapped
// corpus, gen::mapped_corpus_options(0..63) (bus, ring and partial
// mesh; 2/4/8 processors); the workload seed drives the platform fault
// plans. The instances stay fixed because map::deploy_tolerant's cost
// has a long, input-dependent tail: re-seeded instances ran from 1 ms to
// over 100 s each, which would make a run's length unbounded. The
// standing corpus has one such instance (index 29, several seconds),
// measured like every other. Each spec runs
// spec::compile_text -> core::exact_feasible on the pipelined model
// (auto threads, fixed state budget) -> map::deploy ->
// map::deploy_tolerant (k=1) -> map::run_deployment_with_faults, healed
// and blind, under a seeded platform fault plan. map and the exact game
// dominate; specs are small, so compile and the uniprocessor verify
// kernel barely register.
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "gen/generator.hpp"
#include "map/deploy.hpp"
#include "map/fault_tolerance.hpp"
#include "spec/compile.hpp"

namespace perfbench {
namespace {

using namespace rtg;

constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kExactBudget = 20'000;
constexpr core::Time kFaultHorizon = 600;
constexpr core::Time kRepair = 60;
constexpr double kProcRate = 0.004;
constexpr double kLinkRate = 0.002;

struct Check {
  bool compiled = false;  ///< the spec compiled and declared a platform
  /// An exact kFeasible witness and its model, re-verified after the run.
  std::optional<core::StaticSchedule> exact_schedule;
  std::optional<core::GraphModel> pipelined;
  /// A spec the exact game proved infeasible; the heuristic must fail on it.
  std::optional<core::GraphModel> exact_infeasible;
  bool fault_ran = false;
  std::size_t proof_failures = 0;
  std::size_t healed_ok = 0;
  std::size_t blind_ok = 0;
};

void run_spec(const std::string& text, std::uint64_t fault_seed, std::uint64_t id,
              SpanRecorder& rec, Outcome<Check>& out) {
  Counters& c = out.counters;
  c.spec_bytes = text.size();

  spec::CompileResult compiled;
  {
    ScopedSpan s(rec, "spec", id);
    compiled = spec::compile_text(text);
  }
  if (!compiled.ok() || !compiled.platform.has_value()) return;
  out.check.compiled = true;
  const core::GraphModel& model = *compiled.model;
  const map::Platform& platform = *compiled.platform;

  {
    ScopedSpan s(rec, "exact", id);
    core::GraphModel pipelined = core::pipeline_model(model).model;
    core::ExactOptions eo;
    eo.state_budget = kExactBudget;
    core::ExactResult ex = core::exact_feasible(pipelined, eo);
    c.exact_calls = 1;
    c.exact_states = ex.states_explored;
    c.exact_decided = ex.status == core::FeasibilityStatus::kUnknown ? 0 : 1;
    if (ex.status == core::FeasibilityStatus::kFeasible) {
      out.check.exact_schedule = std::move(ex.schedule);
      out.check.pipelined = std::move(pipelined);
    } else if (ex.status == core::FeasibilityStatus::kInfeasible) {
      out.check.exact_infeasible = model;
    }
  }

  {
    ScopedSpan s(rec, "deploy", id);
    const map::Deployment dep = map::deploy(model, platform);
    c.deploy_calls = 1;
    c.deploy_ok = dep.success ? 1 : 0;
    c.seam_windows = dep.seam_stats.windows;
    c.seam_seeks = dep.seam_stats.index_seeks;
  }

  std::optional<map::TolerantDeployment> td;
  {
    ScopedSpan s(rec, "tolerant", id);
    map::TolerantOptions topts;
    topts.k = 1;
    td = map::deploy_tolerant(model, platform, topts);
    c.tolerant_calls = 1;
    c.tolerant_scenarios = td->scenarios;
    c.tolerant_covered = td->table.size();
  }
  if (!td->success) return;

  const core::FaultPlan plan = map::make_platform_fault_plan(
      fault_seed, platform, kFaultHorizon, kProcRate, kLinkRate, kRepair, kLinkRate);
  const char* kSpan[2] = {"fault_run.healed", "fault_run.blind"};
  map::PlatformFaultRun runs[2];
  for (int i = 0; i < 2; ++i) {
    ScopedSpan s(rec, kSpan[i], id);
    map::FaultRunOptions fo;
    fo.heal = i == 0;
    runs[i] = map::run_deployment_with_faults(*td, plan, kFaultHorizon, fo);
    c.proof_checks[i] = runs[i].proof_checks;
    c.windows_total[i] = runs[i].windows_total;
    c.windows_ok[i] = runs[i].windows_ok;
  }
  c.fault_runs = 1;
  out.check.fault_ran = true;
  out.check.proof_failures = runs[0].proof_failures + runs[1].proof_failures;
  out.check.healed_ok = runs[0].windows_ok;
  out.check.blind_ok = runs[1].windows_ok;
}

void check(const ClosedPass<Check>& pass, Result& r) {
  for (std::size_t i = 0; i < pass.specs.size(); ++i) {
    const Check& o = pass.specs[i].check;
    ++r.attempted;
    const std::string at = "mapped spec " + std::to_string(i) + ": ";
    if (!o.compiled) {
      r.fail(at + "corpus spec does not compile or declares no platform");
    } else if (o.exact_schedule && !core::verify_schedule(*o.exact_schedule, *o.pipelined).feasible) {
      r.fail(at + "exact kFeasible schedule does not re-verify");
    } else if (o.exact_infeasible && core::latency_schedule(*o.exact_infeasible).success) {
      // The heuristic schedules the same pipelined model the game searched.
      r.fail(at + "exact kInfeasible but the heuristic found a schedule");
    } else if (o.fault_ran && o.proof_failures != 0) {
      r.fail(at + "fault run activated a configuration whose proof failed");
    } else if (o.fault_ran && o.healed_ok < o.blind_ok) {
      r.fail(at + "healed run kept fewer windows than the blind run");
    }
  }
}

}  // namespace

Result run_mapped_corpus(const Args& args) {
  Result r;
  std::vector<std::string> pool;
  const double setup_s = median_setup_seconds([&] {
    pool.clear();
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(gen::generate(gen::mapped_corpus_options(i)).spec);
    }
    r.record["calibrated_cutoff"] = static_cast<double>(core::calibrate_serial_cutoff());
    SpanRecorder off(false, Clock::now());
    Outcome<Check> warm;
    run_spec(pool.front(), mix(args.seed, 0), 0, off, warm);
  });
  auto pass = [&](double seconds, bool traced) {
    return closed_loop<Check>(pool.size(), seconds, traced,
                              [&](std::size_t k, std::uint64_t id, SpanRecorder& rec,
                                  Outcome<Check>& o) {
                                run_spec(pool[k], mix(args.seed, k), id, rec, o);
                              });
  };
  finish_closed_loop<Check>(args, setup_s, pass, check, r);
  return r;
}

}  // namespace perfbench
