// E22 — verify hot path: flat-scan reference vs the production engine.
//
// Re-runs E16/E17's verification workload (seed-for-seed) through two
// verifiers:
//
//   reference  core::reference_verify (linear scans over materialized
//              unroll_ops, one constraint at a time)
//   engine     core::verify_schedule, serial (n_threads = 1)
//
// Each row is the best of kBatches timed batches (min is the
// noise-robust statistic on a shared host), and every engine report is
// checked against the reference before timing starts. Emits
// BENCH_hotpath.json in the working directory, with the host's core
// count, compiler, build type and the git revision given by --rev.
//
// --smoke: quick CI guard — two batches, and exits non-zero unless the
// engine beats the reference by >= 3x (the full run measures ~20x; 3x
// leaves room for sanitizer-free CI hosts of any speed). Wired as the
// perf_smoke_hotpath ctest, skipped under sanitizers where
// instrumentation distorts the ratio.
//
// usage: bench_hotpath [--smoke] [--rev <git revision>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/reference_verify.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rtg;
using core::GraphModel;
using core::StaticSchedule;

struct VerifyCase {
  GraphModel model;
  StaticSchedule schedule;
};

// E16's verification workload, reproduced seed-for-seed so rows are
// comparable with BENCH_parallel.json and BENCH_embedding.json.
std::vector<VerifyCase> make_e16_cases(int count) {
  std::vector<VerifyCase> cases;
  sim::Rng rng(0xE16);
  while (static_cast<int>(cases.size()) < count) {
    core::CommGraph comm;
    const int n = static_cast<int>(rng.uniform(3, 6));
    for (int i = 0; i < n; ++i) {
      comm.add_element("e" + std::to_string(i), rng.uniform(1, 2), true);
    }
    GraphModel model(std::move(comm));
    const int k = static_cast<int>(rng.uniform(2, 4));
    for (int c = 0; c < k; ++c) {
      const auto elem = static_cast<core::ElementId>(rng.uniform(0, n - 1));
      const auto kind = rng.chance(0.4) ? core::ConstraintKind::kPeriodic
                                        : core::ConstraintKind::kAsynchronous;
      core::TaskGraph tg;
      tg.add_op(elem);
      model.add_constraint(core::TimingConstraint{"c" + std::to_string(c),
                                                  std::move(tg), rng.uniform(4, 12),
                                                  rng.uniform(8, 30), kind});
      if (rng.chance(0.5)) {
        core::TaskGraph dup;
        dup.add_op(elem);
        model.add_constraint(core::TimingConstraint{"c" + std::to_string(c) + "m",
                                                    std::move(dup), rng.uniform(4, 12),
                                                    rng.uniform(8, 30), kind});
      }
    }
    const core::HeuristicResult h = core::latency_schedule(model);
    if (!h.success) continue;
    cases.push_back(VerifyCase{h.scheduled_model, *h.schedule});
  }
  return cases;
}

struct Result {
  double verify_s = 0;
  core::VerifyStats counters;  // summed over one pass of the cases
};

// Times `reps` passes over the cases; `engine` selects verify_schedule
// (serial) over reference_verify. Fills `totals` from the first pass.
double run_batch(const std::vector<VerifyCase>& cases, bool engine, int reps,
                 core::VerifyStats* totals) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const VerifyCase& c : cases) {
      core::VerifyStats stats;
      const core::VerifyOptions options{.n_threads = 1, .stats = &stats};
      const auto report = engine ? core::verify_schedule(c.schedule, c.model, options)
                                 : core::reference_verify(c.schedule, c.model);
      if (!report.feasible) {
        std::fprintf(stderr, "verification regressed!\n");
        std::exit(1);
      }
      if (totals != nullptr && rep == 0) *totals += stats;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--rev") == 0 && i + 1 < argc) {
      rev = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_hotpath [--smoke] [--rev <git revision>]\n");
      return 2;
    }
  }
  const int kVerifyCases = 12;
  const int kReps = smoke ? 4 : 10;
  const int kBatches = smoke ? 2 : 3;

  const auto cases = make_e16_cases(kVerifyCases);

  // Correctness gate before any timing: the engine must reproduce the
  // reference bit-for-bit.
  for (const VerifyCase& c : cases) {
    if (!(core::verify_schedule(c.schedule, c.model,
                                core::VerifyOptions{.n_threads = 1}) ==
          core::reference_verify(c.schedule, c.model))) {
      std::fprintf(stderr, "engine is not bit-identical to the reference!\n");
      return 1;
    }
  }

  const std::size_t cores = rtg::util::resolve_threads(0);
  std::printf("# E22: verify hot path (hardware_concurrency = %zu)\n", cores);
  std::printf("%10s %12s %10s %12s %12s %12s\n", "verifier", "verify[s]", "speedup",
              "seeks", "gate_skips", "warm_queries");

  const char* const names[] = {"reference", "engine"};
  Result results[2];
  for (int i = 0; i < 2; ++i) {
    Result& r = results[i];
    const bool engine = i == 1;
    r.verify_s = run_batch(cases, engine, kReps, &r.counters);  // warm + counters
    for (int b = 1; b < kBatches; ++b) {
      r.verify_s = std::min(r.verify_s, run_batch(cases, engine, kReps, nullptr));
    }
    std::printf("%10s %12.4f %10.2f %12zu %12zu %12zu\n", names[i], r.verify_s,
                results[0].verify_s / r.verify_s, r.counters.index_seeks,
                r.counters.bitset_skips, r.counters.arena_reuses);
  }
  const double ratio = results[0].verify_s / results[1].verify_s;

  if (!smoke) {
    std::FILE* out = std::fopen("BENCH_hotpath.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_hotpath.json\n");
      return 1;
    }
    std::fprintf(out, "{\n  \"experiment\": \"E22_hotpath\",\n");
    std::fprintf(out,
                 "  \"host\": {\"nproc\": %zu, \"compiler\": \"g++ %s\", "
                 "\"build_type\": \"%s\", \"rev\": \"%s\"},\n",
                 cores, __VERSION__, RTG_BUILD_TYPE, rev.c_str());
    std::fprintf(out,
                 "  \"workload\": \"E16 verify cases x %d reps, best of %d "
                 "batches, serial\",\n",
                 kReps, kBatches);
    std::fprintf(out, "  \"speedup\": %.2f,\n  \"rows\": [\n", ratio);
    for (int i = 0; i < 2; ++i) {
      const Result& r = results[i];
      std::fprintf(out,
                   "    {\"verifier\": \"%s\", \"verify_s\": %.6f, "
                   "\"index_seeks\": %zu, \"bitset_skips\": %zu, "
                   "\"arena_reuses\": %zu}%s\n",
                   names[i], r.verify_s, r.counters.index_seeks, r.counters.bitset_skips,
                   r.counters.arena_reuses, i == 0 ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("# wrote BENCH_hotpath.json\n");
  }

  if (smoke) {
    std::printf("# smoke: engine %.2fx over reference (gate: >= 3x)\n", ratio);
    if (ratio < 3.0) {
      std::fprintf(stderr, "perf smoke FAILED: engine only %.2fx over reference\n",
                   ratio);
      return 1;
    }
  }
  return 0;
}
