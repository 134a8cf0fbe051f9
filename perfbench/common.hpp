// common.hpp — shared plumbing of the repository benchmark: clocks,
// in-memory spans, sample statistics and the result record each
// workload hands back to main.cpp.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/latency.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// SplitMix64: derives independent instance seeds from the workload seed.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer, recorded by the benchmark around the
/// library call (the library itself is not instrumented).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;  ///< index into the same recorder, -1 = root
  std::uint64_t id = 0;      ///< spec or job id shared by a request's spans
};

/// Keeps spans in memory for one thread; disabled recorders take no
/// clock readings. Nesting is tracked with an explicit open-span stack.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  std::int32_t open(const char* name, std::uint64_t id) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = ns_since(epoch_, Clock::now());
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = ns_since(epoch_, Clock::now());
    stack_.pop_back();
  }

  /// A closed span measured elsewhere (e.g. from a due time to a
  /// completion stamp taken by another thread).
  void add(const char* name, std::uint64_t id, Clock::time_point begin,
           Clock::time_point end) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.id = id;
    s.start_ns = ns_since(epoch_, begin);
    s.end_ns = ns_since(epoch_, end);
    spans_.push_back(s);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t id)
      : rec_(rec), index_(rec.open(name, id)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t index_;
};

/// Per-name durations (microseconds) and total self time (seconds):
/// a span's self time is its duration minus its direct children's.
struct LayerTimes {
  std::vector<double> us;
  double self_s = 0;
};

inline std::map<std::string, LayerTimes> layer_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    LayerTimes& lt = out[spans[i].name];
    lt.us.push_back(static_cast<double>(dur) / 1e3);
    lt.self_s += static_cast<double>(dur - child_ns[i]) / 1e9;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// The tail: the highest percentile with at least ten samples above
/// it, i.e. the eleventh-largest sample, at nearest-rank percentile
/// 100 * (n - 10) / n. A fixed ladder of percentiles (p90, p95, ...)
/// would put it wherever the sample count happens to fall, often on
/// the steep lower edge of the few heavy specs or requests, where one
/// of them moving by a rank moves the value by 2x. Samples of 20 or
/// fewer report the median.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t beyond = 0;
};

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > 20 ? n - 10 : (n + 1) / 2;  // 1-based
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The process's peak resident set so far, in MB (ru_maxrss is in kB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run returns to main.cpp.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< engine errors, lost responses, check mismatches
  std::vector<std::string> mismatches;  ///< first few, for the log
  /// Printed with --trace 0 (end-to-end) or --trace 1 (per-layer).
  std::map<std::string, Metric> metrics;
  /// Extra numbers for the record line (sample counts, percentiles,
  /// determinism figures); never part of the gated metric set.
  std::map<std::string, double> record;
  std::vector<Span> spans;  ///< traced run only, written out by main
  /// Peak RSS when the (first) timed window ended, before the post-run
  /// checks and references allocate; main reports it as peak_rss_mb.
  double window_peak_rss_mb = 0;

  void fail(std::string why) {
    ++failed;
    if (mismatches.size() < 8) mismatches.push_back(std::move(why));
  }
};

/// Median set-up time over seven repetitions of `setup`; the state
/// built by the last repetition is the one the workload runs on.
template <typename F>
double median_setup_seconds(F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Work counted at the layer boundaries (sums over a pass). A layer a
/// workload never calls keeps zeros, and its metrics read 0.
struct Counters {
  std::size_t spec_bytes = 0;
  std::size_t synth_calls = 0, synth_ok = 0, schedule_slots = 0;
  std::size_t verify_calls = 0;
  rtg::core::VerifyStats verify;
  std::size_t exact_calls = 0, exact_decided = 0, exact_states = 0;
  std::size_t exec_calls = 0, exec_dispatches = 0;
  std::size_t monitor_slots = 0, monitor_queries = 0, monitor_peak_buffered = 0;
  std::size_t deploy_calls = 0, deploy_ok = 0, seam_windows = 0, seam_seeks = 0;
  std::size_t tolerant_calls = 0, tolerant_scenarios = 0, tolerant_covered = 0;
  /// Healed and blind fault runs are counted apart: [0] healed, [1] blind.
  std::size_t fault_runs = 0;
  std::size_t proof_checks[2] = {0, 0}, windows_total[2] = {0, 0}, windows_ok[2] = {0, 0};

  Counters& operator+=(const Counters& o);
};

/// Fills every per-layer metric from a traced pass: per-call p50/p99
/// and total self time per span name, plus the counters as per-call
/// means. Service metrics the caller did not set read 0.
void emit_layer_metrics(const std::vector<Span>& spans, const Counters& c, Result& r);

/// The end-to-end metrics of a closed-loop pass, from per-spec best
/// times: p50 and tail over the pool's specs, and the one-client rate
/// those times give (specs / sum of per-spec best times).
void emit_closed_loop_metrics(double setup_s, const std::vector<double>& per_spec_ms,
                              Result& r);

/// One spec's trip through a closed-loop pipeline.
template <typename Check>
struct Outcome {
  std::size_t pool_index = 0;
  double verdict_ms = 0;
  Counters counters;
  Check check;  ///< what the post-run correctness checks need
};

template <typename Check>
struct ClosedPass {
  std::size_t pool_size = 0;
  std::vector<Outcome<Check>> specs;
  double seconds = 0;
  std::vector<Span> spans;

  /// Each pool spec's best time to verdict over the passes it got.
  /// Every visit of a spec repeats the same work on the same input, so
  /// their spread is interference from the host, not the program: on a
  /// shared host whose single-thread speed drifts by up to 2x over
  /// 10 s windows, the median of a spec's visits still follows the
  /// drift, while the fastest visit of the dozen or more a run makes
  /// does not.
  [[nodiscard]] std::vector<double> per_spec_ms() const {
    std::vector<std::vector<double>> by(pool_size);
    for (const auto& o : specs) by[o.pool_index].push_back(o.verdict_ms);
    std::vector<double> out;
    for (const auto& v : by) {
      if (!v.empty()) out.push_back(*std::min_element(v.begin(), v.end()));
    }
    return out;
  }
};

/// A spec whose visits have taken more than this share of a run is not
/// visited again, so one slow spec cannot take the samples of the rest.
constexpr double kRevisitShare = 0.125;

/// Closed loop, one client: runs `one(pool_index, id, recorder, outcome)`
/// over the pool in order, pass after pass, until `seconds` of wall
/// time have passed, skipping specs over their revisit budget.
template <typename Check, typename One>
ClosedPass<Check> closed_loop(std::size_t pool_size, double seconds, bool traced, One&& one) {
  ClosedPass<Check> pass;
  pass.pool_size = pool_size;
  const auto start = Clock::now();
  SpanRecorder rec(traced, start);
  std::vector<double> spent(pool_size, 0);
  auto now = start;
  std::uint64_t id = 0;
  for (bool ran = true; ran;) {
    ran = false;
    for (std::size_t k = 0; k < pool_size && seconds_between(start, now) < seconds; ++k) {
      if (spent[k] > kRevisitShare * seconds) continue;
      const auto t0 = Clock::now();
      Outcome<Check> o;
      o.pool_index = k;
      {
        ScopedSpan root(rec, "pipeline", id);
        one(k, id, rec, o);
      }
      now = Clock::now();
      o.verdict_ms = seconds_between(t0, now) * 1e3;
      spent[k] += o.verdict_ms / 1e3;
      pass.specs.push_back(std::move(o));
      ++id;
      ran = true;
    }
  }
  pass.seconds = seconds_between(start, now);
  pass.spans = rec.spans();
  return pass;
}

/// Runs a closed-loop workload's measured part. Untraced (--trace 0):
/// one pass over `args.seconds`, end-to-end metrics. Traced: an
/// untraced and a traced pass of half the time each over the same
/// inputs; per-layer metrics come from the traced pass and the
/// throughput difference between the two is the tracing overhead.
template <typename Check, typename PassFn, typename CheckFn>
void finish_closed_loop(const Args& args, double setup_s, PassFn&& pass, CheckFn&& check,
                        Result& r) {
  auto summed = [](const ClosedPass<Check>& p) {
    Counters c;
    for (const auto& o : p.specs) c += o.counters;
    return c;
  };
  auto record_exact = [&](const Counters& c) {
    r.record["exact.states"] = static_cast<double>(c.exact_states);
    r.record["exact.decided_ratio"] =
        ratio(static_cast<double>(c.exact_decided), static_cast<double>(c.exact_calls));
  };
  if (!args.trace) {
    const ClosedPass<Check> p = pass(args.seconds, false);
    r.window_peak_rss_mb = peak_rss_mb();
    check(p, r);
    emit_closed_loop_metrics(setup_s, p.per_spec_ms(), r);
    r.record["specs_run"] = static_cast<double>(p.specs.size());
    r.record["wall_specs_per_s"] = ratio(static_cast<double>(p.specs.size()), p.seconds);
    const Counters c = summed(p);
    record_exact(c);
    r.record["monitor_slots_per_s"] = ratio(static_cast<double>(c.monitor_slots), p.seconds);
    return;
  }
  const ClosedPass<Check> plain = pass(args.seconds / 2, false);
  const ClosedPass<Check> traced = pass(args.seconds / 2, true);
  r.window_peak_rss_mb = peak_rss_mb();
  check(plain, r);
  check(traced, r);
  const auto rate = [](const ClosedPass<Check>& p) {
    double total_ms = 0;
    const std::vector<double> ms = p.per_spec_ms();
    for (const double v : ms) total_ms += v;
    return ratio(1e3 * static_cast<double>(ms.size()), total_ms);
  };
  r.metrics["trace.overhead_pct"] = {100.0 * (ratio(rate(plain), rate(traced)) - 1.0), "%"};
  r.record["setup_s"] = setup_s;
  const Counters c = summed(traced);
  record_exact(c);
  emit_layer_metrics(traced.spans, c, r);
  r.spans = traced.spans;
}

Result run_scale_pipeline(const Args& args);
Result run_mapped_corpus(const Args& args);
Result run_service_mixed(const Args& args);

}  // namespace perfbench
