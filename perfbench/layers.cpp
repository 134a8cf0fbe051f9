// layers.cpp — turns spans and layer counters into the named metrics.
#include <string>

#include "common.hpp"

namespace perfbench {

Counters& Counters::operator+=(const Counters& o) {
  spec_bytes += o.spec_bytes;
  synth_calls += o.synth_calls;
  synth_ok += o.synth_ok;
  schedule_slots += o.schedule_slots;
  verify_calls += o.verify_calls;
  verify += o.verify;
  exact_calls += o.exact_calls;
  exact_decided += o.exact_decided;
  exact_states += o.exact_states;
  exec_calls += o.exec_calls;
  exec_dispatches += o.exec_dispatches;
  monitor_slots += o.monitor_slots;
  monitor_queries += o.monitor_queries;
  monitor_peak_buffered = std::max(monitor_peak_buffered, o.monitor_peak_buffered);
  deploy_calls += o.deploy_calls;
  deploy_ok += o.deploy_ok;
  seam_windows += o.seam_windows;
  seam_seeks += o.seam_seeks;
  tolerant_calls += o.tolerant_calls;
  tolerant_scenarios += o.tolerant_scenarios;
  tolerant_covered += o.tolerant_covered;
  fault_runs += o.fault_runs;
  for (int i = 0; i < 2; ++i) {
    proof_checks[i] += o.proof_checks[i];
    windows_total[i] += o.windows_total[i];
    windows_ok[i] += o.windows_ok[i];
  }
  return *this;
}

namespace {

double d(std::size_t v) { return static_cast<double>(v); }

}  // namespace

void emit_layer_metrics(const std::vector<Span>& spans, const Counters& c, Result& r) {
  const auto layers = layer_times(spans);
  const LayerTimes empty;
  auto lt = [&](const std::string& name) -> const LayerTimes& {
    const auto it = layers.find(name);
    return it == layers.end() ? empty : it->second;
  };
  auto& m = r.metrics;
  for (const char* layer : {"spec", "synth", "verify", "exact", "exec", "monitor", "deploy",
                            "tolerant", "fault_run.healed", "fault_run.blind"}) {
    const LayerTimes& t = lt(layer);
    const std::string key = layer;
    m[key + ".us.p50"] = {median(t.us), "us"};
    m[key + ".us.p99"] = {percentile(t.us, 99), "us"};
    m[key + ".self_s"] = {t.self_s, "s"};
  }

  m["spec.kb_per_s"] = {ratio(d(c.spec_bytes) / 1e3, lt("spec").self_s), "kB/s"};

  m["synth.success_ratio"] = {ratio(d(c.synth_ok), d(c.synth_calls)), "ratio"};
  m["synth.schedule_slots"] = {ratio(d(c.schedule_slots), d(c.synth_ok)), "slots"};

  const rtg::core::VerifyStats& v = c.verify;
  const double nv = d(c.verify_calls);
  m["verify.work_units"] = {ratio(d(v.work_units), nv), "count"};
  m["verify.embedding_queries"] = {ratio(d(v.embedding_queries), nv), "count"};
  m["verify.memo_hits"] = {ratio(d(v.memo_hits), nv), "count"};
  m["verify.memo_hit_ratio"] = {
      ratio(d(v.memo_hits), d(v.memo_hits + v.embedding_queries)), "ratio"};
  m["verify.index_seeks"] = {ratio(d(v.index_seeks), nv), "count"};
  m["verify.bitset_skips"] = {ratio(d(v.bitset_skips), nv), "count"};
  m["verify.arena_reuses"] = {ratio(d(v.arena_reuses), nv), "count"};
  m["verify.threads_used"] = {d(v.threads_used), "count"};

  m["exact.states"] = {ratio(d(c.exact_states), d(c.exact_calls)), "count"};
  m["exact.states_per_s"] = {ratio(d(c.exact_states), lt("exact").self_s), "1/s"};
  m["exact.decided_ratio"] = {ratio(d(c.exact_decided), d(c.exact_calls)), "ratio"};

  m["exec.dispatches_per_s"] = {ratio(d(c.exec_dispatches), lt("exec").self_s), "1/s"};
  m["monitor.embedding_queries"] = {ratio(d(c.monitor_queries), d(c.exec_calls)), "count"};
  m["monitor.peak_buffered_ops"] = {d(c.monitor_peak_buffered), "count"};
  m["monitor.slots_per_s"] = {ratio(d(c.monitor_slots), lt("monitor").self_s), "1/s"};

  m["deploy.success_ratio"] = {ratio(d(c.deploy_ok), d(c.deploy_calls)), "ratio"};
  m["seam.windows"] = {ratio(d(c.seam_windows), d(c.deploy_calls)), "count"};
  m["seam.index_seeks"] = {ratio(d(c.seam_seeks), d(c.deploy_calls)), "count"};

  m["tolerant.scenarios"] = {ratio(d(c.tolerant_scenarios), d(c.tolerant_calls)), "count"};
  m["tolerant.covered_ratio"] = {ratio(d(c.tolerant_covered), d(c.tolerant_scenarios)), "ratio"};

  const char* kMode[2] = {"fault_run.healed", "fault_run.blind"};
  for (int i = 0; i < 2; ++i) {
    const std::string key = kMode[i];
    m[key + ".proof_checks"] = {ratio(d(c.proof_checks[i]), d(c.fault_runs)), "count"};
    m[key + ".windows_ok"] = {ratio(d(c.windows_ok[i]), d(c.windows_total[i])), "ratio"};
  }

  // Service metrics: set by service_mixed before this call, 0 elsewhere.
  static const std::pair<const char*, const char*> kServiceMetrics[] = {
      {"svc.submit_us.p50", "us"},      {"svc.submit_us.p99", "us"},
      {"svc.job_us.p50", "us"},         {"svc.job_us.p99", "us"},
      {"svc.job_us.verify", "us"},      {"svc.job_us.synth", "us"},
      {"svc.job_us.exact", "us"},       {"svc.job_us.map0", "us"},
      {"svc.job_us.map1", "us"},        {"svc.job_us.monitor", "us"},
      {"svc.max_rate_jobs_s", "1/s"},   {"svc.admitted", "count"},
      {"svc.deferred", "count"},        {"svc.rejected", "count"},
      {"svc.retries", "count"},         {"svc.redeliveries", "count"},
      {"svc.degraded_jobs", "count"},   {"svc.mode_shifts", "count"},
      {"svc.cache_hit_ratio", "ratio"}, {"svc.queue_ms.p50", "ms"},
      {"svc.run_ms.p50", "ms"},         {"svc.undecided_ratio", "ratio"},
      {"gen.lag_us.max", "us"},         {"gen.lag_us.p99", "us"},
  };
  for (const auto& [name, unit] : kServiceMetrics) m.try_emplace(name, Metric{0, unit});
}

void emit_closed_loop_metrics(double setup_s, const std::vector<double>& per_spec_ms,
                              Result& r) {
  const Tail tail = tail_of(per_spec_ms);
  double total_ms = 0;
  for (const double v : per_spec_ms) total_ms += v;
  r.metrics["setup_s"] = {setup_s, "s"};
  r.metrics["verdict_ms.p50"] = {median(per_spec_ms), "ms"};
  r.metrics["verdict_ms.tail"] = {tail.value, "ms"};
  r.metrics["specs_per_s"] = {ratio(1e3 * d(per_spec_ms.size()), total_ms), "1/s"};
  r.record["verdict_ms.tail_percentile"] = tail.percentile;
  r.record["verdict_ms.tail_beyond"] = d(tail.beyond);
  r.record["samples"] = d(per_spec_ms.size());
}

}  // namespace perfbench
