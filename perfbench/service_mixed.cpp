// service_mixed — the batch service under an open-loop job stream.
//
// One generator thread drives an in-process svc::VerifyService (2
// workers, 4 tenants). A run has a saturation phase (a closed window of
// eight jobs per worker: the throughput ceiling) and a ladder of fixed
// arrival rates (open loop). Jobs come in cycles: one cycle is every
// job kind -- verify, heuristic synth, exact synth, map with tolerate 0
// and 1 (shared bus of two processors), monitor -- over each spec of the
// standing corpus gen::corpus_options(0..23), in a seeded order, plus a
// repeat of every fourth request a few jobs later. The result cache is
// sized below a cycle's distinct requests, so the repeats hit and the
// rest miss. Every run serves the same multiset of requests; the seed
// orders them. The parallelism is across jobs, not within one: this
// exercises admission, dispatch, the watchdog and the cache while the
// same core/map engines run as many small jobs. (Multi-second map
// instances, such as corpus index 29, are measured by mapped_corpus: in
// a two-worker service one of them decides every percentile by where
// the seeded order puts it.)
//
// Open-loop timing: a job is timed from when it was due, not when it was
// sent, so generator lateness is charged to the job; completion is
// stamped by a poller thread that sweeps every outstanding future, so a
// slow job never delays the stamp of a fast one behind it.
#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "core/runtime.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "map/deploy.hpp"
#include "map/fault_tolerance.hpp"
#include "monitor/streaming_monitor.hpp"
#include "monitor/trace_io.hpp"
#include "spec/compile.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using namespace rtg;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kCacheCapacity = 32;  // below a cycle's distinct requests
constexpr std::size_t kCycleSpecs = 24;
constexpr std::uint64_t kMapProcessors = 2;
constexpr core::Time kTracePeriods = 8;  // schedule periods per monitor trace

/// The ladder is stated as fractions of the saturation throughput the
/// saturation phase measured at the commit that introduced this
/// benchmark: about 800 jobs/s (2 workers; median of 10 seeds on a
/// 4-core x86-64 VM). The first step, a quarter of that ceiling, is the
/// reference rate of the end-to-end metrics; the last lies above the
/// ceiling, so at that commit it fails the limit and max_rate_jobs_s has
/// room to rise. A rate is met when its p99 and the time its backlog
/// takes to drain both stay within kP99LimitMs, twice the reference
/// rate's p99 measured there (about 50 ms: single map and monitor jobs).
/// Each phase runs whole cycles, about its share of the run's seconds;
/// the over-ceiling step is kept short so its backlog stays queued
/// rather than shed.
constexpr double kCeilingJobsS = 800;
constexpr std::array<double, 5> kLadder = {0.25, 0.5, 0.75, 1.0, 1.25};
constexpr std::array<double, 5> kLadderShare = {0.45, 0.08, 0.08, 0.08, 0.03};
constexpr double kRefRate = kLadder[0] * kCeilingJobsS;
constexpr double kSaturationShare = 0.2;
constexpr std::size_t kSaturationWindow = 8 * kWorkers;
constexpr double kP99LimitMs = 100;
/// Jobs in flight before the service sheds: above the default 256, so
/// the over-ceiling step's backlog (a few hundred jobs on a slow host)
/// queues instead of being rejected, which would count as a failure.
constexpr std::size_t kMaxPending = 1024;

enum Kind : std::uint8_t { kVerify, kSynth, kExact, kMap0, kMap1, kMonitor, kKinds };
constexpr std::array<const char*, kKinds> kKindName = {"verify", "synth", "exact",
                                                       "map0",   "map1",  "monitor"};
constexpr std::array<const char*, kKinds> kJobSpan = {
    "svc.job.verify", "svc.job.synth", "svc.job.exact",
    "svc.job.map0",   "svc.job.map1",  "svc.job.monitor"};

/// One pool spec and the payloads the generator ships with it.
struct PoolSpec {
  std::string spec;
  std::string schedule;  ///< heuristic schedule text; empty when synthesis failed
  std::string trace;     ///< .rtt bytes of that schedule; empty likewise
};

struct JobDesc {
  std::size_t spec = 0;
  Kind kind = kVerify;
};

/// One cycle of requests in a seeded order. Verify and monitor jobs need
/// a synthesized schedule, so specs the heuristic cannot schedule get
/// only the other kinds.
std::vector<JobDesc> draw_cycle(const std::vector<PoolSpec>& pool, std::uint64_t seed) {
  std::vector<JobDesc> fresh;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (int k = 0; k < kKinds; ++k) {
      if ((k == kVerify || k == kMonitor) && pool[i].schedule.empty()) continue;
      fresh.push_back({i, static_cast<Kind>(k)});
    }
  }
  std::uint64_t state = seed;
  auto next = [&](std::size_t bound) {
    state = mix(state, 1);
    return static_cast<std::size_t>(state % bound);
  };
  for (std::size_t i = fresh.size(); i > 1; --i) std::swap(fresh[i - 1], fresh[next(i)]);
  std::vector<JobDesc> out;
  std::vector<std::pair<std::size_t, JobDesc>> pending;  // (fresh jobs to wait, request)
  for (std::size_t p = 0; p < fresh.size(); ++p) {
    out.push_back(fresh[p]);
    for (auto it = pending.begin(); it != pending.end();) {
      if (--it->first == 0) {
        out.push_back(it->second);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (p % 4 == 0) pending.push_back({1 + next(3), fresh[p]});
  }
  for (const auto& [wait, job] : pending) out.push_back(job);
  return out;
}

/// The job list of one phase: `cycles` cycles, each in its own order.
std::vector<JobDesc> draw_phase(const std::vector<PoolSpec>& pool, std::uint64_t seed,
                                std::size_t phase, std::size_t cycles) {
  std::vector<JobDesc> jobs;
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::vector<JobDesc> cycle = draw_cycle(pool, mix(mix(seed, phase), c));
    jobs.insert(jobs.end(), cycle.begin(), cycle.end());
  }
  return jobs;
}

svc::JobRequest make_request(const std::vector<PoolSpec>& pool, const JobDesc& j,
                             std::uint64_t id) {
  svc::JobRequest req;
  req.id = id;
  req.tenant = "tenant" + std::to_string(id % kTenants);
  req.spec = pool[j.spec].spec;
  switch (j.kind) {
    case kVerify:
      req.kind = svc::JobKind::kVerify;
      req.schedule = pool[j.spec].schedule;
      break;
    case kSynth:
      req.kind = svc::JobKind::kSynthesize;
      break;
    case kExact:
      req.kind = svc::JobKind::kSynthesize;
      req.exact = true;
      break;
    case kMap0:
    case kMap1:
      req.kind = svc::JobKind::kMap;
      req.processors = kMapProcessors;
      req.tolerate = j.kind == kMap1 ? 1 : 0;
      break;
    case kMonitor:
      req.kind = svc::JobKind::kMonitor;
      req.trace = pool[j.spec].trace;
      break;
    case kKinds:
      break;
  }
  return req;
}

PoolSpec make_pool_spec(std::size_t index) {
  PoolSpec p;
  p.spec = gen::generate(gen::corpus_options(index)).spec;
  const spec::CompileResult compiled = spec::compile_text(p.spec);
  if (!compiled.ok()) return p;
  core::HeuristicOptions ho;
  ho.n_threads = 1;
  const core::HeuristicResult h = core::latency_schedule(*compiled.model, ho);
  if (!h.success) return p;
  p.schedule = core::schedule_to_text(*h.schedule, h.scheduled_model.comm());
  monitor::RttWriter writer(monitor::model_fingerprint(h.scheduled_model));
  static_cast<void>(core::run_executive(
      *h.schedule, h.scheduled_model,
      core::ConstraintArrivals(h.scheduled_model.constraint_count()),
      kTracePeriods * h.schedule->length(), &writer));
  std::ostringstream bytes;
  writer.finish(bytes);
  p.trace = bytes.str();
  return p;
}

/// The service's defaults (exact state budget included), with the
/// worker count, a cache below a cycle's distinct requests and room to
/// queue the over-ceiling step.
svc::ServiceOptions service_options() {
  svc::ServiceOptions o;
  o.workers = kWorkers;
  o.cache_capacity = kCacheCapacity;
  o.admission.max_pending = kMaxPending;
  return o;
}

// ---------------------------------------------------------------------------
// Measurement

/// One submitted job. The generator fills the first block before handing
/// the index to the poller; the poller fills the second before bumping
/// the completion count.
struct Record {
  int phase = 0;        ///< -1 = saturation, else ladder index
  Clock::time_point due;
  double lag_us = 0;    ///< generator lateness past `due` (ladder jobs)
  double submit_us = 0;
  std::future<svc::JobResponse> future;
  Clock::time_point done;
  bool completed = false;
  svc::JobResponse response;
};

/// Sweeps outstanding futures and stamps each completion as it becomes
/// ready. It spins (yielding) rather than sleeping: a timed sleep's
/// wake-up, slow on a loaded host, would land in every stamp. The stamp
/// resolution is the sweep gap, reported alongside.
class Poller {
 public:
  explicit Poller(std::vector<Record>& records)
      : records_(records), thread_([this] { loop(); }) {}
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void watch(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    incoming_.push_back(index);
  }

  [[nodiscard]] std::size_t completed() const { return completed_.load(std::memory_order_acquire); }

  /// Jobs still outstanding when the poller stops count as lost.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] double max_gap_us() const { return max_gap_us_; }
  [[nodiscard]] double mean_gap_us() const { return ratio(total_gap_us_, static_cast<double>(sweeps_)); }

 private:
  void loop() {
    std::vector<std::size_t> live;
    auto last = Clock::now();
    while (!stop_.load()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        live.insert(live.end(), incoming_.begin(), incoming_.end());
        incoming_.clear();
      }
      for (std::size_t k = 0; k < live.size();) {
        Record& r = records_[live[k]];
        if (r.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          r.done = Clock::now();
          r.response = r.future.get();
          // A served body (schedule text, monitor summary) is not
          // checked; dropping it keeps the records out of peak_rss_mb.
          if (r.response.status == svc::JobStatus::kOk) std::string().swap(r.response.detail);
          r.completed = true;
          completed_.fetch_add(1, std::memory_order_release);
          live[k] = live.back();
          live.pop_back();
        } else {
          ++k;
        }
      }
      const auto now = Clock::now();
      const double gap = seconds_between(last, now) * 1e6;
      last = now;
      max_gap_us_ = std::max(max_gap_us_, gap);
      total_gap_us_ += gap;
      ++sweeps_;
      std::this_thread::yield();
    }
  }

  std::vector<Record>& records_;
  std::mutex mutex_;
  std::vector<std::size_t> incoming_;
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> stop_{false};
  double max_gap_us_ = 0;
  double total_gap_us_ = 0;
  std::size_t sweeps_ = 0;
  std::thread thread_;  // last: starts after every member it uses
};

struct Measured {
  std::vector<Record> records;
  std::size_t submitted = 0;
  double saturation_rate = 0;  ///< jobs/s in the saturation phase
  std::array<double, kLadder.size()> drain_s{};
  double poll_gap_max_us = 0;
  double poll_gap_mean_us = 0;
  std::size_t lost = 0;
  svc::ServiceHealth health;
};

/// Waits until `poller` has seen `target` completions or `limit_s` passes.
bool wait_completed(const Poller& poller, std::size_t target, double limit_s) {
  const auto t0 = Clock::now();
  while (poller.completed() < target) {
    if (seconds_between(t0, Clock::now()) > limit_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// A run of consecutive jobs of one phase: -1 = saturation, else the
/// ladder step. `end` is one past the segment's last job.
struct Segment {
  int phase = 0;
  std::size_t end = 0;
};

/// The run's job list and its segments: saturation first, then the
/// ladder with the reference rate's cycles split into chunks placed
/// before, between and after the other steps, so its samples span the
/// whole run rather than one stretch of host conditions.
struct Plan {
  std::vector<JobDesc> jobs;
  std::size_t cycle_len = 0;
  std::vector<Segment> segments;
};

Plan make_plan(const std::vector<PoolSpec>& pool, std::uint64_t seed, double seconds) {
  Plan plan;
  plan.cycle_len = draw_cycle(pool, 0).size();
  auto cycles = [&](double share, double rate) {
    return static_cast<std::size_t>(std::max(
        1.0, std::round(share * seconds * rate / static_cast<double>(plan.cycle_len))));
  };
  auto add = [&](int phase, std::size_t n) {
    const std::vector<JobDesc> jobs =
        draw_phase(pool, seed, plan.segments.size(), n);
    plan.jobs.insert(plan.jobs.end(), jobs.begin(), jobs.end());
    plan.segments.push_back({phase, plan.jobs.size()});
  };
  add(-1, cycles(kSaturationShare, kCeilingJobsS));
  constexpr std::size_t kChunks = kLadder.size();
  const std::size_t ref = std::max(kChunks, cycles(kLadderShare[0], kRefRate));
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
    add(0, ref / kChunks + (chunk < ref % kChunks ? 1 : 0));
    if (chunk + 1 < kLadder.size()) {
      add(static_cast<int>(chunk + 1),
          cycles(kLadderShare[chunk + 1], kCeilingJobsS * kLadder[chunk + 1]));
    }
  }
  return plan;
}

Measured measure(svc::VerifyService& service, const std::vector<PoolSpec>& pool,
                 const Plan& plan, SpanRecorder& rec) {
  const std::vector<JobDesc>& jobs = plan.jobs;
  Measured m;
  m.records.resize(jobs.size());
  Poller poller(m.records);
  std::size_t next = 0;
  auto submit = [&](int phase, Clock::time_point due) {
    Record& r = m.records[next];
    r.phase = phase;
    r.due = due;
    svc::JobRequest req = make_request(pool, jobs[next], next);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(rec, "svc.submit", next);
      r.future = service.submit(std::move(req));
    }
    r.submit_us = seconds_between(t0, Clock::now()) * 1e6;
    poller.watch(next);
    ++next;
  };

  // Saturation: keep eight jobs per worker outstanding, so no worker
  // waits on the generator's reaction time.
  {
    const auto start = Clock::now();
    while (next < plan.segments.front().end) {
      while (next - poller.completed() >= kSaturationWindow) std::this_thread::yield();
      submit(-1, Clock::now());
    }
    // The rate over each successive cycle's worth of completions; the
    // median of those is robust to a burst of host noise. Records are
    // read only once the poller has published every completion.
    std::vector<Clock::time_point> done;
    if (wait_completed(poller, next, 60)) {
      for (std::size_t i = 0; i < next; ++i) done.push_back(m.records[i].done);
    }
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    auto from = start;
    for (std::size_t c = plan.cycle_len; c <= done.size(); c += plan.cycle_len) {
      rates.push_back(ratio(static_cast<double>(plan.cycle_len), seconds_between(from, done[c - 1])));
      from = done[c - 1];
    }
    m.saturation_rate = median(rates);
  }

  // Fixed-rate ladder, open loop: job i of a segment is due at
  // start + i/rate.
  for (std::size_t g = 1; g < plan.segments.size(); ++g) {
    const int p = plan.segments[g].phase;
    const double rate = kCeilingJobsS * kLadder[static_cast<std::size_t>(p)];
    const auto start = Clock::now();
    for (std::size_t i = 0; next < plan.segments[g].end; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      // Sleep to just short of the due time, then spin: wake-up latency
      // would otherwise show up as generator lag.
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
      m.records[next].lag_us = seconds_between(due, Clock::now()) * 1e6;
      submit(p, due);
    }
    const auto last_sent = Clock::now();
    wait_completed(poller, next, 60);
    double& drain = m.drain_s[static_cast<std::size_t>(p)];
    drain = std::max(drain, seconds_between(last_sent, Clock::now()));
  }
  m.submitted = next;
  poller.stop();
  m.poll_gap_max_us = poller.max_gap_us();
  m.poll_gap_mean_us = poller.mean_gap_us();
  for (std::size_t i = 0; i < next; ++i) {
    if (!m.records[i].completed) ++m.lost;
  }
  m.health = service.health();
  return m;
}

// ---------------------------------------------------------------------------
// References: every request re-run directly through the public engines,
// after the timed window.

struct Reference {
  bool computed = false;
  bool verdict = false;
  bool heuristic_verdict = false;  ///< kExact: the degraded-mode answer
  core::FeasibilityStatus exact = core::FeasibilityStatus::kUnknown;
};

Reference reference_for(const PoolSpec& p, Kind kind) {
  Reference ref;
  ref.computed = true;
  const spec::CompileResult compiled = spec::compile_text(p.spec);
  const core::GraphModel& model = *compiled.model;
  switch (kind) {
    case kVerify: {
      const core::GraphModel pipelined = core::pipeline_model(model).model;
      const core::ScheduleParseResult parsed = core::schedule_from_text(p.schedule, pipelined.comm());
      ref.verdict = parsed.ok() &&
                    core::verify_schedule(*parsed.schedule, pipelined, {.n_threads = 1}).feasible;
      break;
    }
    case kSynth:
    case kExact: {
      core::HeuristicOptions ho;
      ho.n_threads = 1;
      ref.heuristic_verdict = core::latency_schedule(model, ho).success;
      ref.verdict = ref.heuristic_verdict;
      if (kind == kExact) {
        core::ExactOptions eo;
        eo.state_budget = service_options().exact_state_budget;
        eo.n_threads = 1;
        ref.exact = core::exact_feasible(model, eo).status;
        ref.verdict = ref.exact == core::FeasibilityStatus::kFeasible;
      }
      break;
    }
    case kMap0:
    case kMap1: {
      map::DeployOptions d;
      d.local.n_threads = 1;
      const map::Platform bus = map::Platform::bus(kMapProcessors);
      if (kind == kMap0) {
        ref.verdict = map::deploy(model, bus, d).success;
      } else {
        map::TolerantOptions t;
        t.k = 1;
        t.deploy = d;
        const map::TolerantDeployment td = map::deploy_tolerant(model, bus, t);
        ref.verdict = td.success && td.tolerant;
      }
      break;
    }
    case kMonitor: {
      const core::GraphModel pipelined = core::pipeline_model(model).model;
      monitor::StreamingMonitor mon(pipelined);
      const monitor::RttFile file = monitor::read_trace_buffer(p.trace);
      for (const sim::Slot s : file.trace.slots()) mon.on_slot(s);
      ref.verdict = mon.report().ok();
      break;
    }
    case kKinds:
      break;
  }
  return ref;
}

/// Computes the reference of every distinct request in `used` on a few
/// threads (outside the timed window, so they may use every core).
std::vector<Reference> references(const std::vector<PoolSpec>& pool,
                                  const std::vector<JobDesc>& used) {
  std::vector<Reference> refs(pool.size() * kKinds);
  std::vector<std::size_t> todo;
  for (const JobDesc& j : used) {
    const std::size_t key = j.spec * kKinds + j.kind;
    if (!refs[key].computed) {
      refs[key].computed = true;
      todo.push_back(key);
    }
  }
  std::atomic<std::size_t> cursor{0};
  auto work = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < todo.size(); i = cursor.fetch_add(1)) {
      const std::size_t key = todo[i];
      refs[key] = reference_for(pool[key / kKinds], static_cast<Kind>(key % kKinds));
    }
  };
  const std::size_t n = std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return refs;
}

/// Compares every response with its reference; returns the number of
/// exact jobs the service left undecided (budget exhausted).
std::size_t check(const Measured& m, const std::vector<JobDesc>& jobs,
                  const std::vector<Reference>& refs, Result& r) {
  std::size_t undecided = 0;
  for (std::size_t i = 0; i < m.submitted; ++i) {
    const Record& rec = m.records[i];
    const JobDesc& j = jobs[i];
    const Reference& ref = refs[j.spec * kKinds + j.kind];
    ++r.attempted;
    const std::string at = std::string("job ") + std::to_string(i) + " (" + kKindName[j.kind] + "): ";
    if (!rec.completed) {
      r.fail(at + "no response");
      continue;
    }
    const svc::JobResponse& rsp = rec.response;
    const bool budget_out = j.kind == kExact && !rsp.degraded &&
                            rsp.status == svc::JobStatus::kFailed &&
                            ref.exact == core::FeasibilityStatus::kUnknown;
    if (budget_out) {
      ++undecided;
      continue;
    }
    if (rsp.status != svc::JobStatus::kOk) {
      r.fail(at + "status " + std::string(svc::job_status_name(rsp.status)) + ": " + rsp.detail);
      continue;
    }
    const bool expected = rsp.degraded ? ref.heuristic_verdict : ref.verdict;
    if (rsp.verdict != expected) r.fail(at + "verdict differs from the direct engine run");
  }
  return undecided;
}

// ---------------------------------------------------------------------------

struct Setup {
  std::vector<PoolSpec> pool;
  Plan plan;
  std::unique_ptr<svc::VerifyService> service;
};

/// Builds a service and runs one job of each kind through it, so the
/// resident workers, the dispatcher and the allocator are warm.
std::unique_ptr<svc::VerifyService> warm_service(const std::vector<PoolSpec>& pool) {
  auto service = std::make_unique<svc::VerifyService>(service_options());
  const PoolSpec* warm = nullptr;
  for (const PoolSpec& p : pool) {
    if (!p.schedule.empty()) {
      warm = &p;
      break;
    }
  }
  if (warm != nullptr) {
    std::vector<PoolSpec> one = {*warm};
    std::vector<std::future<svc::JobResponse>> futures;
    for (int k = 0; k < kKinds; ++k) {
      futures.push_back(service->submit(make_request(one, {0, static_cast<Kind>(k)}, 1u << 30)));
    }
    for (auto& f : futures) f.wait();
  }
  return service;
}

Setup build(std::uint64_t seed, double seconds) {
  Setup s;
  for (std::size_t i = 0; i < kCycleSpecs; ++i) s.pool.push_back(make_pool_spec(i));
  s.plan = make_plan(s.pool, seed, seconds);
  return s;
}

/// Due-to-done times (ms) of the jobs of ladder phase `phase`.
std::vector<double> phase_ms(const Measured& m, int phase) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < m.submitted; ++i) {
    const Record& rec = m.records[i];
    if (rec.completed && rec.phase == phase) ms.push_back(seconds_between(rec.due, rec.done) * 1e3);
  }
  return ms;
}

/// Each distinct request's best due-to-done time (ms) over its
/// uncached occurrences at the reference rate (about one per cycle).
/// Cache hits are left out: whether an occurrence hits depends on where
/// the seeded order put the request's previous copy. A request's other
/// occurrences differ from its best by queueing behind a heavy job that
/// the order placed just before it (a map job holds a worker for up to
/// ~100 ms) and by host interference; both vary from run to run far
/// more than the service's own cost does. The queueing the stream
/// causes is measured by the ladder's p99s and svc.job_us.p99.
std::vector<double> per_request_ms(const Measured& m, const std::vector<JobDesc>& jobs) {
  std::vector<std::vector<double>> by(kCycleSpecs * kKinds);
  for (std::size_t i = 0; i < m.submitted; ++i) {
    const Record& rec = m.records[i];
    if (!rec.completed || rec.phase != 0 || rec.response.cached) continue;
    by[jobs[i].spec * kKinds + jobs[i].kind].push_back(seconds_between(rec.due, rec.done) * 1e3);
  }
  std::vector<double> out;
  for (const auto& v : by) {
    if (!v.empty()) out.push_back(*std::min_element(v.begin(), v.end()));
  }
  return out;
}

/// Generator lateness of the ladder jobs: of step `phase`, or of every
/// step when `phase` is negative.
std::vector<double> lag_us(const Measured& m, int phase) {
  std::vector<double> lag;
  for (std::size_t i = 0; i < m.submitted; ++i) {
    const Record& rec = m.records[i];
    if (rec.phase >= 0 && (phase < 0 || rec.phase == phase)) lag.push_back(rec.lag_us);
  }
  return lag;
}

/// Records each ladder step's p99, drain time and generator lateness;
/// returns the highest rate whose p99 and drain time both stay within
/// the limit (0: none).
double record_ladder(const Measured& m, Result& r) {
  double max_rate = 0;
  for (std::size_t p = 0; p < kLadder.size(); ++p) {
    const double p99 = percentile(phase_ms(m, static_cast<int>(p)), 99);
    const std::string key = "rate" + std::to_string(p);
    r.record[key + ".jobs_s"] = kCeilingJobsS * kLadder[p];
    r.record[key + ".p99_ms"] = p99;
    r.record[key + ".drain_ms"] = m.drain_s[p] * 1e3;
    r.record[key + ".lag_us.p99"] = percentile(lag_us(m, static_cast<int>(p)), 99);
    if (p99 <= kP99LimitMs && m.drain_s[p] * 1e3 <= kP99LimitMs) {
      max_rate = std::max(max_rate, kCeilingJobsS * kLadder[p]);
    }
  }
  return max_rate;
}

void emit_service_layers(const Measured& m, const std::vector<JobDesc>& jobs,
                         std::size_t undecided, std::size_t exact_jobs, Result& r) {
  std::vector<double> submit_us, lag = lag_us(m, -1);
  std::array<std::vector<double>, kKinds> by_kind;
  std::vector<double> all, queue_ms, run_ms;
  for (std::size_t i = 0; i < m.submitted; ++i) {
    const Record& rec = m.records[i];
    submit_us.push_back(rec.submit_us);
    if (!rec.completed || rec.phase != 0) continue;
    const double us = seconds_between(rec.due, rec.done) * 1e6;
    all.push_back(us);
    by_kind[jobs[i].kind].push_back(us);
    queue_ms.push_back(static_cast<double>(rec.response.queue_ms));
    run_ms.push_back(static_cast<double>(rec.response.run_ms));
  }
  auto& x = r.metrics;
  x["svc.submit_us.p50"] = {median(submit_us), "us"};
  x["svc.submit_us.p99"] = {percentile(submit_us, 99), "us"};
  x["svc.job_us.p50"] = {median(all), "us"};
  x["svc.job_us.p99"] = {percentile(all, 99), "us"};
  for (int k = 0; k < kKinds; ++k) {
    x[std::string("svc.job_us.") + kKindName[k]] = {median(by_kind[k]), "us"};
  }
  const svc::ServiceHealth& h = m.health;
  x["svc.admitted"] = {static_cast<double>(h.admitted), "count"};
  x["svc.deferred"] = {static_cast<double>(h.deferred), "count"};
  x["svc.rejected"] = {static_cast<double>(h.rejected), "count"};
  x["svc.retries"] = {static_cast<double>(h.retries), "count"};
  x["svc.redeliveries"] = {static_cast<double>(h.redeliveries), "count"};
  x["svc.degraded_jobs"] = {static_cast<double>(h.degraded_jobs), "count"};
  x["svc.mode_shifts"] = {static_cast<double>(h.mode_shifts.size()), "count"};
  x["svc.cache_hit_ratio"] = {
      ratio(static_cast<double>(h.cache_hits), static_cast<double>(h.cache_hits + h.cache_misses)),
      "ratio"};
  x["svc.queue_ms.p50"] = {median(queue_ms), "ms"};
  x["svc.run_ms.p50"] = {median(run_ms), "ms"};
  x["svc.undecided_ratio"] = {ratio(static_cast<double>(undecided), static_cast<double>(exact_jobs)), "ratio"};
  x["gen.lag_us.max"] = {lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()), "us"};
  x["gen.lag_us.p99"] = {percentile(lag, 99), "us"};
  x["svc.max_rate_jobs_s"] = {record_ladder(m, r), "1/s"};
}

}  // namespace

Result run_service_mixed(const Args& args) {
  Result r;
  Setup s;
  // The traced run measures two halves of the time, each a full plan.
  const double plan_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const double setup_s = median_setup_seconds([&] {
    s.service.reset();
    s = build(args.seed, plan_seconds);
    r.record["calibrated_cutoff"] = static_cast<double>(core::calibrate_serial_cutoff());
    s.service = warm_service(s.pool);
  });
  const std::vector<JobDesc>& jobs = s.plan.jobs;

  auto run_once = [&](svc::VerifyService& service, bool traced, std::vector<Span>* spans) {
    SpanRecorder rec(traced, Clock::now());
    Measured m = measure(service, s.pool, s.plan, rec);
    service.shutdown();
    if (spans != nullptr) {
      // Job spans run from the due time to the completion stamp.
      for (std::size_t i = 0; i < m.submitted; ++i) {
        const Record& x = m.records[i];
        if (x.completed) rec.add(kJobSpan[jobs[i].kind], i, x.due, x.done);
      }
      *spans = rec.spans();
    }
    return m;
  };

  std::vector<Reference> refs;
  auto finish = [&](const Measured& m) {
    if (refs.empty()) refs = references(s.pool, jobs);
    std::size_t exact_jobs = 0;
    for (std::size_t i = 0; i < m.submitted; ++i) exact_jobs += jobs[i].kind == kExact ? 1 : 0;
    const std::size_t undecided = check(m, jobs, refs, r);
    r.record["lost"] = static_cast<double>(m.lost);
    r.record["poll_gap_us.max"] = m.poll_gap_max_us;
    r.record["poll_gap_us.mean"] = m.poll_gap_mean_us;
    r.record["gen.lag_us.p99"] = percentile(lag_us(m, -1), 99);
    r.record["exact.undecided_ratio"] =
        ratio(static_cast<double>(undecided), static_cast<double>(exact_jobs));
    return std::make_pair(undecided, exact_jobs);
  };

  if (!args.trace) {
    const Measured m = run_once(*s.service, false, nullptr);
    r.window_peak_rss_mb = peak_rss_mb();
    finish(m);
    const std::vector<double> ms = per_request_ms(m, jobs);
    const Tail tail = tail_of(ms);
    r.metrics["setup_s"] = {setup_s, "s"};
    r.metrics["verdict_ms.p50"] = {median(ms), "ms"};
    r.metrics["verdict_ms.tail"] = {tail.value, "ms"};
    r.metrics["specs_per_s"] = {m.saturation_rate, "1/s"};
    r.record["verdict_ms.tail_percentile"] = tail.percentile;
    r.record["verdict_ms.tail_beyond"] = static_cast<double>(tail.beyond);
    r.record["samples"] = static_cast<double>(ms.size());
    r.record["reference_rate_jobs_s"] = kRefRate;
    r.record["max_rate_jobs_s"] = record_ladder(m, r);
    return r;
  }

  // Traced: the same plan once untraced and once traced, each on a
  // freshly warmed service, so both see the same requests.
  const Measured plain = run_once(*s.service, false, nullptr);
  std::vector<Span> spans;
  const Measured traced = run_once(*warm_service(s.pool), true, &spans);
  r.window_peak_rss_mb = peak_rss_mb();
  finish(plain);
  const auto [undecided, exact_jobs] = finish(traced);
  r.record["setup_s"] = setup_s;
  r.metrics["trace.overhead_pct"] = {
      100.0 * (ratio(plain.saturation_rate, traced.saturation_rate) - 1.0), "%"};
  emit_service_layers(traced, jobs, undecided, exact_jobs, r);
  emit_layer_metrics(spans, Counters{}, r);
  r.spans = std::move(spans);
  return r;
}

}  // namespace perfbench
