#include "core/feasibility.hpp"

#include "core/bounds.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "rt/task.hpp"  // lcm_checked
#include "util/striped_map.hpp"
#include "util/thread_pool.hpp"

namespace rtg::core {

namespace {

// Slot encoding inside the game window: (element << 8) | phase for the
// phase-th slot of an execution, or one of two sentinels. Weights must
// fit in 8 bits.
constexpr std::uint32_t kSlotIdle = 0xFFFFFFFFu;
constexpr std::uint32_t kSlotPreStart = 0xFFFFFFFEu;

std::uint32_t encode_slot(ElementId e, Time phase) {
  return (static_cast<std::uint32_t>(e) << 8) |
         static_cast<std::uint32_t>(phase & 0xFF);
}

// Decodes the trailing `d` slots of the window into the complete
// executions they contain (partial executions at the cut are dropped),
// with starts relative to the window beginning. Appends into `ops`
// (cleared first) so the caller's scratch buffer is reused across the
// millions of window checks a search performs.
void window_ops(const std::deque<std::uint32_t>& window, Time d, const CommGraph& comm,
                std::vector<ScheduledOp>& ops) {
  ops.clear();
  const std::size_t n = window.size();
  const std::size_t begin = n - static_cast<std::size_t>(d);
  std::size_t i = begin;
  while (i < n) {
    const std::uint32_t s = window[i];
    if (s == kSlotIdle || s == kSlotPreStart) {
      ++i;
      continue;
    }
    const ElementId e = s >> 8;
    const Time phase = static_cast<Time>(s & 0xFF);
    const Time w = comm.weight(e);
    if (phase != 0) {
      // Execution started before the window; skip its remainder.
      ++i;
      continue;
    }
    // Check the full run 0..w-1 lies inside the window.
    if (i + static_cast<std::size_t>(w) <= n) {
      bool complete = true;
      for (Time k = 0; k < w; ++k) {
        if (window[i + static_cast<std::size_t>(k)] != encode_slot(e, k)) {
          complete = false;
          break;
        }
      }
      if (complete) {
        ops.push_back(ScheduledOp{e, static_cast<Time>(i - begin), w});
        i += static_cast<std::size_t>(w);
        continue;
      }
    }
    ++i;
  }
}

struct GameContext {
  const GraphModel& model;
  Time max_deadline = 0;   // D: window size
  Time periodic_lcm = 1;   // Hp: clock modulus for periodic constraints
  bool has_periodic = false;

  std::deque<std::uint32_t> window;  // always exactly D slots
  Time clock = 0;                    // total slots emitted
  // Decoded-window arena reused across checks; contexts are per-worker,
  // so the mutable scratch is race-free.
  mutable std::vector<ScheduledOp> ops_scratch;

  explicit GameContext(const GraphModel& m) : model(m) {
    for (const TimingConstraint& c : m.constraints()) {
      max_deadline = std::max(max_deadline, c.deadline);
      if (c.periodic()) {
        has_periodic = true;
        periodic_lcm = rt::lcm_checked(periodic_lcm, c.period);
      }
    }
    window.assign(static_cast<std::size_t>(max_deadline), kSlotPreStart);
  }

  // Checks every window that closes at the current clock. Returns false
  // on the first violation.
  [[nodiscard]] bool windows_ok() const {
    for (const TimingConstraint& c : model.constraints()) {
      if (clock < c.deadline) continue;
      if (c.periodic()) {
        // Invocation windows [kp, kp+d] close when clock == kp + d.
        if ((clock - c.deadline) % c.period != 0) continue;
      }
      window_ops(window, c.deadline, model.comm(), ops_scratch);
      if (!window_contains_execution(c.task_graph, ops_scratch, 0, c.deadline)) {
        return false;
      }
    }
    return true;
  }

  // Emits one slot; returns false if some closing window is violated
  // (the slot stays emitted either way — the caller unwinds).
  bool emit(std::uint32_t slot, std::vector<std::uint32_t>& evicted) {
    evicted.push_back(window.front());
    window.pop_front();
    window.push_back(slot);
    ++clock;
    return windows_ok();
  }

  // Undoes `count` emitted slots using the saved evictions.
  void unwind(std::vector<std::uint32_t>& evicted, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      window.pop_back();
      window.push_front(evicted.back());
      evicted.pop_back();
      --clock;
    }
  }

  // State key: the window contents plus the periodic clock phase, each
  // slot as a LEB128 varint of slot + 2 (the idle/pre-start sentinels
  // wrap to 1 and 0, so elements below 64 take at most two bytes). The
  // window has a fixed D slots and every code is self-delimiting, so
  // the key is injective; keys are only compared for equality.
  [[nodiscard]] std::string key() const {
    std::string k;
    k.reserve(2 * window.size() + 5);
    auto put = [&k](std::uint32_t v) {
      while (v >= 0x80) {
        k.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
      }
      k.push_back(static_cast<char>(v));
    };
    for (std::uint32_t s : window) put(s + 2);
    put(static_cast<std::uint32_t>(clock % periodic_lcm));
    return k;
  }
};

// One DFS frame: the op choice index we will try next (an index into
// `order`; order.size() = idle).
struct Frame {
  std::string key;         // state this frame expands
  std::size_t next_choice = 0;
  std::vector<ElementId> order;  // elements, least-recently-executed first
  // Op taken to *arrive* at this state (duration 0 marks the root).
  ElementId arrived_elem = kIdleEntry;
  Time arrived_dur = 0;
  std::vector<std::uint32_t> evicted;  // for unwinding arrival slots
};

// Branching order heuristic: elements whose last complete execution in
// the window is oldest (or absent) first. This biases the DFS towards
// round-robin-like strings — exactly the shape of feasible cycles — and
// does not affect soundness or completeness, only the visit order.
std::vector<ElementId> choice_order(const GameContext& ctx, std::size_t n_elements,
                                    BranchOrder order_kind) {
  std::vector<ElementId> static_order(n_elements);
  for (ElementId e = 0; e < n_elements; ++e) static_order[e] = e;
  if (order_kind == BranchOrder::kStaticId) return static_order;

  std::vector<std::int64_t> last_finish(n_elements, -1);
  const auto& window = ctx.window;
  std::size_t i = 0;
  while (i < window.size()) {
    const std::uint32_t s = window[i];
    if (s == kSlotIdle || s == kSlotPreStart) {
      ++i;
      continue;
    }
    const ElementId e = s >> 8;
    const Time phase = static_cast<Time>(s & 0xFF);
    const Time w = ctx.model.comm().weight(e);
    if (phase == 0 && i + static_cast<std::size_t>(w) <= window.size()) {
      bool complete = true;
      for (Time k = 0; k < w; ++k) {
        if (window[i + static_cast<std::size_t>(k)] != encode_slot(e, k)) {
          complete = false;
          break;
        }
      }
      if (complete) {
        last_finish[e] = static_cast<std::int64_t>(i) + w;
        i += static_cast<std::size_t>(w);
        continue;
      }
    }
    ++i;
  }
  std::vector<ElementId> order(n_elements);
  for (ElementId e = 0; e < n_elements; ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
    return last_finish[a] < last_finish[b];
  });
  return order;
}

// Serial verification options for candidate cycles: the schedules are
// tiny and accept_cycle may already be running on a pool worker, so
// nesting another pool per candidate would only add overhead.
constexpr VerifyOptions kSerialVerify{1, nullptr};

// Verifies a candidate cycle against the model, trying every
// entry-boundary rotation when periodic constraints may need alignment.
// Returns the accepted (possibly rotated) schedule.
std::optional<StaticSchedule> accept_cycle(const GraphModel& model, StaticSchedule sched,
                                           bool try_rotations) {
  auto verified = [&](const StaticSchedule& s) {
    return verify_schedule(s, model, kSerialVerify).feasible;
  };
  if (verified(sched)) return sched;
  if (!try_rotations) return std::nullopt;
  // Try every rotation at an entry boundary.
  const auto& entries = sched.entries();
  for (std::size_t r = 1; r < entries.size(); ++r) {
    StaticSchedule rot;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ScheduleEntry& entry = entries[(r + i) % entries.size()];
      if (entry.elem == kIdleEntry) {
        rot.push_idle(entry.duration);
      } else {
        rot.push_execution(entry.elem, entry.duration);
      }
    }
    if (verified(rot)) return rot;
  }
  return std::nullopt;
}

// Best-of-N cycle ranking: lowest busy fraction, then shortest.
bool leaner_cycle(const StaticSchedule& a, const StaticSchedule& b) {
  if (a.utilization() != b.utilization()) return a.utilization() < b.utilization();
  return a.length() < b.length();
}

// ---------------------------------------------------------------------------
// Serial legacy search (n_threads == 1): exactly the original
// single-threaded DFS over the game's state graph.
// ---------------------------------------------------------------------------

ExactResult exact_serial(const GraphModel& model, const ExactOptions& options) {
  GameContext ctx(model);
  const std::size_t n_elements = model.comm().size();

  enum : std::uint8_t { kGrey = 1, kBlack = 2 };
  std::unordered_map<std::string, std::uint8_t> color;
  std::unordered_map<std::string, std::size_t> grey_depth;  // key -> frame index

  std::vector<Frame> path;
  path.push_back(Frame{ctx.key(), 0, choice_order(ctx, n_elements, options.order), kIdleEntry, 0, {}});
  color[path.back().key] = kGrey;
  grey_depth[path.back().key] = 0;

  ExactResult result;
  result.states_explored = 1;

  // Best-of-N cycle collection (cycle_candidates > 1): keep the cycle
  // with the lowest busy fraction, then the shortest.
  std::optional<StaticSchedule> best_cycle;
  std::size_t cycles_found = 0;
  auto record_cycle = [&](StaticSchedule sched) {
    ++cycles_found;
    if (!best_cycle || leaner_cycle(sched, *best_cycle)) {
      best_cycle = std::move(sched);
    }
  };
  auto finish_feasible = [&]() {
    result.status = FeasibilityStatus::kFeasible;
    result.schedule = std::move(best_cycle);
    return result;
  };

  auto extract_cycle = [&](std::size_t from_frame, ElementId closing_elem,
                           Time closing_dur) {
    StaticSchedule sched;
    for (std::size_t i = from_frame + 1; i < path.size(); ++i) {
      if (path[i].arrived_elem == kIdleEntry) {
        sched.push_idle(path[i].arrived_dur);
      } else {
        sched.push_execution(path[i].arrived_elem, path[i].arrived_dur);
      }
    }
    if (closing_elem == kIdleEntry) {
      sched.push_idle(closing_dur);
    } else {
      sched.push_execution(closing_elem, closing_dur);
    }
    return sched;
  };

  std::size_t cancel_tick = 0;
  while (!path.empty()) {
    if ((++cancel_tick & 63) == 0) {
      if (options.progress != nullptr) {
        options.progress->fetch_add(1, std::memory_order_relaxed);
      }
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        if (best_cycle) return finish_feasible();
        result.status = FeasibilityStatus::kUnknown;
        result.cancelled = true;
        return result;
      }
    }
    Frame& frame = path.back();
    if (frame.next_choice > n_elements) {
      // Exhausted: blacken and backtrack.
      color[frame.key] = kBlack;
      grey_depth.erase(frame.key);
      const std::size_t dur = static_cast<std::size_t>(frame.arrived_dur);
      Frame done = std::move(path.back());
      path.pop_back();
      if (!path.empty()) {
        ctx.unwind(done.evicted, dur);
      }
      continue;
    }

    const std::size_t choice = frame.next_choice++;
    const bool is_idle = choice == n_elements;
    const ElementId elem = is_idle ? kIdleEntry : frame.order[choice];
    const Time dur = is_idle ? 1 : model.comm().weight(elem);

    // Emit the op slot by slot; abort on a violated window.
    std::vector<std::uint32_t> evicted;
    bool valid = true;
    Time emitted = 0;
    for (Time k = 0; k < dur; ++k) {
      const std::uint32_t slot = is_idle ? kSlotIdle : encode_slot(elem, k);
      ++emitted;
      if (!ctx.emit(slot, evicted)) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      ctx.unwind(evicted, static_cast<std::size_t>(emitted));
      continue;
    }

    const std::string key = ctx.key();
    const auto it = color.find(key);
    if (it != color.end() && it->second == kGrey) {
      // Cycle found: candidate feasible static schedule. For async-only
      // models the cycle is feasible by construction; we verify
      // regardless (and try rotations for periodic alignment).
      StaticSchedule sched = extract_cycle(grey_depth[key], elem, dur);
      if (auto accepted = accept_cycle(model, std::move(sched), ctx.has_periodic)) {
        record_cycle(std::move(*accepted));
        if (cycles_found >= options.cycle_candidates) {
          return finish_feasible();
        }
      }
      // Keep searching (more candidates wanted, or cycle not accepted).
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }
    if (it != color.end() && it->second == kBlack) {
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }

    // Fresh state: descend.
    if (result.states_explored >= options.state_budget) {
      if (best_cycle) return finish_feasible();
      result.status = FeasibilityStatus::kUnknown;
      return result;
    }
    ++result.states_explored;
    color[key] = kGrey;
    grey_depth[key] = path.size();
    path.push_back(
        Frame{key, 0, choice_order(ctx, n_elements, options.order), elem, dur, std::move(evicted)});
  }

  if (best_cycle) return finish_feasible();
  result.status = FeasibilityStatus::kInfeasible;
  return result;
}

// ---------------------------------------------------------------------------
// Parallel search (n_threads > 1).
//
// Phase 1 enumerates, serially, every violation-free game prefix of a
// small fixed depth — the shared frontier. Self-intersecting prefixes
// are cycle candidates and are resolved on the spot. Phase 2 hands each
// frontier prefix to the pool; a worker replays the prefix and runs the
// same DFS as the serial search over the subtree below it, treating the
// prefix states as on-path (so cycles closing into the prefix are still
// caught).
//
// Workers share two lock-striped sets: `expanded` (every state any
// worker has started expanding — the unit of state_budget accounting,
// each unique state charged once) and `black` (states whose entire
// subtree some worker finished without finding an acceptable cycle).
// Black states are pruned globally: a completed exploration from a
// state is conclusive no matter which path reached it. States that are
// merely in progress on another worker are *not* pruned — pruning them
// would make this worker's subtree exploration incomplete — so a little
// work can be duplicated, but each unique state is only charged once.
// ---------------------------------------------------------------------------

// One op of the game: an execution of `elem` (or an idle slot run).
struct GameOp {
  ElementId elem = kIdleEntry;
  Time dur = 1;
};

StaticSchedule schedule_from_ops(const std::vector<GameOp>& ops) {
  StaticSchedule sched;
  for (const GameOp& op : ops) {
    if (op.elem == kIdleEntry) {
      sched.push_idle(op.dur);
    } else {
      sched.push_execution(op.elem, op.dur);
    }
  }
  return sched;
}

// A frontier prefix: the ops from the initial state and the state keys
// along the way (keys.size() == ops.size() + 1; keys.front() is the
// initial state, keys.back() the state a worker starts expanding).
struct FrontierEntry {
  std::vector<GameOp> ops;
  std::vector<std::string> keys;
};

struct ParallelShared {
  const GraphModel& model;
  const ExactOptions& options;
  std::size_t n_elements;
  bool has_periodic;

  util::StripedSet<std::string> expanded;  // unique-state accounting
  util::StripedSet<std::string> black;     // conclusively cycle-free states
  std::atomic<std::size_t> states{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> budget_hit{false};
  std::atomic<bool> cancelled{false};

  // Folds the caller's cancel flag into the shared stop flag so every
  // loop that already polls `stop` observes cancellation too.
  bool should_stop() {
    if (options.progress != nullptr) {
      options.progress->fetch_add(1, std::memory_order_relaxed);
    }
    if (stop.load(std::memory_order_relaxed)) return true;
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      cancelled.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  std::mutex cycle_mutex;
  std::optional<StaticSchedule> best_cycle;
  std::size_t cycles_found = 0;

  ParallelShared(const GraphModel& m, const ExactOptions& o, bool periodic)
      : model(m), options(o), n_elements(m.comm().size()), has_periodic(periodic) {}

  // Registers an accepted cycle; signals stop once enough candidates
  // have been collected (mirroring the serial early return).
  void record_cycle(StaticSchedule sched) {
    std::lock_guard<std::mutex> lock(cycle_mutex);
    ++cycles_found;
    if (!best_cycle || leaner_cycle(sched, *best_cycle)) {
      best_cycle = std::move(sched);
    }
    if (cycles_found >= options.cycle_candidates) {
      stop.store(true, std::memory_order_relaxed);
    }
  }

  // Charges a state against the budget the first time any worker
  // expands it. Returns false when the budget would be exceeded (the
  // caller must not descend); a state someone already charged is free.
  bool charge_state(const std::string& key) {
    if (!expanded.insert(key)) return true;  // already charged
    const std::size_t n = states.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > options.state_budget) {
      budget_hit.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

// Phase 1: depth-bounded serial enumeration of violation-free prefixes.
// No state dedup across prefixes — distinct paths to one state yield
// distinct frontier entries, which keeps every possible cycle reachable
// from at least one worker (the shared black set dedupes the actual
// exploration in phase 2).
struct FrontierGen {
  ParallelShared& sh;
  GameContext ctx;
  std::size_t depth_limit;

  std::vector<GameOp> ops;
  std::vector<std::string> keys;
  std::vector<FrontierEntry> entries;

  FrontierGen(ParallelShared& shared, std::size_t limit)
      : sh(shared), ctx(shared.model), depth_limit(limit) {}

  void run() {
    keys.push_back(ctx.key());
    sh.charge_state(keys.front());
    rec();
  }

  void rec() {
    const auto order = choice_order(ctx, sh.n_elements, sh.options.order);
    for (std::size_t choice = 0; choice <= sh.n_elements; ++choice) {
      if (sh.should_stop()) return;
      const bool is_idle = choice == sh.n_elements;
      const ElementId elem = is_idle ? kIdleEntry : order[choice];
      const Time dur = is_idle ? 1 : sh.model.comm().weight(elem);

      std::vector<std::uint32_t> evicted;
      bool valid = true;
      Time emitted = 0;
      for (Time k = 0; k < dur; ++k) {
        const std::uint32_t slot = is_idle ? kSlotIdle : encode_slot(elem, k);
        ++emitted;
        if (!ctx.emit(slot, evicted)) {
          valid = false;
          break;
        }
      }
      if (!valid) {
        ctx.unwind(evicted, static_cast<std::size_t>(emitted));
        continue;
      }

      const std::string key = ctx.key();
      const auto hit = std::find(keys.begin(), keys.end(), key);
      if (hit != keys.end()) {
        // The prefix loops back on itself: a candidate cycle.
        const auto d = static_cast<std::size_t>(hit - keys.begin());
        std::vector<GameOp> cycle_ops(ops.begin() + static_cast<std::ptrdiff_t>(d),
                                      ops.end());
        cycle_ops.push_back(GameOp{elem, dur});
        if (auto accepted = accept_cycle(sh.model, schedule_from_ops(cycle_ops),
                                         sh.has_periodic)) {
          sh.record_cycle(std::move(*accepted));
        }
        ctx.unwind(evicted, static_cast<std::size_t>(dur));
        continue;
      }

      ops.push_back(GameOp{elem, dur});
      keys.push_back(key);
      if (ops.size() >= depth_limit) {
        entries.push_back(FrontierEntry{ops, keys});
      } else if (sh.charge_state(key)) {
        rec();
      }
      ops.pop_back();
      keys.pop_back();
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
    }
  }
};

// Phase 2: explore the subtree below one frontier prefix. Same DFS as
// the serial search, with the prefix states treated as on-path for
// back-edge detection and the visited set shared through `sh`.
void search_subtree(ParallelShared& sh, const FrontierEntry& entry) {
  if (sh.stop.load(std::memory_order_relaxed)) return;
  const std::string& root_key = entry.keys.back();
  if (sh.black.contains(root_key)) return;  // conclusively explored already

  GameContext ctx(sh.model);
  {
    // Replay the (already validated) prefix.
    std::vector<std::uint32_t> scratch;
    for (const GameOp& op : entry.ops) {
      for (Time k = 0; k < op.dur; ++k) {
        const std::uint32_t slot =
            op.elem == kIdleEntry ? kSlotIdle : encode_slot(op.elem, k);
        (void)ctx.emit(slot, scratch);
      }
    }
  }

  // Prefix states by key, for back edges that close above the subtree.
  std::unordered_map<std::string, std::size_t> prefix_depth;
  for (std::size_t i = 0; i + 1 < entry.keys.size(); ++i) {
    prefix_depth.emplace(entry.keys[i], i);
  }

  enum : std::uint8_t { kGrey = 1, kBlack = 2 };
  std::unordered_map<std::string, std::uint8_t> color;      // this worker only
  std::unordered_map<std::string, std::size_t> grey_depth;  // key -> frame index

  if (!sh.charge_state(root_key)) return;

  std::vector<Frame> path;
  path.push_back(Frame{root_key, 0, choice_order(ctx, sh.n_elements, sh.options.order),
                       kIdleEntry, 0, {}});
  color[root_key] = kGrey;
  grey_depth[root_key] = 0;

  // Closing a cycle at frame index f (or into the prefix at depth d):
  // the schedule is the on-path ops from the grey state forward plus
  // the closing op.
  auto extract_local = [&](std::size_t from_frame, ElementId closing_elem,
                           Time closing_dur) {
    std::vector<GameOp> cycle_ops;
    for (std::size_t i = from_frame + 1; i < path.size(); ++i) {
      cycle_ops.push_back(GameOp{path[i].arrived_elem, path[i].arrived_dur});
    }
    cycle_ops.push_back(GameOp{closing_elem, closing_dur});
    return schedule_from_ops(cycle_ops);
  };
  auto extract_through_prefix = [&](std::size_t prefix_from, ElementId closing_elem,
                                    Time closing_dur) {
    std::vector<GameOp> cycle_ops(entry.ops.begin() +
                                      static_cast<std::ptrdiff_t>(prefix_from),
                                  entry.ops.end());
    for (std::size_t i = 1; i < path.size(); ++i) {
      cycle_ops.push_back(GameOp{path[i].arrived_elem, path[i].arrived_dur});
    }
    cycle_ops.push_back(GameOp{closing_elem, closing_dur});
    return schedule_from_ops(cycle_ops);
  };

  while (!path.empty()) {
    if (sh.should_stop()) return;
    Frame& frame = path.back();
    if (frame.next_choice > sh.n_elements) {
      // Exhausted: conclusively no acceptable cycle below this state.
      color[frame.key] = kBlack;
      grey_depth.erase(frame.key);
      sh.black.insert(frame.key);
      const std::size_t dur = static_cast<std::size_t>(frame.arrived_dur);
      Frame done = std::move(path.back());
      path.pop_back();
      if (!path.empty()) {
        ctx.unwind(done.evicted, dur);
      }
      continue;
    }

    const std::size_t choice = frame.next_choice++;
    const bool is_idle = choice == sh.n_elements;
    const ElementId elem = is_idle ? kIdleEntry : frame.order[choice];
    const Time dur = is_idle ? 1 : sh.model.comm().weight(elem);

    std::vector<std::uint32_t> evicted;
    bool valid = true;
    Time emitted = 0;
    for (Time k = 0; k < dur; ++k) {
      const std::uint32_t slot = is_idle ? kSlotIdle : encode_slot(elem, k);
      ++emitted;
      if (!ctx.emit(slot, evicted)) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      ctx.unwind(evicted, static_cast<std::size_t>(emitted));
      continue;
    }

    const std::string key = ctx.key();
    // Back edges must be checked before the shared black set: a state
    // on *this* worker's path witnesses a cycle no matter what other
    // workers concluded about their own explorations through it.
    const auto it = color.find(key);
    if (it != color.end() && it->second == kGrey) {
      if (auto accepted = accept_cycle(
              sh.model, extract_local(grey_depth[key], elem, dur), sh.has_periodic)) {
        sh.record_cycle(std::move(*accepted));
      }
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }
    const auto pit = prefix_depth.find(key);
    if (pit != prefix_depth.end()) {
      if (auto accepted = accept_cycle(
              sh.model, extract_through_prefix(pit->second, elem, dur),
              sh.has_periodic)) {
        sh.record_cycle(std::move(*accepted));
      }
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }
    if ((it != color.end() && it->second == kBlack) || sh.black.contains(key)) {
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }

    if (!sh.charge_state(key)) {
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }
    color[key] = kGrey;
    grey_depth[key] = path.size();
    path.push_back(Frame{key, 0, choice_order(ctx, sh.n_elements, sh.options.order),
                         elem, dur, std::move(evicted)});
  }
}

ExactResult exact_parallel(const GraphModel& model, const ExactOptions& options,
                           std::size_t n_threads) {
  GameContext probe(model);
  ParallelShared sh(model, options, probe.has_periodic);

  // Frontier depth: just deep enough that the full branching tree has
  // ~4 tasks per worker to steal from; capped so phase 1 stays cheap.
  const std::size_t branching = sh.n_elements + 1;
  const std::size_t target = 4 * n_threads;
  std::size_t depth = 1;
  for (std::size_t width = branching; width < target && depth < 8; width *= branching) {
    ++depth;
  }

  FrontierGen gen(sh, depth);
  gen.run();

  if (!sh.stop.load() && !gen.entries.empty()) {
    util::ThreadPool pool(n_threads);
    for (const FrontierEntry& entry : gen.entries) {
      pool.submit([&sh, &entry] { search_subtree(sh, entry); });
    }
    pool.wait_idle();
  }

  ExactResult result;
  result.states_explored = sh.states.load();
  std::lock_guard<std::mutex> lock(sh.cycle_mutex);
  if (sh.best_cycle) {
    result.status = FeasibilityStatus::kFeasible;
    result.schedule = std::move(sh.best_cycle);
  } else if (sh.cancelled.load()) {
    result.status = FeasibilityStatus::kUnknown;
    result.cancelled = true;
  } else if (sh.budget_hit.load()) {
    result.status = FeasibilityStatus::kUnknown;
  } else {
    result.status = FeasibilityStatus::kInfeasible;
  }
  return result;
}

}  // namespace

ExactResult exact_feasible(const GraphModel& model, const ExactOptions& options) {
  if (model.constraint_count() == 0) {
    ExactResult r;
    r.status = FeasibilityStatus::kFeasible;
    r.schedule = StaticSchedule{};
    r.schedule->push_idle(1);
    return r;
  }
  for (ElementId e = 0; e < model.comm().size(); ++e) {
    if (model.comm().weight(e) > 255) {
      throw std::invalid_argument("exact_feasible: element weight exceeds 255");
    }
  }

  // Analytic early-out: necessary conditions refute without search.
  if (!refute_feasibility(model).empty()) {
    ExactResult r;
    r.status = FeasibilityStatus::kInfeasible;
    return r;
  }

  const std::size_t n_threads = util::resolve_threads(options.n_threads);
  if (n_threads <= 1) return exact_serial(model, options);
  return exact_parallel(model, options, n_threads);
}

namespace {

bool brute_rec(const GraphModel& model, Time remaining, StaticSchedule& partial,
               std::optional<StaticSchedule>& found) {
  if (found) return true;
  if (remaining == 0) {
    if (verify_schedule(partial, model, kSerialVerify).feasible) {
      found = partial;
      return true;
    }
    return false;
  }
  for (ElementId e = 0; e < model.comm().size(); ++e) {
    const Time w = model.comm().weight(e);
    if (w > remaining) continue;
    StaticSchedule next = partial;
    next.push_execution(e, w);
    if (brute_rec(model, remaining - w, next, found)) return true;
  }
  StaticSchedule next = partial;
  next.push_idle(1);
  return brute_rec(model, remaining - 1, next, found);
}

}  // namespace

std::optional<StaticSchedule> brute_force_schedule(const GraphModel& model, Time len) {
  if (len < 1) return std::nullopt;
  StaticSchedule partial;
  std::optional<StaticSchedule> found;
  brute_rec(model, len, partial, found);
  return found;
}

}  // namespace rtg::core
