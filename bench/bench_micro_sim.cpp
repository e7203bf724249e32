// Scheduler micro-benchmark: schedule / steady-state churn / cancel /
// drain throughput and resident-memory cost for two discrete-event
// scheduler implementations at 10^3 → 10^6 pending events:
//
//   seed_heap — the original engine verbatim: std::priority_queue over
//               heap-allocated std::function closures, an unordered_set
//               for cancellation, and a per-fire closure copy out of the
//               queue (vendored here so the speedup of the current engine
//               stays pinned in the perf trajectory).
//   heap      — sim::Simulation: a 4-ary heap of POD keys, closures
//               slab-arena'd, lazy tombstones, no per-fire copy.
//
// Emits BENCH_micro_sim.json. Throughputs are wall-clock (not part of any
// byte-determinism gate).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "bench/json_writer.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace {

using namespace offload;

// ---------------------------------------------------------------------------
// The seed scheduler, vendored verbatim (modulo the class name) from the
// pre-refactor src/sim/simulation.{h,cpp}.

class SeedHeapSim {
 public:
  using EventFn = std::function<void()>;

  sim::SimTime now() const { return now_; }

  std::uint64_t schedule_at(sim::SimTime when, EventFn fn) {
    std::uint64_t seq = next_seq_++;
    queue_.push(Entry{when, seq, std::move(fn)});
    pending_.insert(seq);
    return seq;
  }

  bool cancel(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  bool fire_next() {
    while (!queue_.empty()) {
      Entry e = queue_.top();  // the per-event closure copy this PR removes
      queue_.pop();
      if (pending_.erase(e.seq) == 0) continue;
      now_ = e.when;
      e.fn();
      return true;
    }
    return false;
  }

  std::size_t pending() const { return pending_.size(); }

 private:
  struct Entry {
    sim::SimTime when;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  sim::SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> pending_;
};

// ---------------------------------------------------------------------------

/// Representative event capture: a `this`-style pointer plus a few words
/// of context (~40 bytes). Fits UniqueFunction's 48-byte inline buffer;
/// exceeds libstdc++ std::function's ~16-byte SBO, so the seed scheduler
/// pays a heap allocation per schedule and another per fire.
struct Capture {
  std::uint64_t* counter;
  std::uint64_t a, b, c, d;
  void operator()() const { *counter += a ^ b ^ c ^ d; }
};

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Current resident set size in MiB (Linux; 0 elsewhere).
double rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct PhaseResult {
  double schedule_mps = 0;  ///< million events scheduled per second
  double churn_mps = 0;     ///< steady-state fire-one/schedule-one pairs
  double cancel_mps = 0;
  double drain_mps = 0;
  double populate_rss_mib = 0;  ///< RSS growth while filling N pending
};

/// One full measurement cycle against any scheduler with a common shim.
template <typename Schedule, typename Cancel, typename Fire>
PhaseResult measure(std::size_t n, Schedule&& schedule, Cancel&& cancel,
                    Fire&& fire) {
  util::Pcg32 rng(n, 0xbe9c4);
  std::uint64_t sink = 0;
  auto delay = [&rng]() {
    // Uniform over ~2 simulated seconds.
    return sim::SimTime::nanos(1 + rng.next_below(2000000000));
  };
  PhaseResult out;

  // Populate N pending events, watching RSS.
  double rss0 = rss_mib();
  double t0 = now_ms();
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(schedule(delay(), Capture{&sink, i, i + 1, i + 2, i + 3}));
  }
  double t1 = now_ms();
  out.populate_rss_mib = rss_mib() - rss0;
  out.schedule_mps = static_cast<double>(n) / (t1 - t0) / 1e3;

  // Steady-state churn: fire one, schedule one; pending stays at N.
  std::size_t churn_ops = n;
  t0 = now_ms();
  for (std::size_t i = 0; i < churn_ops; ++i) {
    fire();
    schedule(delay(), Capture{&sink, i, i + 1, i + 2, i + 3});
  }
  t1 = now_ms();
  out.churn_mps = static_cast<double>(churn_ops) / (t1 - t0) / 1e3;

  // Cancel half of what we can still address (some ids already fired;
  // failed cancels are part of the measured work, as in real timer use).
  t0 = now_ms();
  for (std::size_t i = 0; i < ids.size(); i += 2) cancel(ids[i]);
  t1 = now_ms();
  out.cancel_mps = static_cast<double>(ids.size() / 2) / (t1 - t0) / 1e3;

  // Drain everything left.
  std::size_t drained = 0;
  t0 = now_ms();
  while (fire()) ++drained;
  t1 = now_ms();
  out.drain_mps = static_cast<double>(drained) / (t1 - t0) / 1e3;
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");
  return out;
}

PhaseResult measure_seed(std::size_t n) {
  SeedHeapSim sim;
  return measure(
      n, [&](sim::SimTime d, Capture c) { return sim.schedule_at(sim.now() + d, c); },
      [&](std::uint64_t id) { return sim.cancel(id); },
      [&] { return sim.fire_next(); });
}

PhaseResult measure_current(std::size_t n) {
  sim::Simulation sim;
  std::vector<sim::EventHandle> handles;
  handles.reserve(2 * n + 16);
  return measure(
      n,
      [&](sim::SimTime d, Capture c) {
        handles.push_back(sim.schedule(d, c));
        return handles.size() - 1;  // id = index into the handle table
      },
      [&](std::uint64_t id) { return sim.cancel(handles[id]); },
      [&] { return sim.step(); });
}

std::string fmt2(double v) { return util::format_fixed(v, 2); }

/// Best-of-N: rerun the whole cycle and keep each phase's fastest rep.
/// Wall-clock microbenchmarks on a shared machine see ±10-15% interference
/// noise; the max-throughput estimator rejects it (every scheduler gets
/// the same treatment, so the comparison stays fair).
template <typename MeasureOnce>
PhaseResult best_of(int reps, MeasureOnce&& once) {
  PhaseResult best;
  for (int i = 0; i < reps; ++i) {
    PhaseResult r = once();
    best.schedule_mps = std::max(best.schedule_mps, r.schedule_mps);
    best.churn_mps = std::max(best.churn_mps, r.churn_mps);
    best.cancel_mps = std::max(best.cancel_mps, r.cancel_mps);
    best.drain_mps = std::max(best.drain_mps, r.drain_mps);
    // RSS growth is only observable on the first rep (the allocator
    // recycles the arena afterwards); max() keeps that one.
    best.populate_rss_mib = std::max(best.populate_rss_mib, r.populate_rss_mib);
  }
  return best;
}

int reps_from_env() {
  if (const char* env = std::getenv("OFFLOAD_BENCH_REPS");
      env != nullptr && *env != '\0') {
    int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 5;
}

}  // namespace

int main() {
  bench::print_banner(
      "Scheduler micro-bench — seed_heap vs heap",
      "the current engine (4-ary heap of POD keys over a slab arena with "
      "inline closures) beats the seed scheduler's steady-state event "
      "churn at 10^6 pending events, with less memory per pending event");

  std::vector<bench::JsonObject> json;
  util::TextTable table;
  table.header({"scheduler", "pending", "schedule M/s", "churn M/s",
                "cancel M/s", "drain M/s", "populate RSS MiB"});

  const std::size_t sizes[] = {1000, 10000, 100000, 1000000};
  const int reps = reps_from_env();
  double seed_churn_1m = 0, heap_churn_1m = 0;
  for (std::size_t n : sizes) {
    for (const char* name : {"seed_heap", "heap"}) {
      const bool seed = std::string(name) == "seed_heap";
      PhaseResult r = seed ? best_of(reps, [&] { return measure_seed(n); })
                           : best_of(reps, [&] { return measure_current(n); });
      if (n == 1000000) {
        if (seed) {
          seed_churn_1m = r.churn_mps;
        } else {
          heap_churn_1m = r.churn_mps;
        }
      }
      table.row({name, std::to_string(n), fmt2(r.schedule_mps),
                 fmt2(r.churn_mps), fmt2(r.cancel_mps), fmt2(r.drain_mps),
                 fmt2(r.populate_rss_mib)});
      json.push_back(bench::JsonObject()
                         .set("experiment", "micro_sim")
                         .set("scheduler", name)
                         .set("pending", n)
                         .set("schedule_mps", r.schedule_mps)
                         .set("churn_mps", r.churn_mps)
                         .set("cancel_mps", r.cancel_mps)
                         .set("drain_mps", r.drain_mps)
                         .set("populate_rss_mib", r.populate_rss_mib));
    }
  }
  std::printf("%s", table.str().c_str());

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  double speedup = seed_churn_1m > 0 ? heap_churn_1m / seed_churn_1m : 0;
  std::printf(
      "\nheap vs seed_heap churn speedup at 10^6 pending: %.1fx\n"
      "peak process RSS: %.1f MiB\n",
      speedup, static_cast<double>(ru.ru_maxrss) / 1024.0);
  json.push_back(bench::JsonObject()
                     .set("experiment", "micro_sim_summary")
                     .set("heap_vs_seed_churn_speedup_1m", speedup)
                     .set("peak_rss_mib",
                          static_cast<double>(ru.ru_maxrss) / 1024.0));

  return bench::write_json_array("BENCH_micro_sim.json", json) ? 0 : 1;
}
