// Direct coverage for the discrete-event engine: FIFO determinism, cancel
// semantics (including eager closure destruction), run_until edge cases,
// far-future and 2^32 ns boundary ordering, the slab arena, UniqueFunction
// storage, a differential against a std::map reference scheduler over
// randomized schedule/cancel workloads, and the workload generator's
// shard stability.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulation.h"
#include "src/sim/workload.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/unique_function.h"

namespace offload::sim {
namespace {

using offload::util::Pcg32;
using offload::util::UniqueFunction;

TEST(Simulation, HeapFiresInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));

  // Enough events for several 4-ary heap levels, scheduled out of order.
  order.clear();
  const SimTime base = sim.now();
  for (int i = 0; i < 64; ++i) {
    const int t = (i * 37) % 64;
    sim.schedule(SimTime::millis(t), [&order, t] { order.push_back(t); });
  }
  EXPECT_EQ(sim.run(), 64u);
  ASSERT_EQ(order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(sim.now(), base + SimTime::millis(63));
}

TEST(Simulation, FifoTieBreakAtEqualTimestamps) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ZeroDelayDuringCallbackFiresAfterBatch) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(1), [&] {
    order.push_back(1);
    sim.schedule(SimTime::zero(), [&] { order.push_back(3); });
  });
  sim.schedule(SimTime::millis(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, CancelPreventsFiringAndReportsCorrectly) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule(SimTime::millis(5), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double-cancel
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule(SimTime::millis(5), [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulation, CancelFromInsideOwnCallbackIsFalse) {
  Simulation sim;
  EventHandle h;
  bool cancel_result = true;
  h = sim.schedule(SimTime::millis(1),
                   [&] { cancel_result = sim.cancel(h); });
  sim.run();
  EXPECT_FALSE(cancel_result);
}

TEST(Simulation, InvalidHandleCancelIsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulation, CancelReleasesCapturedStatePromptly) {
  // The whole point of eager closure destruction: captured shared state
  // (channels, snapshots) dies at cancel time, not when the entry is
  // lazily popped much later.
  Simulation sim;
  auto token = std::make_shared<int>(7);
  EventHandle h = sim.schedule(SimTime::millis(5), [token] { (void)*token; });
  sim.schedule(SimTime::seconds(100.0), [] {});  // queue stays non-empty
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(token.use_count(), 1) << "closure must be destroyed at cancel";
  sim.run();
}

TEST(Simulation, CancelAfterRunUntilLookaheadReleasesPromptly) {
  // run_until has already looked at the next event (and stopped short of
  // it); cancelling it afterwards must still release captures immediately
  // and prevent firing.
  Simulation sim;
  auto token = std::make_shared<int>(7);
  int fired = 0;
  EventHandle h =
      sim.schedule(SimTime::millis(10), [token, &fired] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::millis(1)), 0u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, RunUntilFiresEventsAtExactlyTheDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::millis(5), [&] { ++fired; });
  sim.schedule(SimTime::millis(10), [&] { ++fired; });
  sim.schedule(SimTime::millis(15), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::millis(10)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, RunUntilAdvancesNowToDeadlineWhenIdle) {
  Simulation sim;
  EXPECT_EQ(sim.run_until(SimTime::seconds(3.0)), 0u);
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
  // Scheduling relative to the advanced clock works.
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0) + SimTime::millis(1));
}

TEST(Simulation, ScheduleEarlierThanStagedEventAfterRunUntil) {
  // After a run_until lookahead that stopped before a far event, a later
  // schedule at an *earlier* absolute time must still fire first.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(10.0), [&] { order.push_back(10); });
  sim.run_until(SimTime::seconds(1.0));
  sim.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::seconds(5.0), [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 10}));
}

TEST(Simulation, PastScheduleThrows) {
  Simulation sim;
  sim.schedule(SimTime::millis(5), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(5));
  EXPECT_THROW(sim.schedule_at(SimTime::millis(1), [] {}), std::logic_error);
}

TEST(Simulation, StepFiresExactlyOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.schedule(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, FarFutureAndBlockBoundaryOrdering) {
  // Timestamps in different 2^32 ns blocks, on exact block boundaries,
  // and minutes out must still fire in (when, seq) order.
  Simulation sim;
  const std::int64_t kBlock = std::int64_t{1} << 32;  // ~4.29 s in ns
  std::vector<int> order;
  auto at = [&](std::int64_t ns, int id) {
    sim.schedule_at(SimTime::nanos(ns), [&order, id] { order.push_back(id); });
  };
  at(3 * kBlock + 17, 6);
  at(kBlock - 1, 1);
  at(kBlock, 2);
  at(kBlock + 1, 3);
  at(2 * kBlock, 4);
  at(2 * kBlock, 5);        // FIFO with id 4
  at(90 * kBlock + 123, 7); // ~6.4 simulated minutes out
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.now(), SimTime::nanos(90 * kBlock + 123));
}

TEST(Simulation, DirectDrainAtBlockTopDoesNotStrandOverflow) {
  // A follow-up scheduled from inside the last event before a 2^32 ns
  // boundary, for a time past an event already pending beyond that
  // boundary, must fire after it — and now() must never move backwards.
  Simulation sim;
  const std::int64_t kBlock = std::int64_t{1} << 32;
  std::vector<int> order;
  std::vector<std::int64_t> fired_at;
  auto record = [&](int id) {
    order.push_back(id);
    fired_at.push_back(sim.now().ns());
  };
  sim.schedule_at(SimTime::nanos(kBlock + 5), [&] { record(1); });
  sim.schedule_at(SimTime::nanos(kBlock - 50), [&] {
    record(2);
    sim.schedule_at(SimTime::nanos(kBlock + 1000), [&] { record(3); });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{kBlock - 50, kBlock + 5,
                                                 kBlock + 1000}));
  EXPECT_EQ(sim.now(), SimTime::nanos(kBlock + 1000));
}

TEST(Simulation, Level1DirectDrainAtBlockTopDoesNotStrand) {
  // The same boundary crossing, preceded by an event in the block's top
  // 2^16 ns window.
  Simulation sim;
  const std::int64_t kBlock = std::int64_t{1} << 32;
  std::vector<int> order;
  std::int64_t last_ns = 0;
  auto record = [&](int id) {
    order.push_back(id);
    EXPECT_GE(sim.now().ns(), last_ns) << "now() must never move backwards";
    last_ns = sim.now().ns();
  };
  sim.schedule_at(SimTime::nanos(kBlock + 5), [&] { record(3); });
  sim.schedule_at(SimTime::nanos(kBlock - 2 * 65536 + 7), [&] { record(1); });
  sim.schedule_at(SimTime::nanos(kBlock - 100), [&] {
    record(2);
    sim.schedule_at(SimTime::nanos(kBlock + 1000), [&] { record(4); });
  });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), SimTime::nanos(kBlock + 1000));
}

TEST(Simulation, EqualFarTimestampScheduledAcrossAdvances) {
  // A and B share a far timestamp; B is scheduled later (after the clock
  // moved), so it must fire second.
  Simulation sim;
  std::vector<char> order;
  SimTime target = SimTime::seconds(30.0);
  sim.schedule_at(target, [&] { order.push_back('A'); });
  sim.schedule_at(SimTime::seconds(29.0), [&] {
    sim.schedule_at(target, [&] { order.push_back('B'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(SimulationArena, SlabIsRecycledUnderChurn) {
  Simulation sim;
  // Steady-state schedule→fire churn with one outstanding event must
  // never grow the arena past its first slab.
  for (int i = 0; i < 10000; ++i) {
    sim.schedule(SimTime::micros(3), [] {});
    sim.run();
  }
  EXPECT_EQ(sim.arena_slabs(), 1u);
  EXPECT_EQ(sim.arena_capacity(), EventArena::kSlabNodes);
}

TEST(SimulationArena, GenerationSkipsZeroOnWrap) {
  // Generation 0 is the universal "invalid handle" encoding, so a slot
  // whose generation counter wraps must land on 1, never 0 — otherwise a
  // default EventHandle could suddenly resolve to a live event.
  EventArena arena;
  EventNode* node = arena.allocate(SimTime::nanos(1), 1, [] {});
  const std::uint32_t index = node->index;
  node->gen = 0xffffffffu;  // fast-forward a lifetime of churn
  EXPECT_EQ(arena.resolve(index, 0xffffffffu), node);
  arena.release(node);
  EXPECT_EQ(node->gen, 1u) << "wrap must skip generation 0";
  EXPECT_EQ(arena.resolve(index, 0u), nullptr);
}

TEST(SimulationArena, CancelAfterGenerationWrapIsStale) {
  // A handle minted just before the wrap must stay stale after the slot
  // is recycled, even though the raw index is reused.
  EventArena arena;
  EventNode* node = arena.allocate(SimTime::nanos(1), 1, [] {});
  const std::uint32_t index = node->index;
  node->gen = 0xffffffffu;
  arena.release(node);  // old occupant retired; gen wrapped to 1

  EventNode* reused = arena.allocate(SimTime::nanos(2), 2, [] {});
  ASSERT_EQ(reused, node) << "free list must hand the slot back";
  EXPECT_EQ(arena.resolve(index, 0xffffffffu), nullptr)
      << "pre-wrap handle must not resurrect the recycled slot";
  EXPECT_EQ(arena.resolve(index, 1u), reused);
  arena.release(reused);
  // Freed slot (seq == 0): even a matching generation must not resolve.
  EXPECT_EQ(arena.resolve(index, node->gen), nullptr);
}

// ---------------------------------------------------------------------------
// UniqueFunction

TEST(UniqueFunctionTest, SmallCapturesStayInline) {
  int x = 0;
  UniqueFunction f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 1);
}

TEST(UniqueFunctionTest, LargeCapturesFallBackToHeap) {
  std::array<char, 128> big{};
  big[0] = 'a';
  int calls = 0;
  UniqueFunction f([big, &calls] { calls += big[0] == 'a' ? 1 : 0; });
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunctionTest, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(1);
  UniqueFunction a([token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  UniqueFunction b(std::move(a));
  EXPECT_EQ(token.use_count(), 2) << "move must not copy the capture";
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b);
  b();
  b.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(UniqueFunctionTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  UniqueFunction f([owned = std::move(owned), &seen] { seen = *owned + 1; });
  UniqueFunction g(std::move(f));
  g();
  EXPECT_EQ(seen, 42);
}

TEST(UniqueFunctionTest, AssignmentDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  UniqueFunction f([first] { (void)*first; });
  EXPECT_EQ(first.use_count(), 2);
  f = UniqueFunction([] {});
  EXPECT_EQ(first.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Differential against a reference model: identical firing order over
// randomized schedule / cancel / run_until workloads, including chained
// events that schedule follow-ups from inside callbacks.

/// The ordering contract in its plainest form: a std::map keyed by
/// (when ns, seq), with Simulation's schedule / cancel / run_until / step
/// surface and none of its machinery (no arena, no heap, no tombstones).
class ModelSim {
 public:
  using Handle = std::uint64_t;  ///< the event's seq

  SimTime now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }

  Handle schedule(SimTime delay, std::function<void()> fn) {
    const Handle seq = next_seq_++;
    queue_.emplace(Key{(now_ + delay).ns(), seq}, std::move(fn));
    return seq;
  }

  bool cancel(Handle seq) {
    auto it = std::find_if(queue_.begin(), queue_.end(), [seq](const auto& e) {
      return e.first.second == seq;
    });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  bool step() {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    now_ = SimTime::nanos(it->first.first);
    std::function<void()> fn = std::move(it->second);
    queue_.erase(it);
    fn();
    return true;
  }

  std::size_t run_until(SimTime deadline) {
    std::size_t fired = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline.ns()) {
      step();
      ++fired;
    }
    if (now_ < deadline) now_ = deadline;
    return fired;
  }

  std::size_t run() {
    std::size_t fired = 0;
    while (step()) ++fired;
    return fired;
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;
  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::map<Key, std::function<void()>> queue_;
};

template <typename Engine>
struct DifferentialSim {
  using Handle =
      decltype(std::declval<Engine&>().schedule(SimTime{}, [] {}));

  Engine sim;
  std::vector<int> fired;
  std::vector<Handle> handles;

  void schedule_recording(std::int64_t delay_ns, int id, int chain_depth) {
    handles.push_back(sim.schedule(SimTime::nanos(delay_ns), [this, id,
                                                             chain_depth] {
      fired.push_back(id);
      if (chain_depth > 0) {
        // Deterministic follow-up derived from the parent id.
        std::int64_t gap = 1 + (id * 2654435761LL) % 5000000;
        schedule_recording(gap, id + 1000000 * chain_depth, chain_depth - 1);
      }
    }));
  }
};

void RunDifferentialWorkload(std::uint64_t seed, int steps) {
  DifferentialSim<ModelSim> model;
  DifferentialSim<Simulation> heap;
  Pcg32 rng(seed, 0xd1ff);
  int next_id = 0;
  // Delay scales from nanoseconds to tens of simulated seconds, so keys
  // land both among and far beyond the pending set.
  const std::int64_t scales[] = {0, 100, 50000, 7000000, 900000000,
                                 30000000000};
  for (int step = 0; step < steps; ++step) {
    std::uint32_t op = rng.next_below(100);
    if (op < 55) {
      std::int64_t base = scales[rng.next_below(6)];
      std::int64_t delay = base + rng.next_below(1000);
      int chain = rng.next_below(10) == 0 ? 2 : 0;
      int id = next_id++;
      model.schedule_recording(delay, id, chain);
      heap.schedule_recording(delay, id, chain);
    } else if (op < 75 && !model.handles.empty()) {
      std::uint32_t pick =
          rng.next_below(static_cast<std::uint32_t>(model.handles.size()));
      bool a = model.sim.cancel(model.handles[pick]);
      bool b = heap.sim.cancel(heap.handles[pick]);
      ASSERT_EQ(a, b) << "cancel result diverged at step " << step;
    } else if (op < 90) {
      SimTime until =
          model.sim.now() + SimTime::nanos(rng.next_below(2000000000));
      std::size_t a = model.sim.run_until(until);
      std::size_t b = heap.sim.run_until(until);
      ASSERT_EQ(a, b) << "run_until fired-count diverged at step " << step;
    } else {
      ASSERT_EQ(model.sim.step(), heap.sim.step());
    }
    ASSERT_EQ(model.sim.pending(), heap.sim.pending());
    ASSERT_EQ(model.sim.now().ns(), heap.sim.now().ns());
  }
  model.sim.run();
  heap.sim.run();
  ASSERT_EQ(model.fired.size(), heap.fired.size());
  ASSERT_EQ(model.fired, heap.fired);
  EXPECT_EQ(model.sim.now().ns(), heap.sim.now().ns());
}

TEST(SchedulerDifferential, IdenticalFiringOrderAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDifferentialWorkload(seed, 600);
  }
}

TEST(SchedulerDifferential, BlockBoundaryClusteredOrdering) {
  // Timestamps clustered tightly around 2^32 ns block boundaries, with
  // chained follow-ups scheduled from inside callbacks that land across
  // the next boundary while the next cluster is still pending.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialSim<ModelSim> model;
    DifferentialSim<Simulation> heap;
    Pcg32 rng(seed, 0xb10c);
    const std::int64_t kBlock = std::int64_t{1} << 32;
    int next_id = 0;
    for (int round = 1; round <= 4; ++round) {
      for (int i = 0; i < 300; ++i) {
        std::int64_t target = round * kBlock - 70000 +
                              static_cast<std::int64_t>(rng.next_below(80000));
        std::int64_t now = model.sim.now().ns();
        if (target < now) target = now;
        int chain = rng.next_below(8) == 0 ? 1 : 0;
        int id = next_id++;
        model.schedule_recording(target - now, id, chain);
        heap.schedule_recording(target - now, id, chain);
      }
      SimTime until = SimTime::nanos(round * kBlock + 500);
      std::size_t a = model.sim.run_until(until);
      std::size_t b = heap.sim.run_until(until);
      ASSERT_EQ(a, b) << "run_until fired-count diverged in round " << round;
      ASSERT_EQ(model.sim.now().ns(), heap.sim.now().ns());
    }
    model.sim.run();
    heap.sim.run();
    ASSERT_EQ(model.fired, heap.fired);
    EXPECT_EQ(model.sim.now().ns(), heap.sim.now().ns());
  }
}

TEST(SchedulerDifferential, HeavyEqualTimestampContention) {
  // Many events collapsing onto few distinct timestamps: the strongest
  // FIFO stress for the (when, seq) tie-break.
  DifferentialSim<ModelSim> model;
  DifferentialSim<Simulation> heap;
  Pcg32 rng(99, 0xc0);
  for (int i = 0; i < 3000; ++i) {
    std::int64_t delay = 1000000 * static_cast<std::int64_t>(rng.next_below(5));
    model.schedule_recording(delay, i, 0);
    heap.schedule_recording(delay, i, 0);
  }
  model.sim.run();
  heap.sim.run();
  ASSERT_EQ(model.fired, heap.fired);
}

// ---------------------------------------------------------------------------
// Workload generator: determinism and knob behaviour.

TEST(WorkloadGenerator, DeterministicStreamAcrossRuns) {
  auto collect = [] {
    Simulation sim;
    workload::Config cfg;
    cfg.clients = 200;
    cfg.seed = 7;
    cfg.arrivals.session_rate_per_s = 50;
    cfg.arrivals.pattern = workload::ArrivalConfig::Pattern::kBursty;
    cfg.session.cache_ttl_s = 5;
    std::vector<std::tuple<std::int64_t, std::uint64_t, bool>> seen;
    workload::Generator gen(sim, cfg, [&](const workload::Request& r) {
      seen.emplace_back(r.at.ns(), r.client, r.cold_model);
    });
    gen.start(SimTime::seconds(20.0));
    sim.run();
    return seen;
  };
  auto a = collect();
  auto b = collect();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed must reproduce the byte-identical stream";
}

TEST(WorkloadGenerator, ColdWarmMixFollowsCacheTtl) {
  Simulation sim;
  workload::Config cfg;
  cfg.clients = 10;
  cfg.seed = 3;
  cfg.arrivals.session_rate_per_s = 20;
  cfg.session.cache_ttl_s = 1e9;  // never expires: only first touch is cold
  workload::Generator gen(sim, cfg, [](const workload::Request&) {});
  gen.start(SimTime::seconds(30.0));
  sim.run();
  EXPECT_GT(gen.sessions_started(), 50u);
  EXPECT_LE(gen.cold_sessions(), 10u) << "at most one cold session per client";
  EXPECT_GT(gen.cold_sessions(), 0u);
}

TEST(WorkloadGenerator, WarmStartFractionPreSeedsCaches) {
  workload::Config cfg;
  cfg.clients = 500;
  cfg.seed = 11;
  cfg.arrivals.session_rate_per_s = 100;
  cfg.session.cache_ttl_s = 1e9;
  auto cold_count = [&cfg](double warm_fraction) {
    Simulation sim;
    cfg.session.warm_start_fraction = warm_fraction;
    workload::Generator gen(sim, cfg, [](const workload::Request&) {});
    gen.start(SimTime::seconds(10.0));
    sim.run();
    return gen.cold_sessions();
  };
  std::uint64_t all_cold = cold_count(0.0);
  std::uint64_t mostly_warm = cold_count(0.9);
  EXPECT_LT(mostly_warm * 3, all_cold)
      << "pre-seeded caches must slash cold sessions";
}

TEST(WorkloadGenerator, FlashCrowdRaisesArrivalRateInWindow) {
  auto sessions_in = [](bool flash, double lo, double hi) {
    Simulation sim;
    workload::Config cfg;
    cfg.clients = 1000;
    cfg.seed = 5;
    cfg.arrivals.session_rate_per_s = 30;
    if (flash) cfg.arrivals.flash_crowds = {{10.0, 5.0, 8.0}};
    std::uint64_t count = 0;
    workload::Generator gen(sim, cfg, [&](const workload::Request& r) {
      double t = r.at.to_seconds();
      if (r.index_in_session == 0 && t >= lo && t < hi) ++count;
    });
    gen.start(SimTime::seconds(30.0));
    sim.run();
    return count;
  };
  std::uint64_t quiet = sessions_in(false, 10.0, 15.0);
  std::uint64_t crowd = sessions_in(true, 10.0, 15.0);
  EXPECT_GT(crowd, quiet * 4) << "8x flash crowd must dominate the window";
}

TEST(WorkloadGenerator, DeviceClassesCoverPopulationByWeight) {
  Simulation sim;
  workload::Config cfg;
  cfg.clients = 5000;
  cfg.seed = 17;
  workload::Generator gen(sim, cfg, [](const workload::Request&) {});
  std::vector<int> counts(workload::default_device_classes().size(), 0);
  for (std::uint64_t c = 0; c < cfg.clients; ++c) {
    ++counts[gen.device_class_of(c)];
  }
  // Weights 0.35 / 0.45 / 0.20 — allow generous sampling slack.
  EXPECT_NEAR(counts[0] / 5000.0, 0.35, 0.05);
  EXPECT_NEAR(counts[1] / 5000.0, 0.45, 0.05);
  EXPECT_NEAR(counts[2] / 5000.0, 0.20, 0.05);
}


// ---------------------------------------------------------------------------
// Workload sharding (src/sim/workload.h): shard membership is a pure
// function of (client, population, shard_count), and the per-shard request
// streams — and therefore their deterministic merge — do not depend on
// which thread runs which shard.

TEST(WorkloadSharding, ShardRangesPartitionThePopulation) {
  for (std::uint64_t n : {1ull, 7ull, 1000ull, 10'003ull}) {
    for (std::uint32_t count : {1u, 2u, 3u, 4u, 8u}) {
      EXPECT_EQ(workload::shard_begin(n, 0, count), 0u);
      EXPECT_EQ(workload::shard_begin(n, count, count), n);
      for (std::uint32_t s = 0; s < count; ++s) {
        EXPECT_LE(workload::shard_begin(n, s, count),
                  workload::shard_begin(n, s + 1, count));
      }
      for (std::uint64_t c = 0; c < n; ++c) {
        std::uint32_t s = workload::shard_of(c, n, count);
        ASSERT_LT(s, count);
        ASSERT_LE(workload::shard_begin(n, s, count), c);
        ASSERT_LT(c, workload::shard_begin(n, s + 1, count));
      }
    }
  }
}

TEST(WorkloadSharding, GeneratorOwnsExactlyItsShardRange) {
  const std::uint64_t n = 4000;
  const std::uint32_t kShards = 4;
  Simulation sim;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    workload::Config cfg;
    cfg.clients = n;
    cfg.seed = 9;
    cfg.shard_count = kShards;
    cfg.shard_index = s;
    workload::Generator gen(sim, cfg, [](const workload::Request&) {});
    EXPECT_EQ(gen.shard_client_begin(), workload::shard_begin(n, s, kShards));
    EXPECT_EQ(gen.shard_client_end(),
              workload::shard_begin(n, s + 1, kShards));
  }
}

/// Runs 4 workload shards, each on its own Simulation — one after another,
/// or concurrently on a 4-thread pool — and returns their request streams
/// merged by (at, shard, index within shard).
std::string run_sharded_workload(bool parallel) {
  constexpr std::uint32_t kShards = 4;
  struct Record {
    std::int64_t at;
    std::uint32_t shard;
    std::uint64_t idx;
    std::string line;
  };
  std::array<Simulation, kShards> sims;
  std::array<std::vector<Record>, kShards> records;
  std::vector<std::unique_ptr<workload::Generator>> gens;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    workload::Config cfg;
    cfg.clients = 4000;
    cfg.seed = 99;
    cfg.shard_count = kShards;
    cfg.shard_index = s;
    cfg.arrivals.session_rate_per_s = 200;
    cfg.arrivals.diurnal.enabled = true;
    cfg.arrivals.diurnal.period_s = 60;
    cfg.arrivals.flash_crowds = {{20.0, 5.0, 3.0}};
    cfg.session.warm_start_fraction = 0.3;
    auto* recs = &records[s];
    gens.push_back(std::make_unique<workload::Generator>(
        sims[s], cfg, [recs, s](const workload::Request& r) {
          char buf[96];
          std::snprintf(buf, sizeof buf,
                        "s=%u t=%lld c=%llu sess=%llu i=%u cold=%d dc=%u\n",
                        s, static_cast<long long>(r.at.ns()),
                        static_cast<unsigned long long>(r.client),
                        static_cast<unsigned long long>(r.session),
                        r.index_in_session, r.cold_model ? 1 : 0,
                        r.device_class);
          recs->push_back(Record{r.at.ns(), s,
                                 static_cast<std::uint64_t>(recs->size()),
                                 buf});
        }));
    gens.back()->start(SimTime::seconds(40.0));
  }
  auto run_shards = [&sims](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) sims[s].run();
  };
  if (parallel) {
    util::ThreadPool pool(4);
    pool.parallel_for(0, kShards, 1, util::RangeFn(run_shards));
  } else {
    run_shards(0, kShards);
  }
  std::vector<Record> all;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(records[s].empty()) << "shard " << s;
    for (Record& r : records[s]) all.push_back(std::move(r));
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  std::string merged;
  for (const Record& r : all) merged += r.line;
  return merged;
}

TEST(WorkloadSharding, MergedShardStreamIsPartitionCountInvariant) {
  const std::string sequential = run_sharded_workload(false);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(run_sharded_workload(true), sequential);
}

}  // namespace
}  // namespace offload::sim
