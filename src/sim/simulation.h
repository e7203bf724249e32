// Discrete-event simulation engine. Single-threaded, deterministic:
// events at equal timestamps fire in scheduling order (FIFO tie-break by a
// monotonically increasing sequence number).
//
// The queue is a 4-ary min-heap of compact (when, seq, index) keys over a
// slab arena of event nodes (src/sim/event_arena.h). Cancellation destroys
// the event's closure eagerly (captured state is released at cancel time,
// not when its key happens to reach the top) and leaves the key behind as
// a tombstone that is skipped lazily. Firing runs the closure in its arena
// slot — no per-event heap allocation for captures up to
// util::UniqueFunction::kInlineBytes. DESIGN.md §8 gives the contract and
// why this is the only backend.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/event_arena.h"
#include "src/sim/time.h"
#include "src/util/unique_function.h"

namespace offload::sim {

using EventFn = util::UniqueFunction;

/// Handle to a scheduled event; allows cancellation. Generation-tagged:
/// once the event fires or is cancelled its arena slot retires this
/// handle, so stale cancels are O(1) "no".
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return index_ != 0 || gen_ != 0; }

 private:
  friend class Simulation;
  EventHandle(std::uint32_t index, std::uint32_t gen)
      : index_(index), gen_(gen) {}
  std::uint32_t index_ = 0;
  std::uint32_t gen_ = 0;  ///< arena generations are never 0
};

/// The event loop. Actors capture a reference to this and schedule
/// continuations; `run()` drains the queue in timestamp order.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule(SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute simulated time (must not be in the past).
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled before. The event's closure (and everything it captured)
  /// is destroyed before this returns.
  bool cancel(EventHandle handle);

  /// Run until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Run until the queue is empty or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  std::size_t run_until(SimTime deadline);

  /// Fire the single next event, if any. Returns false when idle.
  bool step();

  std::size_t pending() const { return pending_; }

  /// Arena introspection for benches/tests: slabs ever allocated and the
  /// total node capacity they hold (stable across steady-state churn).
  std::uint64_t arena_slabs() const { return arena_.slab_allocations(); }
  std::size_t arena_capacity() const { return arena_.capacity(); }

 private:
  struct HeapKey {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
  };

  void heap_push(HeapKey key);
  void heap_pop();
  bool fire_next();
  /// Next live event in firing order, or nullptr. Pops cancelled keys
  /// off the top on the way; never runs user code.
  EventNode* peek_next();

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  EventArena arena_;
  std::vector<HeapKey> heap_;  ///< 4-ary min-heap on (when, seq)
};

}  // namespace offload::sim
