// Slab arena for simulation event nodes. A node carries the timestamp,
// FIFO sequence number, and the closure itself (inline via
// util::UniqueFunction) — so scheduling an event performs no heap
// allocation in the steady state (slabs are recycled through a free list)
// and cancelling one destroys the closure eagerly. The scheduler never
// links nodes into its own structure: its heap keeps compact (when, seq,
// index) keys and treats a key whose sequence number no longer matches
// the arena slot's as a cancelled tombstone (sequence numbers are
// globally unique, so slot reuse can never resurrect one).
//
// Lifetime rules (see DESIGN.md §8):
//  * A node is live from allocate() until release(); release() destroys
//    the closure immediately and bumps the slot generation, so any
//    EventHandle minted for the old occupant goes stale atomically.
//  * Slabs are never freed while the arena lives — node pointers stay
//    valid across allocate/release churn, which is what lets the
//    scheduler resolve heap keys to raw pointers.
//  * Generations start at 1 and skip 0 on wrap; handle value 0 is the
//    universal "invalid" encoding.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/time.h"
#include "src/util/unique_function.h"

namespace offload::sim {

/// One scheduled (or recycled) event. `next` is the arena free-list link.
struct EventNode {
  SimTime when;
  std::uint64_t seq = 0;  ///< FIFO tie-break; 0 ⇔ slot is free
  EventNode* next = nullptr;
  std::uint32_t index = 0;  ///< position in the arena (stable)
  std::uint32_t gen = 1;    ///< bumped on release; never 0
  util::UniqueFunction fn;
};

/// Slab allocator handing out stable EventNode pointers.
class EventArena {
 public:
  static constexpr std::size_t kSlabNodes = 512;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  EventNode* allocate(SimTime when, std::uint64_t seq,
                      util::UniqueFunction fn) {
    if (free_ == nullptr) grow();
    EventNode* node = free_;
    free_ = node->next;
    node->when = when;
    node->seq = seq;
    node->next = nullptr;
    node->fn = std::move(fn);
    ++live_;
    return node;
  }

  /// Destroy the closure now (releasing its captures), retire the
  /// generation, and recycle the slot.
  void release(EventNode* node) {
    node->fn.reset();
    node->seq = 0;
    if (++node->gen == 0) node->gen = 1;
    node->next = free_;
    free_ = node;
    --live_;
  }

  /// Direct slot access (no liveness check) for the scheduler's key →
  /// node resolution; compare the key's seq against node->seq. Slab
  /// addressing, not a pointer table: the slab directory is a few KB and
  /// stays cached, so this is one dependent load instead of two.
  EventNode* at(std::uint32_t index) {
    return &slabs_[index >> kSlabShift][index & (kSlabNodes - 1)];
  }

  /// Resolve a (index, gen) pair; nullptr when the slot was recycled (the
  /// event already fired or was cancelled).
  EventNode* resolve(std::uint32_t index, std::uint32_t gen) {
    if (index >= slabs_.size() * kSlabNodes) return nullptr;
    EventNode* node = at(index);
    if (node->gen != gen || node->seq == 0) return nullptr;
    return node;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return slabs_.size() * kSlabNodes; }
  std::uint64_t slab_allocations() const { return slabs_.size(); }

 private:
  static constexpr int kSlabShift = 9;
  static_assert(kSlabNodes == (1u << kSlabShift));

  void grow() {
    auto slab = std::make_unique<EventNode[]>(kSlabNodes);
    std::uint32_t base =
        static_cast<std::uint32_t>(slabs_.size() * kSlabNodes);
    // Thread the new slab onto the free list back-to-front so allocation
    // order matches index order (nicer cache behaviour, deterministic).
    for (std::size_t i = kSlabNodes; i-- > 0;) {
      EventNode* node = &slab[i];
      node->index = base + static_cast<std::uint32_t>(i);
      node->next = free_;
      free_ = node;
    }
    slabs_.push_back(std::move(slab));
  }

  std::vector<std::unique_ptr<EventNode[]>> slabs_;  ///< index → slab dir
  EventNode* free_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace offload::sim
