#include "src/sim/simulation.h"

#include <cstdio>
#include <stdexcept>

namespace offload::sim {

std::string SimTime::str() const {
  char buf[64];
  double s = to_seconds();
  if (ns_ >= 1000000000 || ns_ <= -1000000000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (ns_ >= 1000000 || ns_ <= -1000000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

namespace {

// Four children per node: half the depth of a binary heap, and the four
// sibling keys sit side by side (96 bytes), so each sift-down level reads
// one or two adjacent cache lines.
constexpr std::size_t kArity = 4;

template <typename Key>
bool fires_before(const Key& a, const Key& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

}  // namespace

void Simulation::heap_push(HeapKey key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!fires_before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulation::heap_pop() {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

EventHandle Simulation::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) {
    throw std::logic_error("Simulation::schedule_at: time is in the past");
  }
  std::uint64_t seq = next_seq_++;
  EventNode* node = arena_.allocate(when, seq, std::move(fn));
  ++pending_;
  heap_push(HeapKey{when, seq, node->index});
  return EventHandle(node->index, node->gen);
}

bool Simulation::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  EventNode* node = arena_.resolve(handle.index_, handle.gen_);
  if (node == nullptr) return false;
  --pending_;
  // The heap keeps (when, seq, index) keys, not the node: the key stays
  // behind as a tombstone and is skipped lazily (the live seq no longer
  // matches); the closure and the node are reclaimed now.
  arena_.release(node);
  return true;
}

EventNode* Simulation::peek_next() {
  while (!heap_.empty()) {
    const HeapKey& key = heap_.front();
    EventNode* node = arena_.at(key.index);
    if (node->seq == key.seq) return node;  // live (seqs are unique)
    heap_pop();                             // cancelled: slot was recycled
  }
  return nullptr;
}

bool Simulation::fire_next() {
  EventNode* node = peek_next();
  if (node == nullptr) return false;
  heap_pop();
  now_ = node->when;
  --pending_;
  // Tombstone the slot before running user code, so a cancel of this very
  // event from inside its own callback is a clean "already fired" no (the
  // sequence number no longer matches, and resolve() treats seq == 0 as
  // free). The closure runs in place — no move of the inline capture
  // buffer — and the node is recycled right after; the node cannot be
  // handed out again mid-callback because it is not on the free list yet.
  node->seq = 0;
  node->fn.consume();  // invoke + destroy, one dispatch
  arena_.release(node);
  return true;
}

std::size_t Simulation::run() {
  std::size_t fired = 0;
  while (fire_next()) ++fired;
  return fired;
}

std::size_t Simulation::run_until(SimTime deadline) {
  std::size_t fired = 0;
  while (true) {
    EventNode* node = peek_next();
    if (node == nullptr || node->when > deadline) break;
    if (fire_next()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulation::step() { return fire_next(); }

}  // namespace offload::sim
