// Bidirectional channel between two endpoints on top of the simulation.
// Each direction has its own Link; delivery invokes the receiving
// endpoint's handler at the message's simulated arrival time. Lost messages
// are retransmitted after a timeout when `reliable` is on (simple ARQ),
// which the failure-injection tests exercise. Exhausting the retransmit
// budget — or losing a message on an unreliable channel — surfaces a typed
// delivery failure on the *sending* endpoint instead of hanging silently.
//
// Per-direction fault hooks let the deterministic fault-injection layer
// (src/fault) impose message-level faults: drop (rides the normal ARQ
// path), duplication, extra delay, and payload corruption (caught by the
// receiver's CRC verification).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/link.h"
#include "src/net/message.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/util/stats.h"

namespace offload::net {

class Channel;

/// Verdict of a fault hook for one transmission attempt. Defaults are a
/// clean pass-through.
struct FaultDecision {
  bool drop = false;       ///< lose this attempt (ARQ sees an ordinary loss)
  bool duplicate = false;  ///< deliver, plus inject one extra copy
  /// Added to the arrival time (models bufferbloat / rerouting; may
  /// reorder against later messages).
  sim::SimTime extra_delay = sim::SimTime::zero();
  /// Corrupt the delivered payload: XOR `corrupt_mask` into the byte at
  /// `corrupt_index % payload.size()`. No-op when the mask is zero or the
  /// payload is empty. The stamped CRC is left alone, so receivers detect
  /// the damage.
  std::uint8_t corrupt_mask = 0;
  std::uint64_t corrupt_index = 0;
};

/// Consulted once per transmission attempt (retransmissions included;
/// injected duplicates are exempt, or duplication would compound).
using FaultHook = std::function<FaultDecision(const Message&)>;

/// One side of a channel. Owns a receive handler; sends go to the peer.
class Endpoint {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Delivery failure: the ARQ gave up on `message` after `attempts`
  /// transmissions (or the channel is unreliable and the one attempt was
  /// lost). Invoked at the simulated time the sender can know.
  using FailureHandler = std::function<void(const Message&, int attempts)>;

  const std::string& name() const { return name_; }
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_failure_handler(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  /// Queue a message toward the peer. Returns the sender-side send id.
  /// Stamps the payload CRC so receivers can verify integrity.
  std::uint64_t send(Message message);

  /// Bytes delivered to this endpoint so far (for accounting/tests).
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Channel;
  Endpoint(Channel* channel, std::string name, bool is_a)
      : channel_(channel), name_(std::move(name)), is_a_(is_a) {}

  Channel* channel_;
  std::string name_;
  bool is_a_;
  Handler handler_;
  FailureHandler failure_handler_;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t next_id_ = 1;
};

struct ChannelConfig {
  LinkConfig a_to_b;
  LinkConfig b_to_a;
  /// Retransmit lost messages after `retransmit_timeout`.
  bool reliable = true;
  sim::SimTime retransmit_timeout = sim::SimTime::millis(200);
  int max_retransmits = 16;
};

/// Owns both endpoints and both links. Construct via make().
class Channel {
 public:
  static std::unique_ptr<Channel> make(sim::Simulation& sim,
                                       const ChannelConfig& config,
                                       std::string name_a = "client",
                                       std::string name_b = "server",
                                       std::uint64_t seed = 1);

  Endpoint& a() { return *a_; }
  Endpoint& b() { return *b_; }

  Link& link_a_to_b() { return ab_; }
  Link& link_b_to_a() { return ba_; }

  /// Install a fault hook on one direction (true = a→b). Passing an empty
  /// function removes it.
  void set_fault_hook(bool a_to_b, FaultHook hook);

  /// Attach an observability sink. When set, every transmission attempt
  /// emits one kTransmitAttempt span (parented on the message's trace
  /// context) and byte/drop/duplicate counters accrue in the registry.
  /// Null (the default) disables all of it at the cost of one branch.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Transmission attempts that were dropped (retransmissions included).
  std::uint64_t drops() const { return drops_; }
  /// Messages the channel gave up on (ARQ exhausted, or unreliable loss).
  std::uint64_t delivery_failures() const { return delivery_failures_; }
  /// Extra copies delivered by duplication faults.
  std::uint64_t duplicates() const { return duplicates_; }
  /// Payloads damaged by corruption faults.
  std::uint64_t corruptions() const { return corruptions_; }

 private:
  Channel(sim::Simulation& sim, const ChannelConfig& config,
          std::string name_a, std::string name_b, std::uint64_t seed);

  friend class Endpoint;
  void transmit(bool from_a, Message message, int attempt);
  void deliver(Link& link, Endpoint& dest, Message message,
               sim::SimTime extra_delay);
  void fail_delivery(bool from_a, Message message, int attempts);

  sim::Simulation& sim_;
  ChannelConfig config_;
  Link ab_;
  Link ba_;
  std::unique_ptr<Endpoint> a_;
  std::unique_ptr<Endpoint> b_;
  FaultHook fault_ab_;
  FaultHook fault_ba_;
  obs::Obs* obs_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t delivery_failures_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corruptions_ = 0;
};

}  // namespace offload::net
