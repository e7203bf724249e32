#include "src/net/channel.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace offload::net {

std::uint64_t Endpoint::send(Message message) {
  message.id = next_id_++;
  const std::optional<std::uint32_t> known = message.payload.crc();
  message.crc = known ? *known : util::crc32(message.payload);
  bytes_sent_ += message.wire_size();
  std::uint64_t id = message.id;
  channel_->transmit(is_a_, std::move(message), 0);
  return id;
}

std::unique_ptr<Channel> Channel::make(sim::Simulation& sim,
                                       const ChannelConfig& config,
                                       std::string name_a, std::string name_b,
                                       std::uint64_t seed) {
  return std::unique_ptr<Channel>(
      new Channel(sim, config, std::move(name_a), std::move(name_b), seed));
}

Channel::Channel(sim::Simulation& sim, const ChannelConfig& config,
                 std::string name_a, std::string name_b, std::uint64_t seed)
    : sim_(sim),
      config_(config),
      ab_(config.a_to_b, seed),
      ba_(config.b_to_a, seed + 1),
      a_(new Endpoint(this, std::move(name_a), true)),
      b_(new Endpoint(this, std::move(name_b), false)) {}

void Channel::set_fault_hook(bool a_to_b, FaultHook hook) {
  (a_to_b ? fault_ab_ : fault_ba_) = std::move(hook);
}

void Channel::fail_delivery(bool from_a, Message message, int attempts) {
  ++delivery_failures_;
  if (obs_) {
    obs_->metrics.add("net.delivery_failures");
    obs_->trace.marker(message.ctx.trace, message.ctx.root,
                       std::string("undeliverable:") +
                           message_type_name(message.type),
                       (from_a ? a_ : b_)->name(), sim_.now());
  }
  OFFLOAD_LOG_ERROR << "channel: message " << message.id << " ("
                    << message_type_name(message.type)
                    << ") undeliverable after " << attempts << " attempt(s)";
  Endpoint& src = from_a ? *a_ : *b_;
  if (src.failure_handler_) src.failure_handler_(message, attempts);
}

void Channel::deliver(Link& link, Endpoint& dest, Message message,
                      sim::SimTime extra_delay) {
  TransferPlan plan = link.transmit(sim_.now(), message.wire_size());
  if (plan.lost) return;  // injected duplicates get no ARQ of their own
  std::uint64_t wire = message.wire_size();
  sim_.schedule_at(plan.arrival + extra_delay,
                   [&dest, wire, message = std::move(message)]() mutable {
                     dest.bytes_received_ += wire;
                     if (dest.handler_) dest.handler_(message);
                   });
}

void Channel::transmit(bool from_a, Message message, int attempt) {
  Link& link = from_a ? ab_ : ba_;
  Endpoint& dest = from_a ? *b_ : *a_;
  FaultHook& hook = from_a ? fault_ab_ : fault_ba_;
  FaultDecision fault;
  if (hook) fault = hook(message);

  TransferPlan plan = link.transmit(sim_.now(), message.wire_size());

  // One span per physical attempt (retransmissions included), parented on
  // the logical in-flight span carried by the message's trace context.
  // Everything is known at this point — no open span state to track.
  if (obs_) {
    Endpoint& src = from_a ? *a_ : *b_;
    bool lost = plan.lost || fault.drop;
    obs::SpanId span = obs_->trace.emit(
        message.ctx.trace,
        message.ctx.span ? message.ctx.span : message.ctx.root,
        obs::SpanKind::kTransmitAttempt, message_type_name(message.type),
        "net/" + src.name() + "->" + dest.name(), sim_.now(),
        lost ? plan.sent : plan.arrival + fault.extra_delay,
        ((lost ? plan.sent : plan.arrival + fault.extra_delay) - sim_.now())
            .to_seconds());
    obs_->trace.attr(span, "id", static_cast<std::int64_t>(message.id));
    obs_->trace.attr(span, "attempt", static_cast<std::int64_t>(attempt));
    obs_->trace.attr(span, "bytes",
                     static_cast<std::int64_t>(message.wire_size()));
    obs_->trace.attr(span, "outcome", lost ? "lost" : "delivered");
    obs_->metrics.add("net.attempts");
    obs_->metrics.add("net.bytes_attempted", message.wire_size());
    if (!lost) obs_->metrics.add("net.bytes_delivered", message.wire_size());
    if (lost) obs_->metrics.add("net.drops");
    if (fault.duplicate) obs_->metrics.add("net.duplicates");
    if (fault.corrupt_mask != 0 && !message.payload.empty()) {
      obs_->metrics.add("net.corruptions");
    }
  }

  if (plan.lost || fault.drop) {
    ++drops_;
    if (config_.reliable && attempt < config_.max_retransmits) {
      OFFLOAD_LOG_DEBUG << "channel: drop " << message_type_name(message.type)
                        << " id=" << message.id << ", retransmitting";
      // Sender notices the loss one timeout after the send completed.
      sim::SimTime retry_at = plan.sent + config_.retransmit_timeout;
      sim_.schedule_at(retry_at, [this, from_a, message = std::move(message),
                                  attempt]() mutable {
        transmit(from_a, std::move(message), attempt + 1);
      });
    } else {
      // ARQ exhausted (or reliability is off): the message is gone for
      // good. Surface that to the sender instead of leaving it hanging.
      fail_delivery(from_a, std::move(message), attempt + 1);
    }
    return;
  }

  if (fault.corrupt_mask != 0 && !message.payload.empty()) {
    ++corruptions_;
    util::Bytes damaged(message.payload.begin(), message.payload.end());
    damaged[static_cast<std::size_t>(fault.corrupt_index % damaged.size())] ^=
        fault.corrupt_mask;
    message.payload = std::move(damaged);
  }
  if (fault.duplicate) {
    ++duplicates_;
    deliver(link, dest, message, fault.extra_delay);  // the extra copy
  }
  std::uint64_t wire = message.wire_size();
  sim_.schedule_at(plan.arrival + fault.extra_delay,
                   [&dest, wire, message = std::move(message)]() mutable {
                     dest.bytes_received_ += wire;
                     if (dest.handler_) dest.handler_(message);
                   });
}

}  // namespace offload::net
