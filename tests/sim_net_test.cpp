// Tests for the discrete-event simulator and the network substrate (link
// shaping, channels, reliability, bandwidth estimation). The link math is
// checked against the paper's own arithmetic: a 44 MB model at 30 Mbps
// takes ~11.7 s.
#include <gtest/gtest.h>

#include "src/net/bandwidth.h"
#include "src/net/channel.h"
#include "src/net/link.h"
#include "src/net/message.h"
#include "src/sim/simulation.h"

namespace offload {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(SimTime, ArithmeticAndConversion) {
  EXPECT_EQ(SimTime::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(SimTime::millis(3).to_seconds(), 0.003);
  EXPECT_EQ((SimTime::seconds(1) + SimTime::millis(500)).to_seconds(), 1.5);
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::zero().ns(), 0);
}

TEST(Simulation, FiresInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(Simulation, FifoTieBreakAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] {
    ++fired;
    sim.schedule(SimTime::millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(2));
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  int fired = 0;
  auto h = sim.schedule(SimTime::millis(5), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double-cancel
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::millis(5), [&] { ++fired; });
  sim.schedule(SimTime::millis(15), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::millis(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule(SimTime::millis(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::millis(1), [] {}),
               std::logic_error);
}

TEST(Link, PaperTransferArithmetic) {
  // "44 MB model ... about 12 seconds ... 30 Mbps" (Section III.B.1).
  net::Link link(net::LinkConfig{.bandwidth_bps = 30e6,
                                 .latency = SimTime::zero()});
  SimTime t = link.nominal_duration(44'000'000);
  EXPECT_NEAR(t.to_seconds(), 11.73, 0.01);
}

TEST(Link, SerializesTransfersFifo) {
  net::Link link(net::LinkConfig{.bandwidth_bps = 8e6,  // 1 MB/s
                                 .latency = SimTime::millis(10)});
  auto p1 = link.transmit(SimTime::zero(), 1'000'000);  // 1 s on the wire
  EXPECT_NEAR(p1.sent.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(p1.arrival.to_seconds(), 1.01, 1e-9);
  // Second message queued behind the first.
  auto p2 = link.transmit(SimTime::millis(100), 500'000);
  EXPECT_NEAR(p2.start.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(p2.arrival.to_seconds(), 1.51, 1e-9);
  // After idle, no queueing.
  auto p3 = link.transmit(SimTime::seconds(10), 1000);
  EXPECT_NEAR(p3.start.to_seconds(), 10.0, 1e-9);
}

TEST(Link, BandwidthChangeAffectsFutureTransfers) {
  net::Link link(net::LinkConfig{.bandwidth_bps = 8e6,
                                 .latency = SimTime::zero()});
  auto p1 = link.transmit(SimTime::zero(), 1'000'000);
  link.set_bandwidth_bps(16e6);
  auto p2 = link.transmit(p1.sent, 1'000'000);
  EXPECT_NEAR((p2.sent - p2.start).to_seconds(), 0.5, 1e-9);
}

TEST(Link, RejectsBadConfig) {
  EXPECT_THROW(net::Link(net::LinkConfig{.bandwidth_bps = 0}),
               std::invalid_argument);
  EXPECT_THROW(net::Link(net::LinkConfig{.loss_rate = 1.5}),
               std::invalid_argument);
}

TEST(Channel, DeliversAtSimulatedArrivalTime) {
  Simulation sim;
  net::ChannelConfig cfg;
  cfg.a_to_b.bandwidth_bps = 8e6;  // 1 MB/s
  cfg.a_to_b.latency = SimTime::millis(5);
  auto channel = net::Channel::make(sim, cfg);
  SimTime arrival;
  channel->b().set_handler([&](const net::Message& m) {
    arrival = sim.now();
    EXPECT_EQ(m.name, "hello");
  });
  net::Message m;
  m.type = net::MessageType::kControl;
  m.name = "hello";
  m.payload.assign(1'000'000, 0);  // 1 MB → 1 s + 5 ms
  channel->a().send(std::move(m));
  sim.run();
  EXPECT_NEAR(arrival.to_seconds(), 1.005, 0.001);
  EXPECT_GT(channel->b().bytes_received(), 1'000'000u);
}

TEST(Channel, BidirectionalConversation) {
  Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  int server_got = 0;
  int client_got = 0;
  channel->b().set_handler([&](const net::Message&) {
    ++server_got;
    net::Message reply;
    reply.type = net::MessageType::kAck;
    channel->b().send(std::move(reply));
  });
  channel->a().set_handler([&](const net::Message&) { ++client_got; });
  net::Message m;
  m.type = net::MessageType::kModelFiles;
  channel->a().send(std::move(m));
  sim.run();
  EXPECT_EQ(server_got, 1);
  EXPECT_EQ(client_got, 1);
}

TEST(Channel, LossyLinkRetransmitsUntilDelivery) {
  Simulation sim;
  net::ChannelConfig cfg;
  cfg.a_to_b.loss_rate = 0.5;
  cfg.reliable = true;
  auto channel = net::Channel::make(sim, cfg, "client", "server", /*seed=*/3);
  int delivered = 0;
  channel->b().set_handler([&](const net::Message&) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    net::Message m;
    m.type = net::MessageType::kControl;
    channel->a().send(std::move(m));
  }
  sim.run();
  EXPECT_EQ(delivered, 20);       // every message eventually arrives
  EXPECT_GT(channel->drops(), 0u);  // and losses actually happened
}

TEST(Channel, UnreliableDropsSilently) {
  Simulation sim;
  net::ChannelConfig cfg;
  cfg.a_to_b.loss_rate = 0.9;
  cfg.reliable = false;
  auto channel = net::Channel::make(sim, cfg, "a", "b", 5);
  int delivered = 0;
  channel->b().set_handler([&](const net::Message&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    net::Message m;
    m.type = net::MessageType::kControl;
    channel->a().send(std::move(m));
  }
  sim.run();
  EXPECT_LT(delivered, 50);
}

TEST(Bandwidth, EstimatorTracksObservations) {
  net::BandwidthEstimator est(30e6);
  EXPECT_EQ(est.estimate_bps(), 30e6);  // fallback before data
  // Observe 1 MB in 1 s = 8 Mbps, repeatedly.
  for (int i = 0; i < 20; ++i) {
    est.observe(1'000'000, SimTime::seconds(1));
  }
  EXPECT_NEAR(est.estimate_bps(), 8e6, 1e5);
  EXPECT_NEAR(est.predict(2'000'000).to_seconds(), 2.0, 0.05);
  EXPECT_EQ(est.observations(), 20u);
}

TEST(Channel, ArqExhaustionInvokesSenderFailureHandler) {
  // With certain loss, the ARQ burns its whole retransmit budget and then
  // surfaces a typed delivery failure on the *sender* — no silent hang.
  Simulation sim;
  net::ChannelConfig config;
  config.reliable = true;
  config.max_retransmits = 5;
  config.retransmit_timeout = SimTime::millis(20);
  auto channel = net::Channel::make(sim, config);
  channel->set_fault_hook(true, [](const net::Message&) {
    net::FaultDecision d;
    d.drop = true;  // every attempt, deterministically
    return d;
  });
  int failures = 0;
  int attempts_seen = 0;
  channel->a().set_failure_handler([&](const net::Message&, int attempts) {
    ++failures;
    attempts_seen = attempts;
  });
  net::Message m;
  m.type = net::MessageType::kControl;
  m.name = "lost";
  channel->a().send(std::move(m));
  sim.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(attempts_seen, 6);  // original + 5 retransmits
  EXPECT_EQ(channel->delivery_failures(), 1u);
}

TEST(Channel, UnreliableLossAlsoReportsDeliveryFailure) {
  Simulation sim;
  net::ChannelConfig config;
  config.reliable = false;
  auto channel = net::Channel::make(sim, config);
  channel->set_fault_hook(true, [](const net::Message&) {
    net::FaultDecision d;
    d.drop = true;
    return d;
  });
  int failures = 0;
  channel->a().set_failure_handler(
      [&](const net::Message&, int) { ++failures; });
  net::Message m;
  m.type = net::MessageType::kControl;
  m.name = "lost";
  channel->a().send(std::move(m));
  sim.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(channel->delivery_failures(), 1u);
}

TEST(Bandwidth, IgnoresDegenerateSamples) {
  net::BandwidthEstimator est(30e6);
  est.observe(0, SimTime::seconds(1));
  est.observe(100, SimTime::zero());
  EXPECT_EQ(est.observations(), 0u);
  EXPECT_EQ(est.estimate_bps(), 30e6);
}

}  // namespace
}  // namespace offload
