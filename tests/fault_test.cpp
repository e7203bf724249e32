// Tests for the deterministic fault-injection framework (src/fault) and
// the client offload supervisor: message faults, server crashes/stalls,
// backoff, circuit breaking, hedging, crash recovery, and the end-to-end
// determinism guarantee for faulted runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/offload.h"
#include "src/serve/scheduler.h"
#include "src/util/crc32.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

net::Message make_message(std::string name, std::size_t payload_bytes) {
  net::Message m;
  m.type = net::MessageType::kSnapshot;
  m.name = std::move(name);
  m.payload.assign(payload_bytes, 0x5a);
  return m;
}

// ---------------------------------------------------------------------------
// FaultPlan

TEST(FaultPlan, SameSeedSameDecisions) {
  fault::FaultPlanConfig config = fault::FaultPlanConfig::uniform(0.3, 42);
  fault::FaultPlan a(config);
  fault::FaultPlan b(config);
  for (int i = 0; i < 200; ++i) {
    net::Message m = make_message("m" + std::to_string(i), 64);
    bool uplink = (i % 3) != 0;
    net::FaultDecision da = a.decide(uplink, m);
    net::FaultDecision db = b.decide(uplink, m);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.corrupt_mask, db.corrupt_mask);
    EXPECT_EQ(da.corrupt_index, db.corrupt_index);
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_EQ(a.stats().corruptions, b.stats().corruptions);
  EXPECT_GT(a.stats().drops, 0u);  // 0.3 drop rate over 200 draws
}

TEST(FaultPlan, DirectionsUseIndependentStreams) {
  // The uplink decision sequence must not depend on how many downlink
  // messages interleave — each direction has its own stream.
  fault::FaultPlanConfig config = fault::FaultPlanConfig::uniform(0.3, 7);
  fault::FaultPlan pure(config);
  fault::FaultPlan mixed(config);
  for (int i = 0; i < 100; ++i) {
    net::Message m = make_message("m", 32);
    net::FaultDecision dp = pure.decide(true, m);
    mixed.decide(false, m);  // interleaved downlink traffic
    net::FaultDecision dm = mixed.decide(true, m);
    EXPECT_EQ(dp.drop, dm.drop);
    EXPECT_EQ(dp.duplicate, dm.duplicate);
    EXPECT_EQ(dp.corrupt_mask, dm.corrupt_mask);
  }
}

TEST(FaultPlan, ZeroRatesAreCleanPassThrough) {
  fault::FaultPlanConfig config;  // all rates zero
  fault::FaultPlan plan(config);
  for (int i = 0; i < 50; ++i) {
    net::FaultDecision d = plan.decide(i % 2 == 0, make_message("m", 16));
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, sim::SimTime::zero());
    EXPECT_EQ(d.corrupt_mask, 0);
  }
  EXPECT_EQ(plan.stats().drops, 0u);
  EXPECT_EQ(plan.stats().duplicates, 0u);
}

// ---------------------------------------------------------------------------
// Channel fault hooks

TEST(ChannelFaults, DropRidesTheArqPath) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  int drops_left = 2;
  channel->set_fault_hook(true, [&](const net::Message&) {
    net::FaultDecision d;
    if (drops_left > 0) {
      --drops_left;
      d.drop = true;
    }
    return d;
  });
  int delivered = 0;
  channel->b().set_handler([&](const net::Message&) { ++delivered; });
  channel->a().send(make_message("x", 100));
  sim.run();
  EXPECT_EQ(delivered, 1);  // ARQ retransmitted through the drops
  EXPECT_EQ(channel->drops(), 2u);  // two attempts dropped, third delivered
  EXPECT_EQ(channel->delivery_failures(), 0u);
}

TEST(ChannelFaults, DuplicateDeliversAnExtraCopy) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  bool armed = true;
  channel->set_fault_hook(true, [&](const net::Message&) {
    net::FaultDecision d;
    d.duplicate = armed;
    armed = false;  // only the first attempt duplicates
    return d;
  });
  int delivered = 0;
  channel->b().set_handler([&](const net::Message&) { ++delivered; });
  channel->a().send(make_message("x", 100));
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(channel->duplicates(), 1u);
}

TEST(ChannelFaults, ExtraDelayShiftsArrival) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  channel->set_fault_hook(true, [&](const net::Message&) {
    net::FaultDecision d;
    d.extra_delay = sim::SimTime::seconds(3);
    return d;
  });
  sim::SimTime arrival;
  channel->b().set_handler([&](const net::Message&) { arrival = sim.now(); });
  channel->a().send(make_message("x", 100));
  sim.run();
  EXPECT_GE(arrival, sim::SimTime::seconds(3));
}

TEST(ChannelFaults, CorruptionIsCaughtByCrc) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  channel->set_fault_hook(true, [&](const net::Message&) {
    net::FaultDecision d;
    d.corrupt_mask = 0xff;
    d.corrupt_index = 3;
    return d;
  });
  bool intact = true;
  channel->b().set_handler(
      [&](const net::Message& m) { intact = edge::payload_intact(m); });
  channel->a().send(make_message("x", 100));
  sim.run();
  EXPECT_FALSE(intact);
  EXPECT_EQ(channel->corruptions(), 1u);
}

TEST(ChannelFaults, ArqExhaustionSurfacesTypedDeliveryFailure) {
  // A message dropped on every attempt must not vanish silently: after
  // max_retransmits the *sender* gets a delivery-failure callback with the
  // attempt count (the supervisor's cheapest failure signal).
  sim::Simulation sim;
  net::ChannelConfig config;
  config.max_retransmits = 3;
  config.retransmit_timeout = sim::SimTime::millis(10);
  auto channel = net::Channel::make(sim, config);
  channel->set_fault_hook(true, [](const net::Message&) {
    net::FaultDecision d;
    d.drop = true;
    return d;
  });
  int failures = 0;
  int reported_attempts = 0;
  std::string failed_name;
  channel->a().set_failure_handler(
      [&](const net::Message& m, int attempts) {
        ++failures;
        reported_attempts = attempts;
        failed_name = m.name;
      });
  int delivered = 0;
  channel->b().set_handler([&](const net::Message&) { ++delivered; });
  channel->a().send(make_message("doomed", 100));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(reported_attempts, 4);  // 1 original + 3 retransmits
  EXPECT_EQ(failed_name, "doomed");
  EXPECT_EQ(channel->delivery_failures(), 1u);
}

// ---------------------------------------------------------------------------
// Server-level faults

TEST(ServerFaults, CrashWipesStateAndDropsWhileDown) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  edge::EdgeServer server(sim, channel->b());
  std::vector<std::string> replies;
  channel->a().set_handler(
      [&](const net::Message& m) { replies.push_back(m.name); });

  // Pre-send a (fake) model file, then crash the server and poke it while
  // down: the poke vanishes, and after the restart the store is empty.
  edge::ModelFilesPayload files;
  files.files.push_back({"tiny.model", util::Bytes(1000, 0x77)});
  net::Message presend;
  presend.type = net::MessageType::kModelFiles;
  presend.name = "tiny";
  presend.payload = files.encode();
  channel->a().send(std::move(presend));

  server.schedule_crash(sim::SimTime::seconds(5), sim::SimTime::seconds(2));
  sim.schedule_at(sim::SimTime::seconds(6), [&] {
    channel->a().send(make_message("poke", 64));  // lands while down
  });
  sim.run();

  EXPECT_EQ(server.stats().crashes, 1);
  EXPECT_EQ(server.stats().restarts, 1);
  EXPECT_GE(server.stats().dropped_while_down, 1);
  EXPECT_EQ(server.stats().models_stored, 1);
  // The pre-send was ACKed before the crash; nothing else answered.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(server.model_store().file_count(), 0u);  // wiped cold
  EXPECT_FALSE(server.down());                  // restarted
}

TEST(ServerFaults, CrashMidStoreSuppressesTheAck) {
  // The model-files ACK is scheduled after a disk-store delay; a crash in
  // that window must kill it (boot-epoch guard), not ACK from the grave.
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  edge::EdgeServerConfig server_config;
  server_config.store_Bps = 1e6;  // slow disk: a wide crash window
  edge::EdgeServer server(sim, channel->b(), server_config);
  int acks = 0;
  channel->a().set_handler([&](const net::Message&) { ++acks; });

  edge::ModelFilesPayload files;
  files.files.push_back({"big.model", util::Bytes(40 << 20, 0x77)});
  net::Message presend;
  presend.type = net::MessageType::kModelFiles;
  presend.name = "big";
  presend.payload = files.encode();

  // 40 MB upload at 30 Mbps arrives around t=11s; persisting it at
  // 1 MB/s takes ~42 s more. Crash inside the store window.
  channel->a().send(std::move(presend));
  server.schedule_crash(sim::SimTime::seconds(15), sim::SimTime::seconds(1));
  sim.run();
  EXPECT_EQ(server.stats().crashes, 1);
  EXPECT_EQ(acks, 0);
}

TEST(ServerFaults, StallDefersProcessing) {
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  edge::EdgeServer server(sim, channel->b());
  sim::SimTime reply_at;
  channel->a().set_handler([&](const net::Message&) { reply_at = sim.now(); });

  server.schedule_stall(sim::SimTime::seconds(1), sim::SimTime::seconds(2));
  sim.schedule_at(sim::SimTime::seconds(1.5), [&] {
    // Lands mid-stall; without models it draws a "model_missing:" reply —
    // but only once the stall lifts at t=3.
    edge::SnapshotPayload payload;
    payload.program = "(function() { m = __loadModel(\"ghost\"); })();\n";
    net::Message msg;
    msg.type = net::MessageType::kSnapshot;
    msg.name = "ghost";
    msg.payload = payload.encode();
    channel->a().send(std::move(msg));
  });
  sim.run();
  EXPECT_GE(server.stats().stalled_messages, 1);
  EXPECT_GE(reply_at, sim::SimTime::seconds(3));
}

TEST(ServerFaults, QueueDeadlineExpiresOverdueJobs) {
  // Deadline-aware cancellation in the serving scheduler: a queued job
  // whose deadline passes while an earlier job hogs the lane is cancelled
  // and its on_expired fires (the edge server turns this into "expired:").
  sim::Simulation sim;
  serve::SchedulerConfig config;
  config.replicas = 1;
  serve::Scheduler scheduler(sim, config);

  int done = 0;
  int expired = 0;
  scheduler.submit_opaque(1.0, [&](const serve::RequestTiming&) { ++done; });
  scheduler.submit_opaque(
      0.1, [&](const serve::RequestTiming&) { ++done; },
      sim.now() + sim::SimTime::seconds(0.5),
      [&](const serve::RequestTiming&) { ++expired; });
  sim.run();
  EXPECT_EQ(done, 1);     // only the first job ran
  EXPECT_EQ(expired, 1);  // the second timed out in queue
  EXPECT_EQ(scheduler.stats().expired, 1u);
}

// ---------------------------------------------------------------------------
// Supervisor primitives

TEST(RetryBackoff, DeterministicGrowthWithCap) {
  edge::SupervisorConfig config;
  config.backoff_base = sim::SimTime::millis(100);
  config.backoff_factor = 2.0;
  config.backoff_cap = sim::SimTime::seconds(1.0);
  config.jitter = 0.2;
  config.jitter_seed = 9;
  edge::RetryBackoff a(config);
  edge::RetryBackoff b(config);
  sim::SimTime prev = sim::SimTime::zero();
  for (int attempt = 1; attempt <= 8; ++attempt) {
    sim::SimTime da = a.delay(attempt);
    sim::SimTime db = b.delay(attempt);
    EXPECT_EQ(da, db);  // same seed, same jitter stream
    // Within the jittered envelope of base * 2^(n-1), capped at 1s.
    double nominal = std::min(0.1 * std::pow(2.0, attempt - 1), 1.0);
    EXPECT_GE(da.to_seconds(), nominal * 0.8 - 1e-9);
    EXPECT_LE(da.to_seconds(), nominal * 1.2 + 1e-9);
    if (attempt > 1 && attempt < 4) {
      EXPECT_GT(da, prev);
    }
    prev = da;
  }
}

TEST(CircuitBreaker, OpensHalfOpensAndRecloses) {
  edge::CircuitBreaker breaker(3, sim::SimTime::seconds(10), 1);
  using State = edge::CircuitBreaker::State;
  sim::SimTime t = sim::SimTime::seconds(1);

  EXPECT_EQ(breaker.state(t), State::kClosed);
  breaker.record_failure(t);
  breaker.record_failure(t);
  EXPECT_TRUE(breaker.allow(t));  // still closed at 2 failures
  breaker.record_failure(t);
  EXPECT_EQ(breaker.state(t), State::kOpen);
  EXPECT_FALSE(breaker.allow(t));
  EXPECT_EQ(breaker.times_opened(), 1);

  // Cooldown elapses → half-open admits one probe, refuses a stampede.
  sim::SimTime probe_time = t + sim::SimTime::seconds(11);
  EXPECT_EQ(breaker.state(probe_time), State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(probe_time));
  EXPECT_FALSE(breaker.allow(probe_time));  // only one probe in flight

  // Probe succeeds → closed again; failures reset.
  breaker.record_success(probe_time);
  EXPECT_EQ(breaker.state(probe_time), State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.allow(probe_time));
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  edge::CircuitBreaker breaker(2, sim::SimTime::seconds(5), 1);
  using State = edge::CircuitBreaker::State;
  sim::SimTime t = sim::SimTime::seconds(1);
  breaker.record_failure(t);
  breaker.record_failure(t);
  EXPECT_EQ(breaker.state(t), State::kOpen);

  sim::SimTime probe_time = t + sim::SimTime::seconds(6);
  EXPECT_TRUE(breaker.allow(probe_time));
  breaker.record_failure(probe_time);  // probe failed
  EXPECT_EQ(breaker.state(probe_time), State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2);
  // The new cooldown runs from the re-open.
  EXPECT_FALSE(breaker.allow(probe_time + sim::SimTime::seconds(4)));
  EXPECT_TRUE(breaker.allow(probe_time + sim::SimTime::seconds(6)));
}

// ---------------------------------------------------------------------------
// Supervisor end to end

RuntimeConfig supervised_config(edge::AppBundle& bundle) {
  RuntimeConfig config;
  config.client.supervisor.enabled = true;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  return config;
}

TEST(Supervisor, HedgeLocalWinWhenServerDies) {
  // The server dies right after the click and stays dead; no secondary.
  // The hedge starts quickly, finishes locally, and the supervisor takes
  // that answer — the app completes with the remote side gone.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config = supervised_config(bundle);
  config.client.supervisor.hedge_after = sim::SimTime::millis(10);
  fault::CrashSpec crash;
  crash.first_at = config.click_at + sim::SimTime::millis(1);
  crash.downtime = sim::SimTime::seconds(1000);
  fault::FaultPlanConfig faults;
  faults.crashes.push_back(crash);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();

  EXPECT_TRUE(result.timeline.hedged);
  EXPECT_TRUE(result.timeline.hedge_local_win);
  EXPECT_TRUE(result.timeline.local_fallback);
  EXPECT_FALSE(result.offloaded);
  EXPECT_GE(runtime.client().supervisor_stats().hedge_local_wins, 1);
  RunResult local = run_scenario(tiny_model(), Scenario::kClientOnly);
  EXPECT_EQ(result.result_text, local.result_text);
}

TEST(Supervisor, HedgeRemoteWinCancelsTheLocalRun) {
  // A brief server stall delays the result enough to trigger the hedge,
  // but the remote still finishes first: the hedge is cancelled and its
  // compute counted as waste.
  double local_s =
      run_scenario(tiny_model(), Scenario::kClientOnly).inference_seconds;
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config = supervised_config(bundle);
  config.client.supervisor.hedge_after = sim::SimTime::seconds(0.05 * local_s);
  fault::StallSpec stall;
  stall.at = config.click_at;
  stall.duration = sim::SimTime::seconds(0.1 * local_s);
  fault::FaultPlanConfig faults;
  faults.stalls.push_back(stall);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();

  EXPECT_TRUE(result.offloaded);
  EXPECT_TRUE(result.timeline.hedged);
  EXPECT_FALSE(result.timeline.hedge_local_win);
  EXPECT_GT(result.timeline.hedge_wasted_s, 0);
  EXPECT_EQ(runtime.client().supervisor_stats().hedge_remote_wins, 1);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(Supervisor, CompletesEveryClickUnderFaultsAndCrashes) {
  // The headline robustness property: 5% message faults on both
  // directions plus a periodically crashing primary, and every inference
  // still completes (failing over, retrying, or falling back locally).
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config = supervised_config(bundle);
  config.fleet.spares = 1;
  fault::FaultPlanConfig faults = fault::FaultPlanConfig::uniform(0.05, 11);
  fault::CrashSpec crash;
  crash.first_at = config.click_at + sim::SimTime::millis(1);
  crash.downtime = sim::SimTime::seconds(5);
  crash.period = sim::SimTime::seconds(45);
  crash.count = 3;
  faults.crashes.push_back(crash);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));

  RunResult first = runtime.run();
  EXPECT_FALSE(first.result_text.empty());
  std::string expected = first.result_text;
  for (int i = 0; i < 3; ++i) {
    runtime.client().click_at(runtime.simulation().now() +
                              sim::SimTime::seconds(20));
    runtime.simulation().run();
    ASSERT_TRUE(runtime.client().finished()) << "click " << i << " hung";
    EXPECT_EQ(runtime.client().result_text(), expected);
  }
}

TEST(Supervisor, UnsupervisedClientHangsWhereSupervisedCompletes) {
  // The same crash schedule, supervisor off: the snapshot lands on a dead
  // server and nothing ever answers. The runtime reports the stall rather
  // than completing — which is exactly what the supervisor exists to fix.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  fault::CrashSpec crash;
  crash.first_at = config.click_at + sim::SimTime::millis(1);
  crash.downtime = sim::SimTime::seconds(1000);
  fault::FaultPlanConfig faults;
  faults.crashes.push_back(crash);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));
  EXPECT_THROW(runtime.run(), std::runtime_error);
}

TEST(Supervisor, FaultedRunsAreBitReproducible) {
  // Two runs with identical seeds and fault plans must agree on every
  // observable: timestamps to the nanosecond, retry counts, the answer.
  auto run_once = [](RunResult& out, edge::SupervisorStats& stats) {
    edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
    RuntimeConfig config;
    config.client.supervisor.enabled = true;
    config.fleet.spares = 1;
    config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
    fault::FaultPlanConfig faults = fault::FaultPlanConfig::uniform(0.08, 23);
    fault::CrashSpec crash;
    crash.first_at = config.click_at + sim::SimTime::millis(2);
    crash.downtime = sim::SimTime::seconds(3);
    faults.crashes.push_back(crash);
    config.faults = faults;
    OffloadingRuntime runtime(config, std::move(bundle));
    out = runtime.run();
    stats = runtime.client().supervisor_stats();
  };
  RunResult a, b;
  edge::SupervisorStats sa, sb;
  run_once(a, sa);
  run_once(b, sb);

  EXPECT_EQ(a.result_text, b.result_text);
  EXPECT_EQ(a.offloaded, b.offloaded);
  ASSERT_TRUE(a.timeline.finished && b.timeline.finished);
  EXPECT_EQ(a.timeline.finished->ns(), b.timeline.finished->ns());
  EXPECT_EQ(a.timeline.clicked.ns(), b.timeline.clicked.ns());
  EXPECT_EQ(a.timeline.retries, b.timeline.retries);
  EXPECT_EQ(a.timeline.backoff_wait_s, b.timeline.backoff_wait_s);
  EXPECT_EQ(a.timeline.recovery_s, b.timeline.recovery_s);
  EXPECT_EQ(a.timeline.server_index, b.timeline.server_index);
  EXPECT_EQ(sa.retries, sb.retries);
  EXPECT_EQ(sa.deadline_expiries, sb.deadline_expiries);
  EXPECT_EQ(sa.failovers, sb.failovers);
  EXPECT_EQ(sa.model_represends, sb.model_represends);
  EXPECT_EQ(sa.backoff_wait_s, sb.backoff_wait_s);
}

TEST(Supervisor, DegenerateConfigMatchesUnsupervisedRun) {
  // No faults + supervisor defaults (disabled): the run must be
  // bit-identical to the plain pipeline — the robustness layer costs
  // nothing when everything is healthy.
  RunResult plain = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_EQ(result.result_text, plain.result_text);
  EXPECT_EQ(result.inference_seconds, plain.inference_seconds);
  EXPECT_EQ(result.timeline.finished->ns(), plain.timeline.finished->ns());
  EXPECT_EQ(result.breakdown.retry_backoff, 0.0);
  EXPECT_EQ(result.breakdown.crash_recovery, 0.0);
}

}  // namespace
}  // namespace offload::core
