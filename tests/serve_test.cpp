// Tests for the serving scheduler: FIFO over one lane reproduces the old
// compute-reservation model exactly, deadlines never reorder the queue,
// a job queued behind another books its whole wait as queue wait even
// when dispatched at the completion instant, admission control bounds the
// queue, replica lanes run concurrently, and the edge server sheds
// overload with an "overloaded:" control reply that clients answer by
// falling back to local execution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/app.h"
#include "src/core/experiment.h"
#include "src/edge/client_device.h"
#include "src/edge/edge_server.h"
#include "src/nn/models.h"
#include "src/obs/obs.h"
#include "src/serve/scheduler.h"

namespace offload::serve {
namespace {

// ---------------------------------------------------------------------------
// One lane, FIFO == the old compute reservation

TEST(SchedulerTest, FifoDegenerateMatchesHandComputedReservation) {
  sim::Simulation sim;
  SchedulerConfig cfg;  // 1 replica, unbounded
  Scheduler sched(sim, cfg);

  std::vector<RequestTiming> timings;
  for (double busy : {1.0, 0.5, 0.25}) {
    SubmitResult r = sched.submit_opaque(
        busy, [&](const RequestTiming& t) { timings.push_back(t); });
    EXPECT_TRUE(r.admitted);
  }
  sim.run();

  // The old model: start_i = max(arrival, busy_until), served in order.
  ASSERT_EQ(timings.size(), 3u);
  const double starts[] = {0.0, 1.0, 1.5};
  const double ends[] = {1.0, 1.5, 1.75};
  for (int i = 0; i < 3; ++i) {
    const RequestTiming& t = timings[static_cast<std::size_t>(i)];
    EXPECT_DOUBLE_EQ(t.dispatched.to_seconds(), starts[i]) << i;
    EXPECT_DOUBLE_EQ(t.completed.to_seconds(), ends[i]) << i;
    EXPECT_DOUBLE_EQ(t.queue_wait_s, starts[i]) << i;  // submitted at t=0
    EXPECT_DOUBLE_EQ(t.batch_wait_s, 0.0) << i;        // never held
    EXPECT_EQ(t.replica, 0) << i;
  }
  EXPECT_EQ(sched.stats().launches, 3u);
}

TEST(SchedulerTest, DeadlinesNeverReorderTheQueue) {
  // One job occupies the lane; three more queue with deadlines in reverse
  // submission order, all late enough that none expires. They still run
  // in admission order.
  sim::Simulation sim;
  Scheduler sched(sim, {});

  std::vector<int> order;
  sched.submit_opaque(1.0, [](const RequestTiming&) {});
  const double deadlines[] = {30.0, 20.0, 10.0};
  for (int i = 0; i < 3; ++i) {
    sched.submit_opaque(
        0.1, [&order, i](const RequestTiming&) { order.push_back(i); },
        sim::SimTime::seconds(deadlines[i]));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched.stats().expired, 0u);
  // Dispatch dropped the expiry timer: nothing fires after the last job.
  EXPECT_EQ(sim.now(), sim::SimTime::seconds(1.3));
}

TEST(SchedulerTest, QueuedJobExpiresAtItsDeadline) {
  // A 1 s job holds the lane; the job queued behind it has a 0.5 s
  // deadline. It expires as soon as the deadline has passed, not when the
  // lane frees at 1 s.
  sim::Simulation sim;
  Scheduler sched(sim, {});

  sched.submit_opaque(1.0, [](const RequestTiming&) {});
  bool ran = false;
  sim::SimTime expired_at = sim::SimTime::max();
  sched.submit_opaque(
      0.1, [&ran](const RequestTiming&) { ran = true; },
      sim::SimTime::seconds(0.5),
      [&](const RequestTiming& t) {
        expired_at = sim.now();
        EXPECT_DOUBLE_EQ(t.queue_wait_s, expired_at.to_seconds());
      });
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(expired_at, sim::SimTime::seconds(0.5) + sim::SimTime::nanos(1));
  EXPECT_EQ(sched.stats().expired, 1u);
  EXPECT_EQ(sched.queue_depth(), 0u);
}

TEST(SchedulerTest, CancelRearmsTheExpiryTimer) {
  // Cancelling the queued job with the earliest deadline moves the timer
  // to the next one; cancelling the last drops it.
  sim::Simulation sim;
  Scheduler sched(sim, {});

  sched.submit_opaque(1.0, [](const RequestTiming&) {});
  std::vector<sim::SimTime> expired;
  auto on_expired = [&](const RequestTiming&) { expired.push_back(sim.now()); };
  const SubmitResult early =
      sched.submit_opaque(0.1, nullptr, sim::SimTime::seconds(0.2),
                          on_expired);
  sched.submit_opaque(0.1, nullptr, sim::SimTime::seconds(0.4), on_expired);
  const SubmitResult last =
      sched.submit_opaque(0.1, nullptr, sim::SimTime::seconds(0.6),
                          on_expired);
  EXPECT_TRUE(sched.cancel(early.id));
  sim.run_until(sim::SimTime::seconds(0.5));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], sim::SimTime::seconds(0.4) + sim::SimTime::nanos(1));
  EXPECT_TRUE(sched.cancel(last.id));
  sim.run();
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_EQ(sim.now(), sim::SimTime::seconds(1));  // only the 1 s job's end
}

TEST(SchedulerTest, SubmissionAtCompletionInstantKeepsTheQueueWait) {
  // A submission scheduled for t=1s before the first job exists fires
  // ahead of that job's completion event at the same instant, so the lane
  // reads free before its completion has run. The job queued at 0.5s then
  // dispatches at 1s: it waited behind the first job the whole time, which
  // is queue wait, not batch wait.
  sim::Simulation sim;
  obs::Obs obs;
  SchedulerConfig cfg;
  cfg.obs = &obs;
  Scheduler sched(sim, cfg);

  std::vector<RequestTiming> timings;  // completion order
  auto record = [&timings](const RequestTiming& t) { timings.push_back(t); };
  sim.schedule_at(sim::SimTime::seconds(1),
                  [&] { sched.submit_opaque(0.25, record); });
  sched.submit_opaque(1.0, record);
  sim.schedule_at(sim::SimTime::seconds(0.5),
                  [&] { sched.submit_opaque(0.25, record); });
  sim.run();

  ASSERT_EQ(timings.size(), 3u);
  const RequestTiming& queued = timings[1];
  EXPECT_EQ(queued.submitted, sim::SimTime::seconds(0.5));
  EXPECT_EQ(queued.dispatched, sim::SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(queued.queue_wait_s, 0.5);
  EXPECT_DOUBLE_EQ(queued.batch_wait_s, 0.0);
  const RequestTiming& last = timings[2];
  EXPECT_EQ(last.dispatched, sim::SimTime::seconds(1.25));
  EXPECT_DOUBLE_EQ(last.queue_wait_s, 0.25);
  EXPECT_DOUBLE_EQ(last.batch_wait_s, 0.0);
  const obs::Histogram* batch_wait =
      obs.metrics.histogram("serve.batch_wait_ms");
  ASSERT_NE(batch_wait, nullptr);
  EXPECT_EQ(batch_wait->count, 3u);
  EXPECT_DOUBLE_EQ(batch_wait->max, 0.0);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(SchedulerTest, BoundedQueueShedsBeyondCapacity) {
  sim::Simulation sim;
  obs::Obs obs;
  SchedulerConfig cfg;
  cfg.max_queue = 2;
  cfg.obs = &obs;
  Scheduler sched(sim, cfg);

  int admitted = 0;
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    SubmitResult r = sched.submit_opaque(1.0, [](const RequestTiming&) {});
    if (r.admitted) {
      ++admitted;
    } else {
      ++rejected;
      EXPECT_EQ(r.reject.reason, RejectReason::kQueueFull);
      EXPECT_EQ(r.reject.queue_depth, 2u);
    }
  }
  // First dispatches immediately (lane idle), two queue, two are shed.
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(sched.queue_depth(), 2u);
  EXPECT_FALSE(sched.would_admit());
  EXPECT_EQ(sched.stats().rejected, 2u);
  EXPECT_EQ(sched.stats().peak_queue_depth, 2u);
  // The metrics registry mirrors the stats: typed shed counter and the
  // queue-depth gauge (its peak tracks peak_queue_depth exactly).
  EXPECT_EQ(obs.metrics.counter("serve.rejected.queue_full"),
            sched.stats().rejected);
  EXPECT_EQ(obs.metrics.counter("serve.submitted"),
            static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(static_cast<std::uint64_t>(obs.metrics.gauge("serve.queue_depth")),
            sched.queue_depth());
  EXPECT_EQ(
      static_cast<std::uint64_t>(obs.metrics.gauge_peak("serve.queue_depth")),
      sched.stats().peak_queue_depth);
  // Pull accessors (the partition controller's live-telemetry feed) agree
  // with the push-side gauges at every point in time: one busy lane right
  // now, all idle after the queue drains.
  EXPECT_EQ(sched.lanes(), 1);
  EXPECT_EQ(sched.busy_lanes(sim.now()), 1);
  sim.run();
  EXPECT_EQ(sched.stats().completed, 3u);
  EXPECT_EQ(obs.metrics.counter("serve.completed"), 3u);
  EXPECT_EQ(obs.metrics.gauge("serve.queue_depth"), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(obs.metrics.gauge("serve.queue_depth")),
            sched.queue_depth());
  EXPECT_EQ(sched.busy_lanes(sim.now()), 0);
}

// ---------------------------------------------------------------------------
// Replica lanes

TEST(SchedulerTest, MultipleReplicasRunConcurrently) {
  sim::Simulation sim;
  SchedulerConfig cfg;
  cfg.replicas = 2;
  Scheduler sched(sim, cfg);

  std::vector<RequestTiming> timings;
  for (int i = 0; i < 2; ++i) {
    sched.submit_opaque(
        1.0, [&](const RequestTiming& t) { timings.push_back(t); });
  }
  sim.run();
  ASSERT_EQ(timings.size(), 2u);
  // Both start at t=0 on distinct lanes; neither waits.
  EXPECT_DOUBLE_EQ(timings[0].queue_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(timings[1].queue_wait_s, 0.0);
  EXPECT_NE(timings[0].replica, timings[1].replica);
  EXPECT_EQ(timings[0].completed, sim::SimTime::seconds(1));
  EXPECT_EQ(timings[1].completed, sim::SimTime::seconds(1));
}

// ---------------------------------------------------------------------------
// Edge-server integration: overload shedding

TEST(EdgeServerShedTest, OverloadedSnapshotGetsControlReply) {
  sim::Simulation sim;
  net::ChannelConfig ch;
  ch.a_to_b.latency = sim::SimTime::millis(1);
  ch.b_to_a.latency = sim::SimTime::millis(1);
  auto channel = net::Channel::make(sim, ch);

  obs::Obs obs;
  edge::EdgeServerConfig config;
  // Stretch snapshot restore so back-to-back sends overlap on the lane.
  config.profile.snapshot_parse_Bps = 100.0;
  config.scheduler.max_queue = 1;
  config.obs = &obs;
  edge::EdgeServer server(sim, channel->b(), config);

  std::vector<net::Message> inbox;
  channel->a().set_handler(
      [&inbox](const net::Message& m) { inbox.push_back(m); });

  jsvm::Interpreter scratch;
  scratch.eval_program("var x = 1;");
  jsvm::SnapshotResult snap = jsvm::capture_snapshot(scratch);
  for (int i = 0; i < 3; ++i) {
    edge::SnapshotPayload payload;
    payload.program = snap.program;
    net::Message msg;
    msg.type = net::MessageType::kSnapshot;
    msg.name = "appA";
    msg.payload = payload.encode();
    channel->a().send(std::move(msg));
  }
  sim.run();

  // One executes, one queues, one is shed with a typed control reply.
  EXPECT_EQ(server.stats().snapshots_executed, 2);
  EXPECT_EQ(server.stats().snapshots_shed, 1);
  ASSERT_EQ(inbox.size(), 3u);
  int overloaded = 0;
  for (const net::Message& m : inbox) {
    if (m.type == net::MessageType::kControl) {
      ++overloaded;
      EXPECT_EQ(m.name, "overloaded:appA");
    } else {
      EXPECT_EQ(m.type, net::MessageType::kResultSnapshot);
    }
  }
  EXPECT_EQ(overloaded, 1);
  // The shed counter agrees with the typed control replies on the wire,
  // and the scheduler (inheriting the server's obs_name) exposed its
  // queue depth as a gauge whose peak matches the stats.
  EXPECT_EQ(obs.metrics.counter("server.snapshots_shed"),
            static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(obs.metrics.counter("server.snapshots_executed"), 2u);
  EXPECT_EQ(obs.metrics.gauge_peak("server.queue_depth"), 1);
  EXPECT_EQ(obs.metrics.gauge("server.queue_depth"), 0);
}

TEST(EdgeServerShedTest, ShedClientFallsBackToLocalExecution) {
  // Three identical clients click at the same instant against a server
  // that admits one pending snapshot: two offload, the third is shed and
  // finishes locally.
  sim::Simulation sim;
  nn::BenchmarkModel model{"TinyCnn", &nn::build_tiny_cnn_default, 17, 32};

  edge::EdgeServerConfig server_config;
  server_config.keep_sessions = false;
  server_config.scheduler.max_queue = 1;

  std::vector<std::unique_ptr<net::Channel>> channels;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<std::unique_ptr<edge::ClientDevice>> clients;
  constexpr int kClients = 3;
  for (int i = 0; i < kClients; ++i) {
    net::ChannelConfig ch;
    ch.a_to_b.bandwidth_bps = 30e6;
    ch.b_to_a.bandwidth_bps = 30e6;
    channels.push_back(net::Channel::make(
        sim, ch, "client" + std::to_string(i), "edge", 100 + i));
    if (i == 0) {
      server = std::make_unique<edge::EdgeServer>(sim, channels[0]->b(),
                                                  server_config);
    } else {
      server->attach(channels[static_cast<std::size_t>(i)]->b());
    }
  }

  edge::AppBundle prototype = core::make_benchmark_app(model, false);
  const sim::SimTime click =
      core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
      sim::SimTime::seconds(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<edge::ClientDevice>(
        sim, channels[static_cast<std::size_t>(i)]->a(), edge::ClientConfig{},
        core::make_benchmark_app(model, false)));
    clients.back()->start();
    clients.back()->click_at(click);
  }
  sim.run();

  int offloaded = 0;
  int fell_back = 0;
  for (const auto& client : clients) {
    ASSERT_TRUE(client->finished());
    if (client->timeline().local_fallback) {
      ++fell_back;
      EXPECT_FALSE(client->timeline().offloaded);
    } else {
      ++offloaded;
    }
  }
  EXPECT_EQ(server->stats().snapshots_shed, 1);
  EXPECT_EQ(fell_back, 1);
  EXPECT_EQ(offloaded, kClients - 1);
}

}  // namespace
}  // namespace offload::serve
