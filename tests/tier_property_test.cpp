// Property tests for the edge→cloud tier (src/tier): the no-lost-inference
// guarantee under cross-tier fault plans.
//
// Each seed derives a scenario — work stealing on/off, an edge crash, a
// blackout window on the tier links, corrupt migrations, a mid-flight
// drain — and runs a flash crowd of supervised clients against a small
// fleet whose overflow escalates to the cloud. The property: every
// admitted inference completes bit-exact (result text identical to a
// clean local run) — a client that hears a typed failure finishes locally
// with the same bytes, so nothing is ever lost or wrong. A second pass
// re-runs a sample of seeds and demands byte-identical observability
// transcripts across runs and OFFLOAD_THREADS, and the degenerate check
// pins a tier-enabled-but-idle runtime to the tier-less one bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/offload.h"
#include "src/obs/export.h"
#include "src/tier/topology.h"
#include "src/util/thread_pool.h"

namespace offload::tier {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::set_default_pool_threads(0); }
};

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

/// The text every inference must produce, wherever it ends up running
/// (local fallback, origin edge, stolen peer, or the cloud).
std::string expected_result_text() {
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
  core::RuntimeConfig config;
  config.client.offload = false;
  core::OffloadingRuntime runtime(config, std::move(bundle));
  return runtime.run().result_text;
}

/// One cross-tier fault scenario, every knob a pure function of the seed.
struct Scenario {
  std::uint64_t seed = 1;
  bool steal = false;
  bool crash_edge = false;   ///< edge 0 crashes just after the flash crowd
  bool blackout = false;     ///< tier links drop everything for a window
  bool corrupt = false;      ///< tier links corrupt migrated payloads
  bool queue_deadline = false;  ///< edges expire queued jobs (escalation)
  bool drain = false;        ///< migrate edge 0's queue mid-flight
  bool drain_to_cloud = false;
  /// Unbounded admission queue: backlog builds (work stealing and queue
  /// deadlines bite) instead of shedding at admission (escalation bites).
  bool deep_queue = false;
  std::uint32_t crash_delay_ms = 1;
  std::uint32_t blackout_start_ms = 0;
  std::uint32_t blackout_ms = 100;
};

Scenario make_scenario(std::uint64_t seed) {
  util::Pcg32 rng(seed);
  Scenario s;
  s.seed = seed;
  s.steal = (rng.next_u32() & 1) != 0;
  // Fault families: every seed gets at least one, a quarter get them all.
  const std::uint32_t mode = rng.next_below(4);
  s.crash_edge = mode == 0 || mode == 3;
  s.blackout = mode == 1 || mode == 3;
  s.corrupt = mode == 2 || mode == 3;
  s.queue_deadline = rng.next_below(3) == 0;
  s.drain = rng.next_below(3) == 0;
  s.drain_to_cloud = (rng.next_u32() & 1) != 0;
  s.crash_delay_ms = 1 + rng.next_below(60);
  s.blackout_start_ms = rng.next_below(50);
  s.blackout_ms = 100 + rng.next_below(500);
  s.deep_queue = rng.next_below(3) == 0;
  return s;
}

struct Outcome {
  int finished = 0;
  int matched = 0;  ///< result text identical to the clean run
  Topology::Stats tier;
  int escalated = 0;  ///< edge-side snapshots_escalated, both edges
  std::string transcript;
};

Outcome run_scenario(const Scenario& s, const std::string& expected) {
  sim::Simulation sim;
  obs::Obs obs;
  const nn::BenchmarkModel model = tiny_model();
  edge::AppBundle prototype = core::make_benchmark_app(model, false);
  const sim::SimTime click =
      core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
      sim::SimTime::seconds(2);

  fault::FaultPlanConfig faults;
  faults.seed = s.seed;
  if (s.corrupt) {
    // Installed on the tier channels only (via TierConfig::on_channel):
    // corrupt *migrations*, not client traffic.
    faults.uplink.corrupt_rate = 0.15;
    faults.downlink.corrupt_rate = 0.15;
  }
  if (s.blackout) {
    fault::BlackoutSpec b;
    b.start = click + sim::SimTime::millis(s.blackout_start_ms);
    b.duration = sim::SimTime::millis(s.blackout_ms);
    faults.blackouts.push_back(b);
  }
  if (s.crash_edge) {
    fault::CrashSpec crash;
    crash.first_at = click + sim::SimTime::millis(s.crash_delay_ms);
    crash.downtime = sim::SimTime::seconds(3);
    faults.crashes.push_back(crash);
  }
  fault::FaultInjector injector(sim, faults);

  fleet::FleetConfig fleet_config;
  fleet_config.size = 2;
  fleet_config.dedup = true;
  fleet_config.server.ack_snapshots = true;  // supervised clients
  fleet_config.server.scheduler.max_queue = s.deep_queue ? 0 : 1;
  if (s.queue_deadline) {
    fleet_config.server.queue_deadline = sim::SimTime::millis(40);
  }
  // Stretch restores so the flash crowd actually queues and overflows.
  fleet_config.server.profile.snapshot_parse_Bps = 40e3;
  fleet_config.obs = &obs;
  fleet::EdgeFleet fleet(sim, fleet_config);

  constexpr int kClients = 5;
  std::vector<fleet::EdgeFleet::ClientLink> links;
  std::vector<std::unique_ptr<edge::ClientDevice>> clients;
  links.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    const std::string name = "client" + std::to_string(i);
    links.push_back(fleet.connect_client(name));
    edge::ClientConfig config;
    config.supervisor.enabled = true;
    config.obs = &obs;
    fleet.configure_client(config, links.back(), name);
    clients.push_back(std::make_unique<edge::ClientDevice>(
        sim, *links.back().endpoints[0], config,
        core::make_benchmark_app(model, false)));
    for (std::size_t k = 1; k < links.back().endpoints.size(); ++k) {
      clients.back()->attach_server(*links.back().endpoints[k]);
    }
  }

  TierConfig tier_config;
  tier_config.obs = &obs;
  tier_config.steal = s.steal;
  tier_config.steal_seed = s.seed;
  tier_config.on_channel = [&injector](net::Channel& channel) {
    injector.attach_channel(channel);
  };
  Topology topology(sim, fleet, std::move(tier_config));
  if (s.crash_edge) injector.attach_server(fleet.server(0));
  if (s.drain) {
    sim.schedule_at(click + sim::SimTime::millis(60), [&] {
      topology.drain(0, s.drain_to_cloud ? Topology::kCloud : 1);
    });
  }

  for (auto& client : clients) {
    client->start();
    client->click_at(click);
  }
  sim.run();

  Outcome out;
  for (const auto& client : clients) {
    if (client->finished()) ++out.finished;
    if (client->result_text() == expected) ++out.matched;
  }
  out.tier = topology.stats();
  out.escalated = fleet.server(0).stats().snapshots_escalated +
                  fleet.server(1).stats().snapshots_escalated;
  out.transcript = obs::to_jsonl(obs.trace) + obs.metrics.dump_text();
  return out;
}

TEST(TierProperty, NoInferenceLostAcross200SeedCrossTierFaultPlans) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  const std::string expected = expected_result_text();
  ASSERT_FALSE(expected.empty());
  Topology::Stats total;
  int escalated = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = make_scenario(seed);
    const Outcome out = run_scenario(s, expected);
    ASSERT_EQ(out.finished, 5) << "seed " << seed << " lost an inference";
    ASSERT_EQ(out.matched, 5)
        << "seed " << seed << " produced a result that diverged bit-wise";
    total.escalations += out.tier.escalations;
    total.steals += out.tier.steals;
    total.drained += out.tier.drained;
    total.relays_completed += out.tier.relays_completed;
    total.relays_failed += out.tier.relays_failed;
    total.results_dropped += out.tier.results_dropped;
    total.model_pushes += out.tier.model_pushes;
    escalated += out.escalated;
  }
  // The grid must actually exercise the machinery it claims to test: jobs
  // climbed the tier, relays completed, some failed typed, and some
  // origins died under a completed relay (the epoch guard fired).
  EXPECT_GT(total.escalations, 0);
  EXPECT_GT(total.drained, 0);
  EXPECT_GT(total.relays_completed, 0);
  EXPECT_GT(total.relays_failed, 0);
  EXPECT_GT(total.model_pushes, 0);
  EXPECT_EQ(escalated, total.escalations);
}

TEST(TierProperty, StealingMovesWorkAndLosesNothing) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  const std::string expected = expected_result_text();
  // Pure load imbalance, no faults: four clients pinned to edge 0 while
  // edge 1 sits idle. The steal ticks must move backlog to the idle peer
  // on the seeded schedule — and nothing may be lost in the process.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulation sim;
    obs::Obs obs;
    const nn::BenchmarkModel model = tiny_model();
    edge::AppBundle prototype = core::make_benchmark_app(model, false);
    const sim::SimTime click =
        core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
        sim::SimTime::seconds(2);

    fleet::FleetConfig fleet_config;
    fleet_config.size = 2;
    fleet_config.server.ack_snapshots = true;
    fleet_config.server.profile.snapshot_parse_Bps = 40e3;
    fleet_config.obs = &obs;
    fleet::EdgeFleet fleet(sim, fleet_config);

    constexpr int kClients = 4;
    std::vector<fleet::EdgeFleet::ClientLink> links;
    std::vector<std::unique_ptr<edge::ClientDevice>> clients;
    for (int i = 0; i < kClients; ++i) {
      links.push_back(fleet.connect_client("client" + std::to_string(i)));
      edge::ClientConfig config;
      config.supervisor.enabled = true;
      config.obs = &obs;
      // No configure_client: everyone pins to edge 0 — maximal imbalance.
      clients.push_back(std::make_unique<edge::ClientDevice>(
          sim, *links.back().endpoints[0], config,
          core::make_benchmark_app(model, false)));
      for (std::size_t k = 1; k < links.back().endpoints.size(); ++k) {
        clients.back()->attach_server(*links.back().endpoints[k]);
      }
    }

    TierConfig tier_config;
    tier_config.obs = &obs;
    tier_config.steal = true;
    tier_config.steal_seed = seed;
    tier_config.escalation_budget = sim::SimTime::seconds(10);
    Topology topology(sim, fleet, std::move(tier_config));

    for (auto& client : clients) {
      client->start();
      client->click_at(click);
    }
    sim.run();

    EXPECT_GT(topology.stats().steals, 0) << "seed " << seed;
    EXPECT_EQ(topology.stats().steals, topology.stats().relays_completed)
        << "seed " << seed;
    EXPECT_EQ(fleet.server(1).stats().snapshots_executed,
              topology.stats().steals)
        << "seed " << seed;
    for (const auto& client : clients) {
      ASSERT_TRUE(client->finished()) << "seed " << seed;
      EXPECT_EQ(client->result_text(), expected) << "seed " << seed;
      // Stolen or not, the client never saw anything but its own edge.
      EXPECT_EQ(client->timeline().server_index, 0) << "seed " << seed;
    }
  }
}

TEST(TierProperty, TranscriptByteIdenticalAcrossRunsAndThreadCounts) {
  PoolGuard guard;
  const std::string expected = [] {
    util::set_default_pool_threads(1);
    return expected_result_text();
  }();
  for (std::uint64_t seed : {3ull, 57ull, 120ull}) {
    const Scenario s = make_scenario(seed);
    util::set_default_pool_threads(1);
    const Outcome first = run_scenario(s, expected);
    const Outcome again = run_scenario(s, expected);
    util::set_default_pool_threads(4);
    const Outcome threaded = run_scenario(s, expected);
    ASSERT_EQ(first.transcript, again.transcript)
        << "seed " << seed << " is not run-to-run deterministic";
    ASSERT_EQ(first.transcript, threaded.transcript)
        << "seed " << seed << " depends on OFFLOAD_THREADS";
  }
}

TEST(TierProperty, IdleTierLeavesDegenerateRunByteIdentical) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  // Tier constructed but never exercised (no overflow, no faults, no
  // drain): every client-visible byte — result, timeline, trace, metrics
  // — must match the tier-less runtime exactly.
  auto run_once = [](bool tier_on, obs::Obs* obs) {
    edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
    core::RuntimeConfig config;
    config.client.supervisor.enabled = true;
    config.fleet.dedup = true;
    if (tier_on) config.tier.emplace();
    config.click_at =
        core::after_ack_click_time(*bundle.network, false, 0, 30e6);
    config.obs = obs;
    core::OffloadingRuntime runtime(config, std::move(bundle));
    return runtime.run();
  };
  obs::Obs without;
  const core::RunResult off = run_once(false, &without);
  obs::Obs with;
  const core::RunResult on = run_once(true, &with);
  EXPECT_EQ(on.result_text, off.result_text);
  EXPECT_EQ(on.inference_seconds, off.inference_seconds);
  EXPECT_EQ(on.offloaded, off.offloaded);
  EXPECT_EQ(obs::to_jsonl(with.trace), obs::to_jsonl(without.trace));
  EXPECT_EQ(with.metrics.dump_text(), without.metrics.dump_text());
}

TEST(TierProperty, DrainMigratesQueuedJobsTransparently) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  const std::string expected = expected_result_text();
  // Three clients pinned to edge 0 (no balancer hook), restores slowed so
  // two jobs sit queued when drain() fires: they finish on edge 1 while
  // the clients keep talking to — and believing in — edge 0.
  sim::Simulation sim;
  obs::Obs obs;
  const nn::BenchmarkModel model = tiny_model();
  edge::AppBundle prototype = core::make_benchmark_app(model, false);
  const sim::SimTime click =
      core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
      sim::SimTime::seconds(2);

  fleet::FleetConfig fleet_config;
  fleet_config.size = 2;
  fleet_config.server.ack_snapshots = true;
  fleet_config.server.profile.snapshot_parse_Bps = 10e3;  // slow restores
  fleet_config.obs = &obs;
  fleet::EdgeFleet fleet(sim, fleet_config);

  constexpr int kClients = 3;
  std::vector<fleet::EdgeFleet::ClientLink> links;
  std::vector<std::unique_ptr<edge::ClientDevice>> clients;
  for (int i = 0; i < kClients; ++i) {
    links.push_back(fleet.connect_client("client" + std::to_string(i)));
    edge::ClientConfig config;
    config.supervisor.enabled = true;
    config.obs = &obs;
    // No configure_client: every client stays pinned to edge 0, so the
    // queue builds there and edge 1 is reachable only through the tier.
    clients.push_back(std::make_unique<edge::ClientDevice>(
        sim, *links.back().endpoints[0], config,
        core::make_benchmark_app(model, false)));
    for (std::size_t k = 1; k < links.back().endpoints.size(); ++k) {
      clients.back()->attach_server(*links.back().endpoints[k]);
    }
  }

  TierConfig tier_config;
  tier_config.obs = &obs;
  // Slowed restores make each migrated execution take seconds; give the
  // relays room (still inside the supervisor's 15 s execute deadline).
  tier_config.escalation_budget = sim::SimTime::seconds(10);
  Topology topology(sim, fleet, std::move(tier_config));
  std::size_t moved = 0;
  sim.schedule_at(click + sim::SimTime::millis(80),
                  [&] { moved = topology.drain(0, 1); });

  for (auto& client : clients) {
    client->start();
    client->click_at(click);
  }
  sim.run();

  EXPECT_EQ(moved, 2u);  // one executing stays, two queued jobs migrate
  EXPECT_EQ(topology.stats().drained, 2);
  EXPECT_EQ(topology.stats().relays_completed, 2);
  EXPECT_EQ(fleet.server(0).stats().jobs_migrated, 2);
  EXPECT_EQ(fleet.server(1).stats().snapshots_executed, 2);
  for (const auto& client : clients) {
    ASSERT_TRUE(client->finished());
    EXPECT_EQ(client->result_text(), expected);
    // Transparent: the client still believes its own edge served it.
    EXPECT_EQ(client->timeline().server_index, 0);
    EXPECT_TRUE(client->timeline().offloaded);
    EXPECT_EQ(client->supervisor_stats().redirects, 0);
  }
}

TEST(TierProperty, DrainRedirectsDifferentialJobsToThePeer) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  const std::string expected = expected_result_text();
  // Client B establishes a session on edge 0 (first inference), then
  // offloads a *differential* snapshot that lands in the queue behind a
  // blocker. drain(0, 1) cannot relay it — only edge 0's realm can apply
  // the diff — so B is redirected: its supervisor re-targets edge 1,
  // re-presends, replays, and the inference still finishes bit-exact.
  sim::Simulation sim;
  obs::Obs obs;
  const nn::BenchmarkModel model = tiny_model();
  edge::AppBundle prototype = core::make_benchmark_app(model, false);
  const sim::SimTime click =
      core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
      sim::SimTime::seconds(2);

  fleet::FleetConfig fleet_config;
  fleet_config.size = 2;
  fleet_config.server.ack_snapshots = true;
  fleet_config.server.profile.snapshot_parse_Bps = 10e3;
  fleet_config.obs = &obs;
  fleet::EdgeFleet fleet(sim, fleet_config);

  auto make_client = [&](bool differential) {
    fleet::EdgeFleet::ClientLink link = fleet.connect_client(
        differential ? std::string("clientB") : std::string("clientA"));
    edge::ClientConfig config;
    config.supervisor.enabled = true;
    config.differential_snapshots = differential;
    config.obs = &obs;
    auto client = std::make_unique<edge::ClientDevice>(
        sim, *link.endpoints[0], config,
        core::make_benchmark_app(model, false));
    for (std::size_t k = 1; k < link.endpoints.size(); ++k) {
      client->attach_server(*link.endpoints[k]);
    }
    return client;
  };
  auto blocker = make_client(false);
  auto repeat = make_client(true);

  TierConfig tier_config;
  tier_config.obs = &obs;
  Topology topology(sim, fleet, std::move(tier_config));

  // B's first inference runs alone and finishes, leaving a session realm
  // on edge 0. Then the blocker occupies the lane and B's differential
  // follow-up queues behind it; the drain fires while it waits.
  blocker->start();
  repeat->start();
  repeat->click_at(click);
  const sim::SimTime second = click + sim::SimTime::seconds(8);
  blocker->click_at(second);
  repeat->click_at(second + sim::SimTime::millis(30));
  std::size_t moved = 0;
  sim.schedule_at(second + sim::SimTime::millis(200),
                  [&] { moved = topology.drain(0, 1); });
  sim.run();

  EXPECT_EQ(moved, 1u);
  EXPECT_EQ(topology.stats().redirects, 1);
  EXPECT_EQ(topology.stats().drained, 0);
  ASSERT_TRUE(blocker->finished());
  ASSERT_TRUE(repeat->finished());
  EXPECT_EQ(blocker->result_text(), expected);
  EXPECT_EQ(repeat->result_text(), expected);
  EXPECT_EQ(repeat->supervisor_stats().redirects, 1);
  // The redirected client really moved: its last inference ran on edge 1.
  EXPECT_EQ(repeat->timeline().server_index, 1);
}

}  // namespace
}  // namespace offload::tier
