// End-to-end tests for the edge-server fleet: content-addressed model
// pre-send (digest offers, blob-cache hits, crash wipe, CRC-detected blob
// rot) and balancer-driven request spreading across servers. Clients talk
// to a hand-built EdgeFleet so several of them can share one simulation —
// exactly how the OffloadingRuntime wires its single client, minus the
// single-client assumption.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/offload.h"
#include "src/util/hash.h"

namespace offload::fleet {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

/// A fleet plus any number of clients in one simulation.
struct Harness {
  sim::Simulation sim;
  obs::Obs obs;
  std::unique_ptr<EdgeFleet> fleet;
  std::vector<std::unique_ptr<edge::ClientDevice>> clients;

  Harness(std::size_t size, const std::string& policy, bool dedup) {
    FleetConfig config;
    config.size = size;
    config.balancer.policy = policy;
    config.dedup = dedup;
    config.channel = core::RuntimeConfig::default_channel();
    config.obs = &obs;
    fleet = std::make_unique<EdgeFleet>(sim, config);
  }

  edge::ClientDevice& add_client(const std::string& name) {
    EdgeFleet::ClientLink link = fleet->connect_client(name);
    edge::ClientConfig config;
    config.obs = &obs;
    fleet->configure_client(config, link, name);
    edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
    clients.push_back(std::make_unique<edge::ClientDevice>(
        sim, *link.endpoints[0], config, std::move(bundle)));
    for (std::size_t k = 1; k < link.endpoints.size(); ++k) {
      clients.back()->attach_server(*link.endpoints[k]);
    }
    return *clients.back();
  }

  /// Launch a client now and click comfortably after its model ACK.
  void run_one_inference(edge::ClientDevice& client) {
    client.start();
    client.click_at(sim.now() + sim::SimTime::seconds(5));
    sim.run();
    ASSERT_TRUE(client.finished()) << "inference never completed";
  }
};

/// Digest of every model file the benchmark app pre-sends.
std::vector<std::uint64_t> model_digests() {
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
  std::vector<std::uint64_t> digests;
  for (const nn::ModelFile& f : nn::model_files(*bundle.network)) {
    digests.push_back(util::fnv1a(f.bytes()));
  }
  return digests;
}

TEST(FleetDedup, SecondClientPresendIsDigestSized) {
  Harness h(1, "hash", true);
  edge::ClientDevice& first = h.add_client("client1");
  h.run_one_inference(first);
  edge::ClientDevice& second = h.add_client("client2");
  h.run_one_inference(second);

  const edge::EdgeServer::Stats& stats = h.fleet->server(0).stats();
  const std::size_t n_files = model_digests().size();
  ASSERT_GE(n_files, 2u);
  EXPECT_EQ(stats.model_offers, 2);
  // Client 1 found a cold cache (all misses, full upload); client 2's
  // offer hit on every file another client uploaded.
  EXPECT_EQ(stats.dedup_miss_files, static_cast<int>(n_files));
  EXPECT_EQ(stats.dedup_hit_files, static_cast<int>(n_files));
  EXPECT_EQ(stats.dedup_corrupt_blobs, 0);
  EXPECT_GT(stats.dedup_bytes_saved, 0u);
  EXPECT_EQ(h.fleet->dedup_bytes_saved(), stats.dedup_bytes_saved);

  // The wire agrees with the counters: the second pre-send shipped only
  // digests, a small fraction of the first client's upload.
  const std::uint64_t full = first.timeline().model_upload_bytes;
  const std::uint64_t offer = second.timeline().model_upload_bytes;
  EXPECT_GT(offer, 0u);
  EXPECT_LT(offer, 512u) << "offer should be digest-sized";
  EXPECT_GT(full, 8 * offer);
  // Saved bytes are the offered content sizes: almost the whole upload
  // (the remainder is payload framing — names, varints).
  EXPECT_LT(stats.dedup_bytes_saved, full);
  EXPECT_GT(stats.dedup_bytes_saved, full / 2);
  // Both inferences still offloaded and produced results.
  EXPECT_TRUE(first.timeline().offloaded);
  EXPECT_TRUE(second.timeline().offloaded);
  EXPECT_EQ(first.result_text(), second.result_text());
}

TEST(FleetDedup, CrashWipesTheBlobCache) {
  Harness h(1, "hash", true);
  edge::ClientDevice& first = h.add_client("client1");
  h.run_one_inference(first);
  EXPECT_GT(h.fleet->server(0).model_store().blob_count(), 0u);

  h.fleet->server(0).schedule_crash(h.sim.now() + sim::SimTime::millis(1),
                                    sim::SimTime::millis(500));
  h.sim.run();
  EXPECT_EQ(h.fleet->server(0).model_store().blob_count(), 0u);

  // The next client offers into an empty cache: zero hits, full upload.
  edge::ClientDevice& second = h.add_client("client2");
  h.run_one_inference(second);
  const edge::EdgeServer::Stats& stats = h.fleet->server(0).stats();
  EXPECT_EQ(stats.dedup_hit_files, 0);
  EXPECT_EQ(second.timeline().model_upload_bytes,
            first.timeline().model_upload_bytes);
  EXPECT_TRUE(second.timeline().offloaded);
}

TEST(FleetDedup, CorruptedBlobIsEvictedAndReuploaded) {
  Harness h(1, "hash", true);
  edge::ClientDevice& first = h.add_client("client1");
  h.run_one_inference(first);

  const std::vector<std::uint64_t> digests = model_digests();
  edge::ModelStore& store = h.fleet->server(0).model_store();
  ASSERT_TRUE(store.corrupt_blob(digests.front()));

  edge::ClientDevice& second = h.add_client("client2");
  h.run_one_inference(second);
  const edge::EdgeServer::Stats& stats = h.fleet->server(0).stats();
  // The rotted blob failed its CRC on lookup: counted, treated as a miss
  // (re-uploaded in full), while every healthy file still hit.
  EXPECT_EQ(stats.dedup_corrupt_blobs, 1);
  EXPECT_EQ(stats.dedup_hit_files, static_cast<int>(digests.size()) - 1);
  EXPECT_EQ(stats.dedup_miss_files, static_cast<int>(digests.size()) + 1);
  // The re-upload repopulated the cache with a clean copy.
  bool corrupt = false;
  EXPECT_NE(store.find_blob(digests.front(), &corrupt), nullptr);
  EXPECT_FALSE(corrupt);
  EXPECT_TRUE(second.timeline().offloaded);
  EXPECT_EQ(second.result_text(), first.result_text());
}

TEST(FleetDedup, CrashDuringPresendFailsOverWithDigestSizedReoffer) {
  // Crash the primary mid-model-pre-send, after the supervisor has a
  // snapshot riding on the pending ACK. The retry policy burns through the
  // dead server, the breaker opens, and the failover re-presends to the
  // replacement — as a digest offer. The replacement's blob cache already
  // holds all but one file, so it re-requests exactly the missing blob.
  std::string expected;
  {
    Harness clean(1, "hash", false);
    edge::ClientDevice& reference = clean.add_client("client");
    clean.run_one_inference(reference);
    expected = reference.result_text();
  }

  sim::Simulation sim;
  obs::Obs obs;
  FleetConfig fleet_config;
  fleet_config.size = 2;
  fleet_config.dedup = true;
  fleet_config.server.ack_snapshots = true;
  fleet_config.channel = core::RuntimeConfig::default_channel();
  fleet_config.obs = &obs;
  EdgeFleet fleet(sim, fleet_config);

  // Servers materialize on the first connect, so link before warming.
  EdgeFleet::ClientLink link = fleet.connect_client("client");

  // Warm the replacement the way an earlier tenant would have: every model
  // file except the first is already stored (and so indexed) on server 1.
  edge::AppBundle warm = core::make_benchmark_app(tiny_model(), false);
  const std::vector<nn::ModelFile> files = nn::model_files(*warm.network);
  ASSERT_GE(files.size(), 2u);
  fleet.server(1).model_store().store_files({files.begin() + 1, files.end()});

  edge::ClientConfig client_config;
  client_config.obs = &obs;
  client_config.supervisor.enabled = true;
  // No hedge: a local run winning the race would mask the failover path
  // this test is about.
  client_config.supervisor.hedge_after = sim::SimTime::zero();
  // What configure_client would set; skipping the balancer hook pins the
  // candidate order to [0, 1] so the crash victim is always the primary.
  client_config.dedup_presend = true;
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
  edge::ClientDevice client(sim, *link.endpoints[0], client_config,
                            std::move(bundle));
  client.attach_server(*link.endpoints[1]);

  client.start();
  // 2 ms in, the offer/send_files round trip is still in flight — the
  // primary dies holding a partial upload and stays down past the whole
  // retry budget. The click lands before any ACK could, so the snapshot
  // rides the pre-send and funnels timeouts into the failover policy.
  fleet.server(0).schedule_crash(sim.now() + sim::SimTime::millis(2),
                                 sim::SimTime::seconds(600));
  client.click_at(sim.now() + sim::SimTime::millis(60));
  sim.run();

  ASSERT_TRUE(client.finished());
  EXPECT_TRUE(client.timeline().offloaded);
  EXPECT_EQ(client.timeline().server_index, 1);
  EXPECT_GE(client.supervisor_stats().failovers, 1);
  EXPECT_EQ(client.result_text(), expected);

  // The replacement saw one digest offer, hit on every pre-warmed blob,
  // and asked for (then received) only the one it was missing.
  const edge::EdgeServer::Stats& replacement = fleet.server(1).stats();
  EXPECT_EQ(replacement.model_offers, 1);
  EXPECT_EQ(replacement.dedup_hit_files, static_cast<int>(files.size()) - 1);
  EXPECT_EQ(replacement.dedup_miss_files, 1);
  EXPECT_EQ(replacement.snapshots_executed, 1);
  EXPECT_GT(replacement.dedup_bytes_saved, 0u);
  // The dead primary never executed anything and never ACKed the model.
  EXPECT_EQ(fleet.server(0).stats().snapshots_executed, 0);
  EXPECT_EQ(fleet.server(0).stats().models_stored, 0);
}

TEST(FleetBalance, LeastOutstandingSpreadsConcurrentClients) {
  Harness h(2, "least_outstanding", false);
  edge::ClientDevice& first = h.add_client("client1");
  edge::ClientDevice& second = h.add_client("client2");
  first.start();
  second.start();
  const sim::SimTime click = h.sim.now() + sim::SimTime::seconds(5);
  first.click_at(click);
  second.click_at(click);
  h.sim.run();
  ASSERT_TRUE(first.finished());
  ASSERT_TRUE(second.finished());
  // The first routed click charged server 0; the second click saw that
  // charge and went to server 1: one execution each.
  EXPECT_EQ(h.fleet->server(0).stats().snapshots_executed, 1);
  EXPECT_EQ(h.fleet->server(1).stats().snapshots_executed, 1);
  // Completions released both charges.
  for (int pending : h.fleet->outstanding()) EXPECT_EQ(pending, 0);
}

TEST(FleetBalance, BlobCachesArePerServer) {
  // Dedup is a per-server cache: a model uploaded to server 0 does not
  // make server 1 warm.
  Harness h(2, "least_outstanding", true);
  edge::ClientDevice& first = h.add_client("client1");
  h.run_one_inference(first);
  const bool s0_warm = h.fleet->server(0).model_store().blob_count() > 0;
  const bool s1_warm = h.fleet->server(1).model_store().blob_count() > 0;
  EXPECT_NE(s0_warm, s1_warm) << "exactly one server should hold the model";
}

TEST(FleetNaming, DegenerateFleetKeepsLegacyServerName) {
  sim::Simulation sim;
  FleetConfig one;
  one.size = 1;
  FleetConfig many;
  many.size = 3;
  EXPECT_EQ(EdgeFleet(sim, one).server_name(0), "server");
  EdgeFleet fleet(sim, many);
  EXPECT_EQ(fleet.server_name(0), "fleet/server0");
  EXPECT_EQ(fleet.server_name(2), "fleet/server2");
  FleetConfig none;
  none.size = 0;
  EXPECT_THROW(EdgeFleet(sim, none), std::invalid_argument);
}

TEST(FleetRuntime, SpareServerAttachesAfterBalancedSet) {
  // A spare lands after the fleet servers in the client's candidate list
  // (the historical "server-b" secondary wiring, now fleet-owned) and is
  // never routed while the balanced set is healthy.
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
  core::RuntimeConfig config;
  config.client.supervisor.enabled = true;
  config.fleet.spares = 1;
  config.click_at =
      core::after_ack_click_time(*bundle.network, false, 0, 30e6);
  core::OffloadingRuntime runtime(config, std::move(bundle));
  EXPECT_EQ(runtime.client().server_count(), 2u);
  EXPECT_EQ(runtime.fleet().size(), 1u);
  EXPECT_EQ(runtime.fleet().servers_up(), 2u);
  EXPECT_EQ(runtime.fleet().server_name(1), "server-b");
  core::RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  EXPECT_EQ(result.timeline.server_index, 0);
  EXPECT_EQ(runtime.fleet().server(1).stats().snapshots_executed, 0);
}

TEST(FleetRuntime, RoutedFleetRunsThroughTheRuntime) {
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), false);
  core::RuntimeConfig config;
  config.fleet.size = 2;
  config.fleet.balancer.policy = "p2c";
  config.fleet.dedup = true;
  config.click_at =
      core::after_ack_click_time(*bundle.network, false, 0, 30e6);
  obs::Obs obs;
  config.obs = &obs;
  core::OffloadingRuntime runtime(config, std::move(bundle));
  EXPECT_EQ(runtime.client().server_count(), 2u);
  core::RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  // Exactly one fleet server executed the snapshot, and the routing
  // marker for it landed in the trace.
  const int executed = runtime.fleet().server(0).stats().snapshots_executed +
                       runtime.fleet().server(1).stats().snapshots_executed;
  EXPECT_EQ(executed, 1);
  bool saw_route = false;
  for (const obs::Span& s : obs.trace.spans()) {
    if (s.resource == "fleet/balancer" &&
        s.name.rfind("route:server", 0) == 0) {
      saw_route = true;
    }
  }
  EXPECT_TRUE(saw_route);
}

}  // namespace
}  // namespace offload::fleet
