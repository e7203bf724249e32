// Failure-injection tests: lossy links, jitter, bare servers, and protocol
// robustness under adverse conditions the edge environment implies.
#include <gtest/gtest.h>

#include "src/core/offload.h"
#include "src/util/crc32.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

TEST(FailureInjection, OffloadSurvivesLossyLink) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.2;
  config.channel.b_to_a.loss_rate = 0.2;
  config.channel.reliable = true;
  config.channel.retransmit_timeout = sim::SimTime::millis(100);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  // Same answer, possibly slower (retransmissions).
  EXPECT_EQ(result.result_text, clean.result_text);
  EXPECT_GE(result.inference_seconds, clean.inference_seconds);
}

TEST(FailureInjection, CorruptedPreSendResentFromIntactFiles) {
  // The channel damages a private copy of the first pre-send. The client's
  // files view the body it sent, so they keep their bytes; the retransmit
  // of that same body is stored, and the server's files view it too.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6) +
                    sim::SimTime::seconds(5);  // margin for the resend
  OffloadingRuntime runtime(config, std::move(bundle));
  int presends = 0;
  runtime.client_link().channels[0]->set_fault_hook(
      true, [&](const net::Message& m) {
        net::FaultDecision fault;
        if (m.type == net::MessageType::kModelFiles && presends++ == 0) {
          fault.corrupt_mask = 0x20;
          fault.corrupt_index = m.payload.size() / 2;
        }
        return fault;
      });
  RunResult result = runtime.run();
  EXPECT_EQ(presends, 2);
  EXPECT_EQ(runtime.server().stats().corrupt_rejected, 1);
  EXPECT_EQ(runtime.server().stats().models_stored, 1);

  const edge::ModelStore& client_store =
      *runtime.client().browser().model_store();
  const edge::ModelStore& server_store = runtime.server().model_store();
  ASSERT_EQ(client_store.file_count(), 2u);
  for (const nn::ModelFile& f : client_store.files()) {
    EXPECT_EQ(util::crc32(f.bytes()), f.crc()) << f.name;
    const nn::ModelFile* stored = server_store.find(f.name);
    ASSERT_NE(stored, nullptr) << f.name;
    EXPECT_TRUE(stored->same_bytes(f)) << f.name;
  }

  // The retransmit is served bit-exactly.
  const std::string app = client_store.files()[0].name.substr(
      0, client_store.files()[0].name.find('.'));
  auto kept = client_store.instantiate(app);
  auto served = server_store.instantiate(app);
  util::Pcg32 rng(3);
  const nn::Tensor in =
      nn::Tensor::random_uniform(kept->analyze().shapes[0], rng, 0.0f, 1.0f);
  EXPECT_EQ(nn::Tensor::max_abs_diff(kept->forward(in), served->forward(in)),
            0.0f);
  EXPECT_TRUE(result.offloaded);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(FailureInjection, HeavyLossStillCompletesWithRetransmits) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.5;
  config.channel.reliable = true;
  config.channel.retransmit_timeout = sim::SimTime::millis(50);
  config.channel.max_retransmits = 64;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6) +
                    sim::SimTime::seconds(30);  // margin for lost uploads
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  EXPECT_FALSE(result.result_text.empty());
}

TEST(FailureInjection, JitterDoesNotBreakOrdering) {
  // Per-message jitter delays arrivals but the protocol must still work
  // (our links are FIFO per direction; jitter only shifts latency).
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.jitter = sim::SimTime::millis(40);
  config.channel.b_to_a.jitter = sim::SimTime::millis(40);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(FailureInjection, AsymmetricBandwidth) {
  // Uplink-constrained Wi-Fi: the snapshot upload dominates; the return
  // path is fast.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.bandwidth_bps = 5e6;
  config.channel.b_to_a.bandwidth_bps = 100e6;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 5e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  EXPECT_GT(result.breakdown.transmission_up,
            result.breakdown.transmission_down * 3);
}

TEST(FailureInjection, DiffAfterServerRestartRecovers) {
  // Differential offloading when the server "restarts" (drops sessions)
  // between inferences: version miss → need_full → full resend works.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  config.server.keep_sessions = false;  // models a stateless/restarted server
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult first = runtime.run();
  runtime.client().click_at(runtime.simulation().now() +
                            sim::SimTime::seconds(2));
  runtime.simulation().run();
  EXPECT_TRUE(runtime.client().finished());
  EXPECT_EQ(runtime.client().result_text(), first.result_text);
  EXPECT_GE(runtime.server().stats().diff_version_misses, 1);
}

TEST(FailureInjection, ModelMissingOnServerRepliesGracefully) {
  // A snapshot arriving without any model pre-send and without bundled
  // model files must not hang OR kill the server: __loadModel throws
  // inside the restore run, and the server answers with a typed
  // "model_missing:" control reply so the client can re-presend (this is
  // also how clients detect a crashed-and-restarted server).
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  edge::EdgeServer server(sim, channel->b());
  std::vector<std::string> replies;
  channel->a().set_handler(
      [&](const net::Message& m) { replies.push_back(m.name); });
  // Craft a minimal snapshot that calls __loadModel for an unknown app.
  edge::SnapshotPayload payload;
  payload.program = "(function() { m = __loadModel(\"ghost\"); })();\n";
  net::Message msg;
  msg.type = net::MessageType::kSnapshot;
  msg.name = "ghost";
  msg.payload = payload.encode();
  channel->a().send(std::move(msg));
  sim.run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], "model_missing:ghost");
  EXPECT_EQ(server.stats().model_missing_replies, 1);
  EXPECT_EQ(server.stats().snapshots_executed, 0);
}

TEST(FailureInjection, PrimaryCrashFailsOverToSpareServer) {
  // Mid-session handoff under failure: the primary crashes right after
  // the click, the supervisor's deadlines fire, the circuit breaker
  // opens, and the inference migrates along the fleet candidate list to
  // the spare server (model re-presend + snapshot replay — snapshots are
  // self-contained, so nothing else moves). The answer must match the
  // no-fault run.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.supervisor.enabled = true;
  // No hedging: this test is about the failover path, and a local hedge
  // would win the race long before the breaker gives up on the primary.
  config.client.supervisor.hedge_after = sim::SimTime::zero();
  config.fleet.spares = 1;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  fault::CrashSpec crash;
  crash.first_at = config.click_at + sim::SimTime::millis(1);
  crash.downtime = sim::SimTime::seconds(600);  // stays dead
  fault::FaultPlanConfig faults;
  faults.crashes.push_back(crash);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();

  EXPECT_TRUE(result.offloaded);
  EXPECT_EQ(result.timeline.server_index, 1);
  EXPECT_GE(runtime.client().supervisor_stats().failovers, 1);
  ASSERT_EQ(runtime.fleet().servers_up(), 2u);
  EXPECT_GE(runtime.fleet().server(1).stats().snapshots_executed, 1);
  EXPECT_EQ(runtime.server().stats().snapshots_executed, 0);

  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(FailureInjection, UnreliableChannelCanStallApp) {
  // With reliability off and certain loss, the offload stalls and the
  // runtime reports it rather than spinning.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.999;
  config.channel.reliable = false;
  config.click_at = sim::SimTime::seconds(0.05);
  OffloadingRuntime runtime(config, std::move(bundle));
  EXPECT_THROW(runtime.run(), std::runtime_error);
}

}  // namespace
}  // namespace offload::core
