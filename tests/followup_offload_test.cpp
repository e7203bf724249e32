// Integration tests for repeat offloads and the adaptive client policies:
// differential snapshots against the server session (Section VI future
// work), the local-execution fallback while the model uploads
// (Section IV.A), and runtime partition selection (Section III.B.2).
#include <gtest/gtest.h>

#include "src/core/offload.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

/// Drive a runtime through two sequential inferences.
struct TwoClickRun {
  RunResult first;
  edge::ClientTimeline second;
  std::string second_result;
};

TwoClickRun run_two_clicks(RuntimeConfig config, bool partial = false) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), partial);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  TwoClickRun out;
  out.first = runtime.run();
  runtime.client().click_at(runtime.simulation().now() +
                            sim::SimTime::seconds(5));
  runtime.simulation().run();
  EXPECT_TRUE(runtime.client().finished());
  out.second = runtime.client().timeline();
  out.second_result = runtime.client().result_text();
  return out;
}

TEST(FollowupOffload, TwoFullOffloadsBothComplete) {
  RuntimeConfig config;
  TwoClickRun run = run_two_clicks(config);
  EXPECT_TRUE(run.first.offloaded);
  EXPECT_TRUE(run.second.offloaded);
  EXPECT_EQ(run.second_result, run.first.result_text);
  EXPECT_GT(run.second.inference_seconds(), 0);
}

TEST(FollowupOffload, DifferentialSecondOffloadIsTiny) {
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  config.server.keep_sessions = true;
  TwoClickRun run = run_two_clicks(config);

  // First offload ships the full state (the input image dominates).
  EXPECT_FALSE(run.first.timeline.used_differential);
  EXPECT_GT(run.first.timeline.snapshot_stats.total_bytes, 10'000u);
  // Second offload: nothing changed between clicks, so the diff carries
  // essentially just the re-dispatched event.
  EXPECT_TRUE(run.second.used_differential);
  EXPECT_LT(run.second.snapshot_stats.total_bytes, 500u);
  EXPECT_EQ(run.second_result, run.first.result_text);
  // The second inference is faster end to end (no image transfer).
  EXPECT_LT(run.second.inference_seconds(),
            run.first.inference_seconds * 0.9);
}

TEST(FollowupOffload, DifferentialServerStatsAccount) {
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  runtime.run();
  runtime.client().click_at(runtime.simulation().now() +
                            sim::SimTime::seconds(5));
  runtime.simulation().run();
  EXPECT_EQ(runtime.server().stats().snapshots_executed, 2);
  EXPECT_EQ(runtime.server().stats().diff_snapshots_applied, 1);
  EXPECT_EQ(runtime.server().stats().diff_version_misses, 0);
}

TEST(FollowupOffload, VersionMissFallsBackToFull) {
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  config.server.keep_sessions = false;  // server drops sessions
  TwoClickRun run = run_two_clicks(config);
  EXPECT_TRUE(run.second.offloaded);
  // The diff was refused; the client resent a full snapshot.
  EXPECT_FALSE(run.second.used_differential);
  EXPECT_GT(run.second.snapshot_stats.total_bytes, 10'000u);
  EXPECT_EQ(run.second_result, run.first.result_text);
}

TEST(FollowupOffload, DifferentialWorksForPartialInference) {
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  config.client.offload_event = "front_complete";
  config.client.partition_cut = 2;
  TwoClickRun run = run_two_clicks(config, /*partial=*/true);
  EXPECT_TRUE(run.second.used_differential);
  EXPECT_EQ(run.second_result, run.first.result_text);
  // The diff still has to carry the fresh feature tensor.
  EXPECT_EQ(run.second.snapshot_stats.typed_arrays, 1u);
  EXPECT_LT(run.second.snapshot_stats.total_bytes,
            run.first.timeline.snapshot_stats.total_bytes);
}

TEST(LocalFallback, RunsLocallyBeforeAckThenOffloads) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.local_fallback_before_ack = true;
  config.click_at = sim::SimTime::seconds(0.01);  // well before the ACK
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult first = runtime.run();
  EXPECT_FALSE(first.offloaded);
  EXPECT_TRUE(first.timeline.local_fallback);
  EXPECT_GT(first.breakdown.dnn_execution_client, 0);
  std::string local_result = first.result_text;

  // Second click after the ACK: offloads normally.
  runtime.client().click_at(runtime.simulation().now() +
                            sim::SimTime::seconds(10));
  runtime.simulation().run();
  EXPECT_TRUE(runtime.client().timeline().offloaded);
  EXPECT_FALSE(runtime.client().timeline().local_fallback);
  EXPECT_EQ(runtime.client().result_text(), local_result);
}

TEST(LocalFallback, FasterThanWaitingForModelUpload) {
  // The point of the policy: before the ACK, local execution beats
  // queueing the snapshot behind the model upload.
  ScenarioOptions opts;
  RunResult blocking =
      run_scenario(tiny_model(), Scenario::kOffloadBeforeAck, opts);

  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.local_fallback_before_ack = true;
  config.click_at = sim::SimTime::seconds(0.05);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult fallback = runtime.run();
  EXPECT_LT(fallback.inference_seconds, blocking.inference_seconds);
}

// The drift controller's first, untrained decision is the static
// Neurosurgeon-style partitioner estimate at the observed bandwidth
// (Section III.B.2): the runtime partition selection.
TEST(DriftFirstDecision, PicksACutAndMatchesResults) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), /*partial=*/true);
  RuntimeConfig config;
  config.client.controller.policy = ctrl::PolicyKind::kDrift;
  config.client.offload_event = "front_complete";
  config.client.partition_cut = SIZE_MAX;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  RunResult local = run_scenario(tiny_model(), Scenario::kClientOnly);
  EXPECT_EQ(result.result_text, local.result_text);
  EXPECT_NE(runtime.client().timeline().used_partition_cut, SIZE_MAX);
}

TEST(DriftFirstDecision, TerribleNetworkChoosesLocal) {
  // At 2 kbps the model ACK arrives after ~half an hour of simulated
  // time; the bandwidth estimator observes that, and the controller then
  // picks fully-local execution for the click.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), /*partial=*/true);
  RuntimeConfig config;
  config.client.controller.policy = ctrl::PolicyKind::kDrift;
  config.client.offload_event = "front_complete";
  config.client.partition_cut = SIZE_MAX;
  config.channel.a_to_b.bandwidth_bps = 2e3;
  config.channel.b_to_a.bandwidth_bps = 2e3;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 2e3);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.timeline.local_fallback);
  EXPECT_FALSE(result.offloaded);
  RunResult local = run_scenario(tiny_model(), Scenario::kClientOnly);
  EXPECT_EQ(result.result_text, local.result_text);
}

}  // namespace
}  // namespace offload::core
