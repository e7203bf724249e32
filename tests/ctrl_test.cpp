// Tests for the online partition-point controller (src/ctrl): policy
// names, immunity to the environment, bit-determinism of decisions,
// drift-correction learning, failure-escalation re-cuts, and the end-to-end
// integration with the client supervisor (re-cut on stall, adaptation to
// bandwidth collapse, byte-identical repeated runs, and the static-policy
// equivalence with the paper reproduction).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/core/offload.h"
#include "src/ctrl/controller.h"
#include "src/obs/export.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

std::shared_ptr<const nn::Network> tiny_net() {
  return std::shared_ptr<const nn::Network>(nn::build_tiny_cnn_default(17));
}

// A client so slow that offloading TinyCNN clearly wins at 30 Mbps — the
// stock embedded profile runs the tiny test net faster locally, which
// would make every remote-vs-local assertion degenerate.
nn::DeviceProfile crippled_client() {
  nn::DeviceProfile profile = nn::DeviceProfile::embedded_client();
  for (double& gflops : profile.gflops) gflops /= 100.0;
  return profile;
}

ctrl::CutController make_controller(ctrl::ControllerConfig config,
                                    std::shared_ptr<const nn::Network> net,
                                    const nn::DeviceProfile& client_profile =
                                        nn::DeviceProfile::embedded_client()) {
  const nn::Network* nets[] = {net.get()};
  auto client = nn::LayerCostModel::profile_device(client_profile, nets);
  auto server = nn::LayerCostModel::profile_device(
      nn::DeviceProfile::edge_server(), nets);
  return ctrl::CutController(config, std::move(net), std::move(client),
                             std::move(server));
}

// Partial-inference app under supervision with an adaptive policy — the
// controller's production configuration.
core::RuntimeConfig adaptive_config(const edge::AppBundle& bundle,
                                    ctrl::PolicyKind policy) {
  core::RuntimeConfig config;
  config.client.partition_cut = core::first_pool_cut(*bundle.network);
  config.client.offload_event = "front_complete";
  config.client.supervisor.enabled = true;
  config.client.controller.policy = policy;
  config.click_at = core::after_ack_click_time(
      *bundle.network, false, config.client.partition_cut, 30e6);
  return config;
}

// ---------------------------------------------------------------------------
// Policy + config

TEST(CtrlConfig, PolicyNamesAndActivity) {
  EXPECT_STREQ(ctrl::policy_name(ctrl::PolicyKind::kStatic), "static");
  EXPECT_STREQ(ctrl::policy_name(ctrl::PolicyKind::kDrift), "drift");
  EXPECT_STREQ(ctrl::policy_name(ctrl::PolicyKind::kBandit), "bandit");
  ctrl::ControllerConfig config;
  EXPECT_FALSE(config.active());
  config.policy = ctrl::PolicyKind::kBandit;
  EXPECT_TRUE(config.active());
}

TEST(CtrlConfig, EnvironmentCannotTurnOnControllerOrTier) {
  // Policy, seed and tier are set only through the config structs:
  // OFFLOAD_CTRL / OFFLOAD_TIER in the environment must change nothing.
  auto run_once = [](obs::Obs* obs, bool* ctrl_off, bool* tier_off) {
    edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
    core::RuntimeConfig config;
    config.client.partition_cut = core::first_pool_cut(*bundle.network);
    config.client.offload_event = "front_complete";
    config.click_at = core::after_ack_click_time(
        *bundle.network, false, config.client.partition_cut, 30e6);
    config.obs = obs;
    core::OffloadingRuntime runtime(config, std::move(bundle));
    runtime.run();
    *ctrl_off = runtime.client().cut_controller() == nullptr;
    *tier_off = runtime.topology() == nullptr;
  };
  obs::Obs clean;
  bool ctrl_off = false;
  bool tier_off = false;
  run_once(&clean, &ctrl_off, &tier_off);
  ASSERT_TRUE(ctrl_off);
  ASSERT_TRUE(tier_off);

  ::setenv("OFFLOAD_CTRL", "bandit", 1);
  ::setenv("OFFLOAD_TIER", "1", 1);
  obs::Obs with_env;
  run_once(&with_env, &ctrl_off, &tier_off);
  ::unsetenv("OFFLOAD_CTRL");
  ::unsetenv("OFFLOAD_TIER");
  EXPECT_TRUE(ctrl_off);
  EXPECT_TRUE(tier_off);
  EXPECT_EQ(obs::to_jsonl(with_env.trace), obs::to_jsonl(clean.trace));
}

// ---------------------------------------------------------------------------
// CutController unit behavior

TEST(CutController, ArmsMirrorLabeledCutPointsPlusLocal) {
  auto net = tiny_net();
  ctrl::ControllerConfig config;
  config.policy = ctrl::PolicyKind::kDrift;
  auto controller = make_controller(config, net);

  std::vector<core::CutLabel> labels = core::labeled_cut_points(*net);
  const auto& arms = controller.arms();
  ASSERT_EQ(arms.size(), labels.size() + 1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(arms[i], labels[i].cut);
  }
  EXPECT_EQ(arms.back(), net->size() - 1);  // the full-local arm
}

TEST(CutController, DecisionsAreBitDeterministic) {
  auto net = tiny_net();
  for (auto policy :
       {ctrl::PolicyKind::kDrift, ctrl::PolicyKind::kBandit}) {
    ctrl::ControllerConfig config;
    config.policy = policy;
    config.seed = 7;
    auto a = make_controller(config, net);
    auto b = make_controller(config, net);
    ctrl::LinkSignals signals;
    signals.bandwidth_bps = 30e6;
    for (int i = 0; i < 50; ++i) {
      signals.queue_depth = static_cast<std::size_t>(i % 5);
      ctrl::Decision da = a.decide(0, signals);
      ctrl::Decision db = b.decide(0, signals);
      ASSERT_EQ(da.cut, db.cut) << "policy " << ctrl::policy_name(policy)
                                << " diverged at step " << i;
      ASSERT_EQ(da.arm, db.arm);
      ASSERT_EQ(da.local, db.local);
      ASSERT_EQ(da.predicted_s, db.predicted_s);  // bit-exact
      // Identical synthetic feedback on both sides.
      ctrl::Outcome o;
      o.server = 0;
      o.arm = da.arm;
      o.local = da.local;
      o.ok = (i % 7) != 3;
      o.observed_s = da.predicted_s * (1.0 + 0.1 * (i % 4));
      o.predicted_s = da.predicted_s;
      a.record(o);
      b.record(o);
    }
    EXPECT_EQ(a.decisions(), 50u);
    EXPECT_EQ(a.outcomes(), 50u);
  }
}

TEST(CutController, DriftCorrectionLearnsFromObservations) {
  auto net = tiny_net();
  ctrl::ControllerConfig config;
  config.policy = ctrl::PolicyKind::kDrift;
  auto controller = make_controller(config, net, crippled_client());
  ctrl::LinkSignals signals;
  signals.bandwidth_bps = 30e6;

  ctrl::Decision first = controller.decide(0, signals);
  ASSERT_FALSE(first.local);
  // The chosen cut consistently runs 6x slower than predicted (drifted
  // server): its correction factor must rise and the choice must move.
  std::size_t moved_at = 0;
  for (int i = 1; i <= 20; ++i) {
    ctrl::Decision d = controller.decide(0, signals);
    ctrl::Outcome o;
    o.server = 0;
    o.arm = d.arm;
    o.local = d.local;
    o.ok = true;
    o.observed_s = d.predicted_s * (d.arm == first.arm ? 6.0 : 1.0);
    o.predicted_s = d.predicted_s;
    controller.record(o);
    if (moved_at == 0 && d.arm != first.arm) moved_at = i;
  }
  EXPECT_GT(controller.correction(0, first.arm), 1.5);
  EXPECT_NE(moved_at, 0u) << "decision never moved off the drifted arm";
}

TEST(CutController, FailureEscalationWalksTowardLocal) {
  auto net = tiny_net();
  ctrl::ControllerConfig config;
  config.policy = ctrl::PolicyKind::kDrift;
  auto controller = make_controller(config, net, crippled_client());
  ctrl::LinkSignals slow;
  slow.bandwidth_bps = 1e6;  // constrained uplink

  ctrl::Decision fresh = controller.decide(0, slow);
  ctrl::Decision desperate = controller.redecide(0, slow, 6);
  // 2^6 = 64x on every network term prices out any remote cut.
  EXPECT_TRUE(desperate.local);
  EXPECT_EQ(desperate.cut, net->size() - 1);
  // And a fresh decision is not already local (the escalation did it).
  EXPECT_FALSE(fresh.local);
}

TEST(CutController, BanditSeedIsMeaningful) {
  auto net = tiny_net();
  ctrl::ControllerConfig config;
  config.policy = ctrl::PolicyKind::kBandit;
  config.explore_eps = 0.3;  // high exploration to expose the stream
  config.seed = 1;
  auto a = make_controller(config, net);
  config.seed = 2;
  auto b = make_controller(config, net);
  ctrl::LinkSignals signals;
  signals.bandwidth_bps = 30e6;
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = a.decide(0, signals).arm != b.decide(0, signals).arm;
  }
  EXPECT_TRUE(diverged) << "seeds 1 and 2 explored identically";
}

TEST(CutController, BanditMovesOffAFailingArm) {
  auto net = tiny_net();
  ctrl::ControllerConfig config;
  config.policy = ctrl::PolicyKind::kBandit;
  config.explore_eps = 0;  // pure UCB for a deterministic assertion
  auto controller = make_controller(config, net);
  ctrl::LinkSignals signals;
  signals.bandwidth_bps = 30e6;

  ctrl::Decision first = controller.decide(0, signals);
  int on_first = 0;
  for (int i = 0; i < 30; ++i) {
    ctrl::Decision d = controller.decide(0, signals);
    if (d.arm == first.arm) ++on_first;
    ctrl::Outcome o;
    o.server = 0;
    o.arm = d.arm;
    o.local = d.local;
    o.ok = d.arm != first.arm;  // the initially-best arm keeps failing
    o.observed_s = d.predicted_s;
    o.predicted_s = d.predicted_s;
    controller.record(o);
  }
  // Failures are penalized; the bandit must abandon the failing arm for
  // most of the run.
  EXPECT_LT(on_first, 10);
}

// ---------------------------------------------------------------------------
// End-to-end integration

TEST(CtrlIntegration, StaticPolicyMatchesBaselineBitForBit) {
  edge::AppBundle baseline_bundle = make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig baseline =
      adaptive_config(baseline_bundle, ctrl::PolicyKind::kStatic);
  core::OffloadingRuntime baseline_rt(baseline, std::move(baseline_bundle));
  core::RunResult a = baseline_rt.run();
  EXPECT_EQ(baseline_rt.client().cut_controller(), nullptr);

  edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig config =
      adaptive_config(bundle, ctrl::PolicyKind::kStatic);
  core::OffloadingRuntime runtime(config, std::move(bundle));
  core::RunResult b = runtime.run();

  EXPECT_EQ(a.inference_seconds, b.inference_seconds);  // bit-exact
  EXPECT_EQ(a.timeline.used_partition_cut, b.timeline.used_partition_cut);
  EXPECT_EQ(a.result_text, b.result_text);
}

TEST(CtrlIntegration, DriftPolicyDecidesEveryInference) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig config =
      adaptive_config(bundle, ctrl::PolicyKind::kDrift);
  core::OffloadingRuntime runtime(config, std::move(bundle));
  core::RunResult result = runtime.run();
  EXPECT_GE(result.inference_seconds, 0.0);
  for (int i = 0; i < 2; ++i) {
    runtime.client().click_at(runtime.simulation().now() +
                              sim::SimTime::seconds(1));
    runtime.simulation().run();
    ASSERT_TRUE(runtime.client().finished());
  }
  const ctrl::CutController* controller = runtime.client().cut_controller();
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->decisions(), 3u);
  EXPECT_EQ(controller->outcomes(), 3u);
  EXPECT_EQ(runtime.obs().metrics.counter("ctrl.decisions"), 3u);
  // Every used cut is one of the controller's arms.
  std::size_t cut = runtime.client().timeline().used_partition_cut;
  bool known = false;
  for (std::size_t arm : controller->arms()) known |= (arm == cut);
  EXPECT_TRUE(known);
}

TEST(CtrlIntegration, AdaptiveRunsAreDeterministic) {
  for (auto policy :
       {ctrl::PolicyKind::kDrift, ctrl::PolicyKind::kBandit}) {
    std::vector<double> latencies[2];
    std::vector<std::size_t> cuts[2];
    for (int run = 0; run < 2; ++run) {
      edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
      core::RuntimeConfig config = adaptive_config(bundle, policy);
      core::OffloadingRuntime runtime(config, std::move(bundle));
      runtime.run();
      for (int i = 0; i < 3; ++i) {
        runtime.client().click_at(runtime.simulation().now() +
                                  sim::SimTime::seconds(1));
        runtime.simulation().run();
      }
      for (const auto& t : runtime.client().history()) {
        latencies[run].push_back(t.inference_seconds());
        cuts[run].push_back(t.used_partition_cut);
      }
      latencies[run].push_back(
          runtime.client().timeline().inference_seconds());
      cuts[run].push_back(
          runtime.client().timeline().used_partition_cut);
    }
    EXPECT_EQ(latencies[0], latencies[1])
        << "policy " << ctrl::policy_name(policy);
    EXPECT_EQ(cuts[0], cuts[1]) << "policy " << ctrl::policy_name(policy);
  }
}

TEST(CtrlIntegration, BandwidthCollapseMovesTheCut) {
  // 30 Mbps at the first click; the uplink then collapses to 300 kbps.
  // The per-attempt bandwidth observations must steer later decisions to
  // a cheaper split (deeper cut or full-local) — the whole point of the
  // controller.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig config =
      adaptive_config(bundle, ctrl::PolicyKind::kDrift);
  core::OffloadingRuntime runtime(config, std::move(bundle));
  core::RunResult first = runtime.run();
  std::size_t first_cut = first.timeline.used_partition_cut;

  runtime.client_link().channels[0]->link_a_to_b().set_bandwidth_bps(3e5);
  for (int i = 0; i < 4; ++i) {
    runtime.client().click_at(runtime.simulation().now() +
                              sim::SimTime::seconds(5));
    runtime.simulation().run();
    ASSERT_TRUE(runtime.client().finished());
  }
  const edge::ClientTimeline& last = runtime.client().timeline();
  EXPECT_TRUE(last.used_partition_cut != first_cut || last.local_fallback)
      << "controller never adapted to the collapsed uplink";
}

TEST(CtrlIntegration, StallTriggersRecutOrLocalFallback) {
  // The server stalls right across the upload: the supervisor's deadline
  // fires, and instead of blindly retrying the same bytes the controller
  // re-decides (deeper cut, or local when everything is priced out).
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig config =
      adaptive_config(bundle, ctrl::PolicyKind::kDrift);
  config.client.supervisor.upload_deadline = sim::SimTime::millis(500);
  sim::SimTime click = config.click_at;
  core::OffloadingRuntime runtime(config, std::move(bundle));
  runtime.server().schedule_stall(click - sim::SimTime::millis(1),
                                  sim::SimTime::seconds(20));
  core::RunResult result = runtime.run();
  EXPECT_GE(result.inference_seconds, 0.0);
  // The inference must have either re-cut mid-flight or fallen back
  // locally under controller guidance — never hang.
  const auto& m = runtime.obs().metrics;
  EXPECT_GE(m.counter("ctrl.recuts") + m.counter("ctrl.recuts_local") +
                (result.timeline.local_fallback ? 1u : 0u),
            1u);
  const ctrl::CutController* controller = runtime.client().cut_controller();
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->outcomes(), controller->decisions());
}

}  // namespace
}  // namespace offload::core
