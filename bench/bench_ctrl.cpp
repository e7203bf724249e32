// Adaptive partition-point control versus the static Neurosurgeon choice
// (the Fig. 8 sweep, made online). Each trial runs the partial-inference
// TinyCNN app on a deliberately weak client (the paper's no-SIMD ARM
// class) through a sequence of clicks while the environment moves under
// it:
//
//   stationary      — healthy 30 Mbps uplink, idle server, start to end.
//   bandwidth-shift — the uplink collapses for the back half of the run
//                     (30 Mbps → 100 kbps), a netem-style schedule applied
//                     to the client's channel between clicks.
//   load-wave       — a sim::workload flash crowd floods the edge
//                     scheduler with background jobs for the middle third
//                     of the run, so offloaded requests queue behind it.
//
// The static policy keeps the offline first-pool cut everywhere. The
// drift policy multiplies the offline cost model by learned per-arm EWMA
// corrections; the bandit treats the labeled cut points as UCB arms.
// Every policy, schedule, and workload draw is seeded: two invocations of
// this binary produce byte-identical BENCH_ctrl.json, and the result is
// independent of OFFLOAD_THREADS — the CI determinism gate diffs the file
// across runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/json_writer.h"
#include "src/core/offload.h"
#include "src/ctrl/controller.h"
#include "src/obs/obs.h"
#include "src/sim/workload.h"
#include "src/util/stats.h"

namespace {

using namespace offload;

constexpr int kClicks = 12;
constexpr double kThinkSeconds = 2.0;
constexpr double kHealthyBps = 30e6;
constexpr double kCollapsedBps = 1e5;

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

// The paper's weak ARM client story, scaled onto the tiny test net: with
// the stock embedded profile TinyCNN runs faster locally than any
// offload, which would make every policy trivially choose local. A 20x
// slower client restores the paper's regime — offloading wins ~3-4x on a
// healthy link, and full-local is the right answer only when the link or
// the server degrades.
nn::DeviceProfile weak_client() {
  nn::DeviceProfile profile = nn::DeviceProfile::embedded_client();
  for (double& gflops : profile.gflops) gflops /= 20.0;
  return profile;
}

struct Scenario {
  std::string name;
  /// Applied between clicks: reshape the uplink for the next click.
  double uplink_bps_for_click(int click) const {
    if (name == "bandwidth_shift") {
      return click >= 6 ? kCollapsedBps : kHealthyBps;
    }
    return kHealthyBps;
  }
  bool load_wave() const { return name == "load_wave"; }
};

struct PolicyResult {
  std::vector<double> latencies_s;
  std::uint64_t recuts = 0;
  std::uint64_t local_decisions = 0;
  double mean_s = 0;
  double p95_s = 0;
};

PolicyResult run_policy(ctrl::PolicyKind policy, const Scenario& scenario,
                        std::uint64_t trial_seed) {
  edge::AppBundle bundle = core::make_benchmark_app(tiny_model(), true);
  core::RuntimeConfig config;
  config.client.profile = weak_client();
  config.client.partition_cut = core::first_pool_cut(*bundle.network);
  config.client.offload_event = "front_complete";
  config.client.supervisor.enabled = true;
  config.client.controller.policy = policy;
  config.client.controller.seed = trial_seed;
  config.click_at = core::after_ack_click_time(
      *bundle.network, false, config.client.partition_cut, kHealthyBps);

  obs::Obs obs;
  config.obs = &obs;
  core::OffloadingRuntime runtime(config, std::move(bundle));

  // The load wave: an open-loop flash crowd of background inference jobs
  // submitted to the primary server's scheduler for the middle third of
  // the run. Open loop = the crowd never reacts to the client, so the
  // generator's draws are identical whichever policy runs against it.
  std::unique_ptr<sim::workload::Generator> crowd;
  if (scenario.load_wave()) {
    sim::workload::Config wl;
    wl.clients = 200;
    wl.seed = 77 + trial_seed;
    wl.arrivals.session_rate_per_s = 0.5;
    sim::workload::FlashCrowd surge;
    surge.at_s = config.click_at.to_seconds() + 3 * kThinkSeconds;
    surge.duration_s = 5 * kThinkSeconds;
    surge.multiplier = 120.0;
    wl.arrivals.flash_crowds.push_back(surge);
    wl.session.mean_requests = 2.0;
    wl.session.mean_think_s = 0.5;
    serve::Scheduler& sched = runtime.server().scheduler();
    crowd = std::make_unique<sim::workload::Generator>(
        runtime.simulation(), wl, [&sched](const sim::workload::Request&) {
          sched.submit_opaque(0.02, [](const serve::RequestTiming&) {});
        });
    crowd->start(config.click_at +
                 sim::SimTime::seconds((kClicks + 2) * kThinkSeconds));
  }

  // Advance simulated time in bounded slices instead of running to
  // quiescence: the open-loop crowd schedules itself far into the future,
  // and a full run() would fast-forward past the whole wave between two
  // clicks. Slicing keeps the clicks on the same clock as the crowd.
  const auto advance_through_click = [&runtime](sim::SimTime click_time) {
    runtime.simulation().run_until(click_time);
    sim::SimTime horizon = click_time;
    while (!runtime.client().finished()) {
      horizon = horizon + sim::SimTime::millis(500);
      runtime.simulation().run_until(horizon);
    }
  };

  PolicyResult out;
  util::Samples latency;
  runtime.client().start();
  for (int click = 0; click < kClicks; ++click) {
    runtime.client_link().channels[0]->link_a_to_b().set_bandwidth_bps(
        scenario.uplink_bps_for_click(click));
    sim::SimTime at = click == 0
                          ? config.click_at
                          : runtime.simulation().now() +
                                sim::SimTime::seconds(kThinkSeconds);
    runtime.client().click_at(at);
    advance_through_click(at);
    double s = runtime.client().timeline().inference_seconds();
    out.latencies_s.push_back(s);
    latency.add(s);
  }
  out.recuts = obs.metrics.counter("ctrl.recuts") +
               obs.metrics.counter("ctrl.recuts_local");
  out.local_decisions = obs.metrics.counter("ctrl.local_decisions");
  out.mean_s = latency.mean();
  out.p95_s = latency.percentile(95.0);
  return out;
}

std::string fmt3(double v) { return util::format_fixed(v, 3); }

}  // namespace

int main() {
  bench::print_banner(
      "Online partition control — static vs drift vs bandit",
      "per-click cut selection from live telemetry (measured uplink "
      "bandwidth, server queue depth and batch wait, fleet outstanding); "
      "the static row is the offline Neurosurgeon cut held for the whole "
      "run");

  const Scenario scenarios[] = {
      {"stationary"}, {"bandwidth_shift"}, {"load_wave"}};
  const ctrl::PolicyKind policies[] = {ctrl::PolicyKind::kStatic,
                                       ctrl::PolicyKind::kDrift,
                                       ctrl::PolicyKind::kBandit};

  std::vector<bench::JsonObject> json;
  util::TextTable table;
  table.header({"scenario", "policy", "mean s", "p95 s", "vs static",
                "re-cuts", "local decisions"});
  for (const Scenario& scenario : scenarios) {
    double static_mean = 0;
    for (ctrl::PolicyKind policy : policies) {
      PolicyResult r = run_policy(policy, scenario, /*trial_seed=*/1);
      if (policy == ctrl::PolicyKind::kStatic) static_mean = r.mean_s;
      const double speedup = static_mean > 0 ? static_mean / r.mean_s : 1.0;
      table.row({scenario.name, ctrl::policy_name(policy), fmt3(r.mean_s),
                 fmt3(r.p95_s),
                 policy == ctrl::PolicyKind::kStatic
                     ? "1.000x"
                     : fmt3(speedup) + "x",
                 std::to_string(r.recuts),
                 std::to_string(r.local_decisions)});
      bench::JsonObject row;
      row.set("experiment", "ctrl_sweep")
          .set("scenario", scenario.name)
          .set("policy", ctrl::policy_name(policy))
          .set("clicks", kClicks)
          .set("mean_s", r.mean_s)
          .set("p95_s", r.p95_s)
          .set("speedup_vs_static", speedup)
          .set("recuts", static_cast<double>(r.recuts))
          .set("local_decisions", static_cast<double>(r.local_decisions));
      for (std::size_t i = 0; i < r.latencies_s.size(); ++i) {
        row.set("click_" + std::to_string(i) + "_s", r.latencies_s[i]);
      }
      json.push_back(row);
    }
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nNote: on the stationary run all three rows must tie to within "
      "noise — the adaptive policies pay nothing for their telemetry when "
      "the offline model is already right. The wins come from the shifted "
      "scenarios: re-cutting to full-local (or a cheaper split) instead "
      "of pushing snapshots through a collapsed uplink or a flooded "
      "queue.\n");

  return bench::write_json_array("BENCH_ctrl.json", json) ? 0 : 1;
}
