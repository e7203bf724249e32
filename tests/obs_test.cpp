// Golden-trace regression for the deterministic tracing layer (src/obs).
//
// One fixed-seed faulted + supervised end-to-end run is traced and its
// JSONL export (plus the metrics dump) compared byte-for-byte against
// checked-in goldens. The same run is repeated at OFFLOAD_THREADS=1 and 4
// and must produce identical bytes: worker threads only parallelize inside
// NN kernels and never touch the tracer.
//
// Regenerate the goldens after an intentional trace-schema change with
//   OFFLOAD_UPDATE_GOLDEN=1 ctest -R Obs
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/offload.h"
#include "src/core/trace_breakdown.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

#ifndef OBS_GOLDEN_DIR
#error "OBS_GOLDEN_DIR must point at the golden-trace directory"
#endif

namespace offload::core {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::set_default_pool_threads(0); }
};

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

/// The pinned scenario: supervised client, secondary server, 8% uniform
/// message faults (seed 23) and one primary crash shortly after the click.
/// Exercises retries, backoff, failover, crash recovery, and both
/// transmit directions — nearly every span kind in one trace stream.
void run_faulted_scenario(obs::Obs& obs) {
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
  config.obs = &obs;
  OffloadingRuntime runtime(config, std::move(bundle));
  runtime.run();
}

/// The pinned fleet scenario: two servers behind a p2c balancer with
/// content-addressed pre-send on, three clicks from one supervised client.
/// Routing markers, per-server (fleet/server<k>) spans and gauges, and the
/// dedup counters all land in the golden.
void run_fleet_scenario(obs::Obs& obs) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.fleet.size = 2;
  config.fleet.balancer.policy = "p2c";
  config.fleet.balancer.seed = 5;
  config.fleet.dedup = true;
  config.client.supervisor.enabled = true;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  config.obs = &obs;
  OffloadingRuntime runtime(config, std::move(bundle));
  runtime.client().click_at(config.click_at + sim::SimTime::seconds(4));
  runtime.client().click_at(config.click_at + sim::SimTime::seconds(8));
  runtime.run();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool update_golden() {
  const char* env = std::getenv("OFFLOAD_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Compare `content` against the golden file, or rewrite the golden when
/// OFFLOAD_UPDATE_GOLDEN is set. Byte-for-byte: any drift is a diff.
void check_golden(const std::string& name, const std::string& content) {
  const std::string path = std::string(OBS_GOLDEN_DIR) + "/" + name;
  if (update_golden()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << content;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "golden " << path
      << " missing/empty; regenerate with OFFLOAD_UPDATE_GOLDEN=1";
  if (content != expected) {
    // Locate the first differing line for a readable failure.
    std::istringstream got(content), want(expected);
    std::string gline, wline;
    int line = 1;
    while (std::getline(got, gline) && std::getline(want, wline)) {
      ASSERT_EQ(gline, wline) << "first trace divergence at " << name << ":"
                              << line;
      ++line;
    }
    FAIL() << name << " differs from golden in length (got "
           << content.size() << " bytes, want " << expected.size() << ")";
  }
}

TEST(ObsGolden, FaultedTraceMatchesGoldenByteForByte) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  obs::Obs obs;
  run_faulted_scenario(obs);
  ASSERT_GT(obs.trace.size(), 20u);  // the run exercises the span taxonomy
  check_golden("faulted_trace.jsonl", obs::to_jsonl(obs.trace));
  check_golden("faulted_metrics.txt", obs.metrics.dump_text());
}

TEST(ObsGolden, FleetTraceMatchesGoldenByteForByte) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  obs::Obs obs;
  run_fleet_scenario(obs);
  const std::string trace = obs::to_jsonl(obs.trace);
  const std::string metrics = obs.metrics.dump_text();
  // The balanced run actually exercised the fleet machinery.
  EXPECT_NE(trace.find("fleet/balancer"), std::string::npos);
  EXPECT_NE(trace.find("fleet/server0"), std::string::npos);
  EXPECT_NE(metrics.find("fleet.routed."), std::string::npos);
  check_golden("fleet_trace.jsonl", trace);
  check_golden("fleet_metrics.txt", metrics);

  // Same run at OFFLOAD_THREADS=4: byte-identical — routing and dedup sit
  // entirely above the worker pool.
  util::set_default_pool_threads(4);
  obs::Obs threaded;
  run_fleet_scenario(threaded);
  EXPECT_EQ(obs::to_jsonl(threaded.trace), trace);
  EXPECT_EQ(threaded.metrics.dump_text(), metrics);
}

TEST(ObsGolden, TraceIdenticalAcrossThreadCountsAndRuns) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  obs::Obs first;
  run_faulted_scenario(first);
  const std::string trace1 = obs::to_jsonl(first.trace);
  const std::string metrics1 = first.metrics.dump_text();
  const std::string chrome1 = obs::to_chrome_trace(first.trace);

  // Same seed, same thread count: byte-identical.
  obs::Obs rerun;
  run_faulted_scenario(rerun);
  EXPECT_EQ(obs::to_jsonl(rerun.trace), trace1);
  EXPECT_EQ(rerun.metrics.dump_text(), metrics1);

  // Same seed, OFFLOAD_THREADS=4: still byte-identical — parallelism
  // lives inside the NN kernels, below every instrumentation point.
  util::set_default_pool_threads(4);
  obs::Obs threaded;
  run_faulted_scenario(threaded);
  EXPECT_EQ(obs::to_jsonl(threaded.trace), trace1);
  EXPECT_EQ(threaded.metrics.dump_text(), metrics1);
  EXPECT_EQ(obs::to_chrome_trace(threaded.trace), chrome1);
}

TEST(ObsGolden, ChromeTraceIsWellFormed) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  obs::Obs obs;
  run_faulted_scenario(obs);
  const std::string chrome = obs::to_chrome_trace(obs.trace);
  // Structural smoke checks (full JSON parsing is Perfetto's job): the
  // envelope, per-resource thread metadata, and complete events exist.
  EXPECT_EQ(chrome.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_EQ(chrome.back(), '\n');
  EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(chrome.find("transmit_up"), std::string::npos);
  EXPECT_NE(chrome.find("lane_busy"), std::string::npos);
}

TEST(ObsGolden, DisabledPathLeavesMessagesUntouched) {
  // Without an obs sink the degenerate run stays exactly the old
  // pipeline: no spans anywhere, identical timings (the ±2% overhead
  // acceptance is enforced on bench_fig6_exec_time; this pins behavior).
  RunResult traced;
  {
    obs::Obs obs;
    edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
    RuntimeConfig config;
    config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
    config.obs = &obs;
    OffloadingRuntime runtime(config, std::move(bundle));
    traced = runtime.run();
    EXPECT_GT(obs.trace.size(), 0u);
  }
  RunResult plain = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(traced.inference_seconds, plain.inference_seconds);
  EXPECT_EQ(traced.timeline.finished->ns(), plain.timeline.finished->ns());
  EXPECT_EQ(traced.result_text, plain.result_text);
  // And the breakdowns agree bit for bit: the external-sink run and the
  // runtime-owned-sink run derive from identical span trees.
  EXPECT_EQ(traced.breakdown.total(), plain.breakdown.total());
  EXPECT_EQ(traced.breakdown.transmission_up, plain.breakdown.transmission_up);
  EXPECT_EQ(traced.breakdown.transmission_down,
            plain.breakdown.transmission_down);
}

}  // namespace
}  // namespace offload::core
