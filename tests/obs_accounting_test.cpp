// Accounting reconciliation between the span tree and InferenceBreakdown.
//
// The runtime derives every breakdown from the trace
// (core::breakdown_from_trace), so the two cannot drift by construction.
// This property test closes the remaining gap: across a grid of
// configurations it recomputes each breakdown category from raw leaf-span
// sums — bypassing the derivation's own bookkeeping — and demands exact
// (==, not near) agreement, then checks the span trees are well formed:
// every span closed, no orphan parents, phase children inside their
// parents, and no two units of work overlapping on one serial resource.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/offload.h"
#include "src/core/trace_breakdown.h"
#include "src/nn/kernels.h"
#include "src/obs/obs.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

struct TracedRun {
  RunResult result;
  obs::Obs obs;
  std::string label;
};

/// Mirror of run_scenario's config construction, with an external obs sink.
void run_traced(Scenario scenario, const ScenarioOptions& options,
                TracedRun& out) {
  const bool partial = scenario == Scenario::kOffloadPartial;
  edge::AppBundle bundle =
      make_benchmark_app(tiny_model(), partial, options.image_seed);

  RuntimeConfig config;
  config.channel.a_to_b.bandwidth_bps = options.bandwidth_bps;
  config.channel.a_to_b.latency = options.latency;
  config.channel.b_to_a.bandwidth_bps = options.bandwidth_bps;
  config.channel.b_to_a.latency = options.latency;
  switch (scenario) {
    case Scenario::kClientOnly:
      config.client.offload = false;
      config.client.presend_model = false;
      config.click_at = sim::SimTime::seconds(0.05);
      break;
    case Scenario::kOffloadBeforeAck:
      config.client.offload = true;
      config.client.presend_model = true;
      config.client.offload_event = "click";
      config.click_at = sim::SimTime::seconds(0.05);
      break;
    case Scenario::kOffloadAfterAck:
      config.client.offload = true;
      config.client.presend_model = true;
      config.client.offload_event = "click";
      config.click_at = after_ack_click_time(*bundle.network, false, 0,
                                             options.bandwidth_bps);
      break;
    case Scenario::kOffloadPartial: {
      config.client.offload = true;
      config.client.presend_model = true;
      config.client.presend_rear_only = true;
      config.client.offload_event = "front_complete";
      std::size_t cut = first_pool_cut(*bundle.network);
      config.client.partition_cut = cut;
      config.click_at = after_ack_click_time(*bundle.network, true, cut,
                                             options.bandwidth_bps);
      break;
    }
    case Scenario::kServerOnly:
      FAIL() << "kServerOnly never offloads; not a traced scenario";
  }
  config.obs = &out.obs;
  OffloadingRuntime runtime(config, std::move(bundle));
  out.result = runtime.run();
}

double sum_kind(const obs::Tracer& tracer, obs::TraceId trace,
                obs::SpanKind kind) {
  double total = 0.0;
  for (const obs::Span& s : tracer.spans()) {
    if (s.trace == trace && s.kind == kind) total += s.dur_s;
  }
  return total;
}

const obs::Span* find_span(const obs::Tracer& tracer, obs::SpanId id) {
  for (const obs::Span& s : tracer.spans()) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

/// A span that occupies its serial resource exclusively: the resource is
/// doing this one unit of work. Waits (queue, batch, backoff, transmits,
/// crash recovery) may legitimately overlap other activity.
bool is_exclusive_work(const obs::Span& s) {
  switch (s.kind) {
    case obs::SpanKind::kClientExec:
    case obs::SpanKind::kClientCapture:
    case obs::SpanKind::kClientRestore:
    case obs::SpanKind::kServerRestore:
    case obs::SpanKind::kServerExec:
    case obs::SpanKind::kServerCapture:
    case obs::SpanKind::kLaneBusy:
      return s.dur_s > 0.0;  // zero-charged spans were abandoned, not run
    default:
      return false;
  }
}

/// Structural invariants that hold for every trace, faulted or not.
void check_tree_basics(const obs::Tracer& tracer, const std::string& label) {
  SCOPED_TRACE(label);
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_TRUE(s.closed) << "span " << s.id << " (" << s.name
                          << ") never closed";
    EXPECT_LE(s.start.ns(), s.end.ns()) << "span " << s.id << " runs backward";
    EXPECT_GE(s.dur_s, 0.0) << "span " << s.id << " charged negative time";
    if (s.parent != 0) {
      const obs::Span* parent = find_span(tracer, s.parent);
      ASSERT_NE(parent, nullptr)
          << "span " << s.id << " (" << s.name << ") has orphan parent "
          << s.parent;
      EXPECT_EQ(parent->trace, s.trace)
          << "span " << s.id << " crosses traces to its parent";
    }
  }
}

/// Stricter geometry for fault-free runs: children fit inside their
/// parents and one serial resource never runs two units of work at once.
/// (Faulted runs relax containment: a late result's transmit-down span
/// closes after the root when the client already fell back locally.)
void check_tree_geometry(const obs::Tracer& tracer, const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<obs::Span>& spans = tracer.spans();
  for (const obs::Span& s : spans) {
    if (s.parent == 0 || !obs::is_phase_kind(s.kind)) continue;
    const obs::Span* parent = find_span(tracer, s.parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_GE(s.start.ns(), parent->start.ns())
        << "span " << s.id << " (" << s.name << ") starts before parent "
        << parent->name;
    EXPECT_LE(s.end.ns(), parent->end.ns())
        << "span " << s.id << " (" << s.name << ") ends after parent "
        << parent->name;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!is_exclusive_work(spans[i])) continue;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (!is_exclusive_work(spans[j])) continue;
      if (spans[i].resource != spans[j].resource) continue;
      // Nesting is fine (lane-busy envelopes its restore/exec/capture);
      // partial overlap is not.
      const bool i_holds_j = spans[i].start.ns() <= spans[j].start.ns() &&
                             spans[j].end.ns() <= spans[i].end.ns();
      const bool j_holds_i = spans[j].start.ns() <= spans[i].start.ns() &&
                             spans[i].end.ns() <= spans[j].end.ns();
      const bool disjoint = spans[i].end.ns() <= spans[j].start.ns() ||
                            spans[j].end.ns() <= spans[i].start.ns();
      EXPECT_TRUE(i_holds_j || j_holds_i || disjoint)
          << spans[i].name << " [" << spans[i].start.ns() << ","
          << spans[i].end.ns() << "] and " << spans[j].name << " ["
          << spans[j].start.ns() << "," << spans[j].end.ns()
          << "] partially overlap on " << spans[i].resource;
    }
  }
}

/// The reconciliation core: recompute every breakdown category from raw
/// per-kind leaf sums and compare exactly. Valid for fault-free runs,
/// where each server-side kind occurs exactly once (no superseded
/// attempts), so "sum over kind" and the derivation's "last of kind"
/// coincide.
void check_accounting(const TracedRun& run) {
  SCOPED_TRACE(run.label);
  const obs::Tracer& tracer = run.obs.trace;
  const obs::TraceId trace = run.result.trace_id;
  ASSERT_NE(trace, 0u);
  const InferenceBreakdown& b = run.result.breakdown;

  // The runtime's breakdown and a fresh derivation from the same spans
  // agree bitwise — the trace is a complete record.
  const InferenceBreakdown rederived = breakdown_from_trace(tracer, trace);
  EXPECT_EQ(rederived.total(), b.total());

  EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kClientExec),
            b.dnn_execution_client);
  EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kClientCapture),
            b.snapshot_capture_client);
  EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kRetryBackoff),
            b.retry_backoff);
  EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kCrashRecovery),
            b.crash_recovery);
  if (run.result.offloaded) {
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kServerRestore),
              b.snapshot_restore_server);
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kServerExec),
              b.dnn_execution_server);
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kServerCapture),
              b.snapshot_capture_server);
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kQueueWait),
              b.server_queue_wait);
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kBatchWait),
              b.server_batch_wait);
    EXPECT_EQ(sum_kind(tracer, trace, obs::SpanKind::kClientRestore),
              b.snapshot_restore_client);
  } else {
    EXPECT_EQ(b.transmission_up, 0.0);
    EXPECT_EQ(b.transmission_down, 0.0);
    EXPECT_EQ(b.dnn_execution_server, 0.0);
  }

  // The categories tile the end-to-end interval: the root span's length
  // equals the total, with `other` absorbing the (±1e-9-snapped) residual.
  const obs::Span* root = nullptr;
  int roots = 0;
  for (const obs::Span& s : tracer.spans()) {
    if (s.trace == trace && s.kind == obs::SpanKind::kInference &&
        s.parent == 0) {
      root = &s;
      ++roots;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(roots, 1) << "trace has more than one root";
  EXPECT_NEAR(b.total(), (root->end - root->start).to_seconds(), 1e-9);
  // Not EXPECT_EQ: `other` snaps residuals inside ±1e-9 to zero, so the
  // total may sit up to 1e-9 below the measured end-to-end latency.
  EXPECT_NEAR(b.total(), run.result.inference_seconds, 1e-9);
}

TEST(ObsAccounting, LeafSumsReconcileAcrossConfigGrid) {
  const Scenario scenarios[] = {
      Scenario::kClientOnly,
      Scenario::kOffloadBeforeAck,
      Scenario::kOffloadAfterAck,
      Scenario::kOffloadPartial,
  };
  const double bandwidths[] = {10e6, 30e6, 120e6};
  const std::uint64_t image_seeds[] = {3, 11};
  for (Scenario scenario : scenarios) {
    for (double bw : bandwidths) {
      for (std::uint64_t seed : image_seeds) {
        TracedRun run;
        ScenarioOptions options;
        options.bandwidth_bps = bw;
        options.image_seed = seed;
        run.label = std::string(scenario_name(scenario)) + " bw=" +
                    std::to_string(static_cast<long long>(bw)) + " seed=" +
                    std::to_string(seed);
        run_traced(scenario, options, run);
        check_accounting(run);
        check_tree_basics(run.obs.trace, run.label);
        check_tree_geometry(run.obs.trace, run.label);
      }
    }
  }
}

TEST(ObsAccounting, ReconcilesUnderEveryKernelBackend) {
  // The kernel table changes which code computes the tensors, not how
  // time is accounted: the reconciliation must hold verbatim under both.
  for (nn::KernelBackend k :
       {nn::KernelBackend::kScalar, nn::KernelBackend::kSimd}) {
    nn::ScopedKernelBackend scoped(k);
    TracedRun run;
    ScenarioOptions options;
    options.bandwidth_bps = 30e6;
    run.label = std::string("backend=") + nn::kernel_backend_name(k);
    run_traced(Scenario::kOffloadPartial, options, run);
    check_accounting(run);
    check_tree_basics(run.obs.trace, run.label);
    check_tree_geometry(run.obs.trace, run.label);
  }
}

TEST(ObsAccounting, FleetServerResourcesReconcile) {
  // A balanced 2-server run with dedup pre-send: the breakdown must still
  // reconcile exactly against raw leaf sums, with every server-side span
  // carried by a namespaced fleet/server<k> resource.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.fleet.size = 2;
  config.fleet.balancer.policy = "p2c";
  config.fleet.dedup = true;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  TracedRun run;
  run.label = "fleet p2c dedup";
  config.obs = &run.obs;
  OffloadingRuntime runtime(config, std::move(bundle));
  run.result = runtime.run();

  ASSERT_TRUE(run.result.offloaded);
  check_accounting(run);
  check_tree_basics(run.obs.trace, run.label);
  check_tree_geometry(run.obs.trace, run.label);

  // Server-side work runs on exactly one fleet server, and its spans say
  // which: every exclusive server span's resource is fleet-namespaced.
  std::set<std::string> server_resources;
  for (const obs::Span& s : run.obs.trace.spans()) {
    switch (s.kind) {
      case obs::SpanKind::kServerRestore:
      case obs::SpanKind::kServerExec:
      case obs::SpanKind::kServerCapture:
      case obs::SpanKind::kLaneBusy:
        EXPECT_EQ(s.resource.rfind("fleet/server", 0), 0u)
            << s.name << " ran on non-fleet resource " << s.resource;
        server_resources.insert(s.resource.substr(0, 13));
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(server_resources.size(), 1u)
      << "one inference must execute on exactly one server";
}

TEST(ObsAccounting, FaultedSupervisedTreeIsWellFormed) {
  // Faults add superseded transmits, backoff spans, crash recovery and
  // possibly a failover — the tree must stay closed and orphan-free, and
  // client-side sums still reconcile exactly (they accumulate in emission
  // order just like the timeline's += sites).
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
  obs::Obs obs;
  config.obs = &obs;
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();

  check_tree_basics(obs.trace, "faulted");
  const obs::TraceId trace = result.trace_id;
  EXPECT_EQ(sum_kind(obs.trace, trace, obs::SpanKind::kClientExec),
            result.breakdown.dnn_execution_client);
  EXPECT_EQ(sum_kind(obs.trace, trace, obs::SpanKind::kClientCapture),
            result.breakdown.snapshot_capture_client);
  EXPECT_EQ(sum_kind(obs.trace, trace, obs::SpanKind::kRetryBackoff),
            result.breakdown.retry_backoff);
  EXPECT_EQ(sum_kind(obs.trace, trace, obs::SpanKind::kCrashRecovery),
            result.breakdown.crash_recovery);
  // The faulted scenario actually exercised the retry machinery.
  EXPECT_GT(result.breakdown.retry_backoff, 0.0);
}

}  // namespace
}  // namespace offload::core
