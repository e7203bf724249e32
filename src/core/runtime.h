// OffloadingRuntime: wires one client, one edge server, and a shaped
// network link inside a deterministic simulation, runs an app through one
// offloaded (or local) inference, and reports the end-to-end latency plus
// the Fig. 7 breakdown. This is the top-level entry point of the library.
#pragma once

#include <memory>
#include <optional>

#include "src/core/breakdown.h"
#include "src/edge/client_device.h"
#include "src/edge/edge_server.h"
#include "src/fault/injector.h"
#include "src/fleet/fleet.h"
#include "src/net/channel.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/tier/topology.h"

namespace offload::core {

struct RuntimeConfig {
  /// Both directions default to the paper's 30 Mbps netem-shaped Ethernet.
  net::ChannelConfig channel = default_channel();
  edge::ClientConfig client;
  edge::EdgeServerConfig server;
  /// When the user clicks the inference button, relative to app start.
  /// Before the model upload finishes → the paper's "before ACK" arm;
  /// comfortably after → "after ACK".
  sim::SimTime click_at = sim::SimTime::seconds(0.1);
  /// Deterministic fault plan, applied to the *primary* channel and server
  /// (spares, when present, stay healthy — they are the escape hatch). No
  /// plan (the default) = a fault-free run.
  std::optional<fault::FaultPlanConfig> faults;
  /// Edge-fleet shape. The default (one server, "hash" balancing, dedup
  /// off) reproduces the single-server runtime bit-for-bit.
  struct FleetOptions {
    std::size_t size = 1;
    /// Standby servers appended after the balanced set — never
    /// balancer-routed, reached only by candidate-list failover. One spare
    /// on a fleet of one reproduces the historical secondary-server
    /// wiring ("server-b") bit-for-bit.
    std::size_t spares = 0;
    fleet::BalancerConfig balancer;
    /// Content-addressed model pre-send: offer digests first, upload only
    /// the files the server's model store is missing.
    bool dedup = false;
  };
  FleetOptions fleet;
  /// Edge→cloud tier above the fleet (cloud overflow escalation,
  /// drain-based migration, optional work stealing). Unset by default: the
  /// degenerate configuration constructs no topology, no cloud, no extra
  /// channels — the paper reproduction stays bit-for-bit identical. The
  /// runtime fills in `obs` and `on_channel` (the fault plan's tier links).
  std::optional<tier::TierConfig> tier;
  /// Observability sink shared by every actor (client, servers, channels,
  /// schedulers). Null = the runtime owns one internally; tracing is
  /// always on (a handful of spans per inference), and the breakdown is
  /// derived from the span tree, so the two cannot drift.
  obs::Obs* obs = nullptr;

  static net::ChannelConfig default_channel() {
    net::ChannelConfig ch;
    ch.a_to_b.bandwidth_bps = 30e6;
    ch.a_to_b.latency = sim::SimTime::millis(1);
    ch.b_to_a.bandwidth_bps = 30e6;
    ch.b_to_a.latency = sim::SimTime::millis(1);
    return ch;
  }
};

struct RunResult {
  edge::ClientTimeline timeline;
  std::optional<edge::ServerExecutionRecord> server_record;
  InferenceBreakdown breakdown;
  std::string result_text;
  bool offloaded = false;
  /// Click → result displayed, in seconds (the Fig. 6/8 metric).
  double inference_seconds = 0;
  /// App start → model ACK (pre-sending cost), -1 if no ACK happened.
  double model_upload_seconds = -1;
  /// Trace id of the (last) inference; look its spans up in obs().trace.
  obs::TraceId trace_id = 0;
};

class OffloadingRuntime {
 public:
  OffloadingRuntime(RuntimeConfig config, edge::AppBundle app);
  ~OffloadingRuntime();

  /// Drive the scenario to completion and assemble the result. Runs the
  /// simulation until quiescent; throws std::runtime_error if the app
  /// never finishes (protocol bug).
  RunResult run();

  sim::Simulation& simulation() { return sim_; }
  edge::ClientDevice& client() { return *client_; }
  /// Fleet server 0 (the only server in the degenerate configuration).
  edge::EdgeServer& server() { return fleet_->server(0); }
  /// The fleet every server lives in (size 1 unless configured larger).
  fleet::EdgeFleet& fleet() { return *fleet_; }
  /// The client's channels to the fleet (index k ↔ server k). Benches use
  /// channel->link_a_to_b().set_bandwidth_bps(...) to model netem-style
  /// mid-run bandwidth shifts for the dynamic-partitioning experiments.
  const fleet::EdgeFleet::ClientLink& client_link() const { return link_; }
  /// The active fault plan (null for fault-free runs).
  fault::FaultPlan* fault_plan() {
    return injector_ ? &injector_->plan() : nullptr;
  }
  /// The edge→cloud tier, or null when RuntimeConfig::tier is unset.
  tier::Topology* topology() { return topology_.get(); }
  /// The observability sink all actors share (the caller's, or the
  /// runtime-owned one). Valid for the runtime's lifetime.
  obs::Obs& obs() { return *obs_; }
  const obs::Obs& obs() const { return *obs_; }

 private:
  RuntimeConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<obs::Obs> owned_obs_;
  obs::Obs* obs_ = nullptr;
  std::unique_ptr<fleet::EdgeFleet> fleet_;
  fleet::EdgeFleet::ClientLink link_;
  std::unique_ptr<edge::ClientDevice> client_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<tier::Topology> topology_;
};

/// The Fig. 6 "Server" baseline: the app runs entirely on the server's
/// browser; returns the server-side inference seconds (no migration).
double server_only_inference_seconds(const nn::Network& net,
                                     const nn::DeviceProfile& profile);

}  // namespace offload::core
