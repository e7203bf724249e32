// The edge→cloud tier topology. Layers one regional cloud server (a
// bigger DeviceProfile behind a fatter, higher-latency WAN uplink) above
// an edge::EdgeFleet, and closes three robustness gaps the flat fleet
// leaves open:
//
//  * Overflow escalation — a job an edge would shed at admission, or
//    cancel at its queue deadline, is forwarded up-tier instead (the
//    snapshot is self-contained; the model rides along as content-
//    addressed digest offers). The result returns through the origin
//    edge's client-facing endpoint, so the client sees only a slower
//    "accepted:" → result and never learns the cloud exists.
//
//  * Transparent session migration — drain() withdraws every still-queued
//    job from a loaded edge. Self-contained snapshots relay to a peer (or
//    the cloud) exactly like escalations; differential jobs, which only
//    the origin's session realm can apply, redirect their client to a
//    named peer with a "redirect:<target>:<app>" control reply.
//
//  * Deterministic work stealing — an idle edge pulls the oldest queued
//    job off the most-backlogged peer on a seeded, byte-reproducible
//    schedule (ticks are armed by admissions and die with the workload,
//    so the simulation still quiesces).
//
// Correlation design: every relayed job gets its own dedicated channel to
// its executor, so a reply on that channel can only belong to that job —
// there is no cross-job reply ambiguity to misattribute, and a message
// arriving after the relay's deadline lands on a dead relay and is
// ignored. Per relay, the client hears exactly one outcome: the result,
// or one typed control failure ("overloaded:"/"expired:"). Results and
// failures are epoch-guarded — if the origin edge crashed since the job
// was taken, the relay stays silent and the client's supervisor recovers,
// never adopting a result the dead server could not have sent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/edge/edge_server.h"
#include "src/fleet/fleet.h"
#include "src/net/channel.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"

namespace offload::tier {

struct TierConfig {
  /// The cloud machine (defaults to the 3x-edge cloud_server profile,
  /// several lanes: it absorbs overflow from every edge).
  nn::DeviceProfile cloud_profile = nn::DeviceProfile::cloud_server();
  int cloud_replicas = 4;
  /// Edge→cloud WAN uplink shape: fatter but farther than the client
  /// links (defaults: 200 Mbps, 20 ms each way).
  net::ChannelConfig uplink = default_uplink();
  /// Edge→edge LAN shape for stolen/migrated relays.
  net::ChannelConfig peer_link = default_peer_link();
  /// Per-hop deadline budget: a relay that has not delivered its result
  /// this long after taking the job fails with a typed "expired:<app>".
  /// Must fit inside the client supervisor's execute deadline, or the
  /// client gives up first and the relay's outcome arrives late (and is
  /// ignored — the guard rails hold, the budget is just wasted).
  sim::SimTime escalation_budget = sim::SimTime::seconds(2);
  /// Bounded model re-push / snapshot re-send attempts within one relay
  /// before it fails typed.
  int max_relay_retries = 2;
  /// Work stealing between edges.
  bool steal = false;
  sim::SimTime steal_interval = sim::SimTime::millis(50);
  std::uint64_t steal_seed = 1;
  /// A victim must have at least this many queued jobs to be stolen from.
  std::size_t steal_min_backlog = 2;
  /// Called once for every channel the topology creates (the cloud anchor
  /// and each per-relay channel) — the runtime uses it to attach fault
  /// plans (blackout windows) to the tier links.
  std::function<void(net::Channel&)> on_channel;
  obs::Obs* obs = nullptr;

  static net::ChannelConfig default_uplink();
  static net::ChannelConfig default_peer_link();
};

class Topology {
 public:
  /// Target index meaning "the cloud" for drain().
  static constexpr std::size_t kCloud = SIZE_MAX;

  /// Builds the cloud server and installs the escalation handler on every
  /// fleet server currently up. The fleet must outlive the topology.
  Topology(sim::Simulation& sim, fleet::EdgeFleet& fleet, TierConfig config);
  ~Topology();

  edge::EdgeServer& cloud() { return *cloud_; }
  const edge::EdgeServer& cloud() const { return *cloud_; }

  /// Drain every still-queued job off edge `victim`: self-contained jobs
  /// relay to `target` (a fleet server index, or kCloud); differential
  /// jobs redirect their client to `target` (skipped when the target is
  /// the cloud — clients have no cloud endpoint). Returns the number of
  /// jobs moved.
  std::size_t drain(std::size_t victim, std::size_t target);

  /// Jobs edge `server` currently has in flight up-tier or cross-peer
  /// (escalated, stolen, or drained, result still pending) — load its
  /// queue gauges no longer show; feeds ctrl::LinkSignals::escalations.
  int outstanding_relays(std::size_t server) const;

  struct Stats {
    int escalations = 0;      ///< overflow/deadline jobs taken up-tier
    int steals = 0;           ///< jobs pulled to an idle peer
    int drained = 0;          ///< jobs relayed away by drain()
    int redirects = 0;        ///< differential jobs redirected by drain()
    int relays_completed = 0; ///< results delivered to clients
    int relays_failed = 0;    ///< typed failures delivered to clients
    int results_dropped = 0;  ///< origin crashed; outcome suppressed
    int model_pushes = 0;     ///< kModelFiles bodies shipped up-tier
    int steal_ticks = 0;      ///< scheduler passes of the stealing loop
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Relay;

  /// The EdgeServer escalation hook for edge `origin` ("overloaded" /
  /// "expired" reasons). False = cannot take it (the edge sheds normally).
  bool escalate(std::size_t origin, edge::EscalationRequest req);
  /// Start a relay executing `job` (from `origin`) on `target` (kCloud or
  /// a fleet index). `kind` labels the span: "escalate"/"steal"/"migrate".
  void start_relay(std::size_t origin, edge::EscalationRequest req,
                   std::size_t target, const char* kind);
  void on_relay_message(std::uint64_t id, const net::Message& message);
  void send_offer(Relay& r);
  void send_files(Relay& r, const std::vector<std::string>& names);
  void send_snapshot(Relay& r);
  /// Deliver the relayed result (plus "done:" when the origin edge sends
  /// receipts) through the origin's client-facing endpoint.
  void finish_relay(Relay& r, const net::Message& result);
  /// Deliver one typed control failure ("overloaded:<app>", …).
  void fail_relay(Relay& r, const std::string& control);
  /// Epoch/liveness guard: true when the origin edge can still speak for
  /// this relay. False increments results_dropped.
  bool origin_alive(const Relay& r);
  void close_relay(Relay& r, const char* outcome);
  void arm_steal_tick();
  void steal_tick();
  std::string server_label(std::size_t index) const;
  void count(const char* key) {
    if (config_.obs) config_.obs->metrics.add(std::string("tier.") + key);
  }

  sim::Simulation& sim_;
  fleet::EdgeFleet& fleet_;
  TierConfig config_;
  /// The cloud's constructor endpoint rides this otherwise-unused anchor
  /// channel; each relay then attaches its own channel.
  std::unique_ptr<net::Channel> anchor_;
  std::unique_ptr<edge::EdgeServer> cloud_;

  struct Relay {
    std::uint64_t id = 0;
    std::size_t origin = 0;       ///< fleet index the job came from
    std::size_t target = kCloud;  ///< executor: kCloud or a fleet index
    std::string app;
    util::SharedBytes payload;    ///< encoded SnapshotPayload, verbatim
    net::Endpoint* reply_to = nullptr;  ///< origin's client-facing b side
    obs::TraceContext ctx;
    std::uint64_t origin_epoch = 0;
    bool origin_acks = false;
    std::unique_ptr<net::Channel> channel;
    sim::EventHandle watchdog;
    int retries = 0;
    bool snapshot_sent = false;
    bool done = false;
    obs::SpanId span = 0;
  };
  std::map<std::uint64_t, Relay> relays_;
  std::uint64_t next_relay_ = 1;
  util::Pcg32 steal_rng_;
  bool tick_armed_ = false;
  Stats stats_;
};

}  // namespace offload::tier
