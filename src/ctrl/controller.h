// Online partition-point controller (the ROADMAP's "DynO-style" item):
// closes the loop between live telemetry and the per-inference DNN cut.
// The paper picks the cut once, at click time, from a static
// Neurosurgeon-style cost model plus the observed network status
// (Section III.B.2). This controller is the client's only runtime cut
// selection: the drift policy's first, untrained decision *is* that static
// estimate, and from there it re-selects the cut for every inference — and
// re-cuts mid-flight when the supervisor reports a failed attempt — from
// what the system actually observed: the measured upload bandwidth
// (net::BandwidthEstimator), the target server's queue depth and lane
// count (serve::Scheduler pull accessors), and the fleet's per-server
// outstanding counts.
//
// Two policies, selected by ControllerConfig::policy (set through
// edge::ClientConfig::controller):
//   drift  — the static partitioner estimate per candidate cut, times an
//            EWMA correction factor learned per (server, cut) from observed
//            end-to-end latencies, plus a queue-occupancy wait term.
//   bandit — a seeded UCB-style bandit over the labeled candidate cuts
//            (input/conv/pool cut points, mirroring core::labeled_cut_points)
//            plus the full-local arm, with the static estimate as its prior.
// kStatic disables the controller entirely: behavior is bit-for-bit the
// paper's click-time choice.
//
// Determinism rules (DESIGN §9): every decision is a pure function of the
// constructor arguments, the seeded PCG32 stream, and the sequence of
// decide()/record() calls — no wall clock, no pointer iteration, no
// ambient state. Two controllers with the same seed fed the same call
// sequence produce bit-identical decisions at any OFFLOAD_THREADS.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/nn/cost_model.h"
#include "src/nn/network.h"
#include "src/nn/partition.h"
#include "src/util/rng.h"

namespace offload::ctrl {

enum class PolicyKind : std::uint8_t {
  kStatic = 0,  ///< controller off: the click-time static cut is used
  kDrift,       ///< drift-corrected cost model
  kBandit,      ///< seeded UCB bandit over candidate cuts
};

const char* policy_name(PolicyKind kind);

struct ControllerConfig {
  PolicyKind policy = PolicyKind::kStatic;
  /// Seed for the controller's PCG32 stream (bandit exploration draws and
  /// tie-breaks).
  std::uint64_t seed = 1;
  /// EWMA smoothing for the per-(server, cut) drift-correction factors.
  double ewma_alpha = 0.3;
  /// UCB exploration weight, in units of an arm's learned correction
  /// ratio (bandit only): an arm's score is its live static prediction
  /// times (ratio − ucb_c·sqrt(ln total_pulls / pulls)), so rarely-pulled
  /// arms look optimistically cheap in proportion to how uncertain their
  /// ratio still is. Kept small by default: under a *persistent*
  /// degradation every unexplored remote arm looks optimistically cheap,
  /// and each probe pays the full degraded round trip to learn its ratio.
  double ucb_c = 0.05;
  /// Seeded epsilon-greedy exploration on top of UCB (bandit only).
  double explore_eps = 0.05;
  /// One-way link latency assumed by the static partitioner term.
  double latency_s = 0.001;
  /// Per failed attempt, the network-dependent terms (upload, return,
  /// queue wait) of every remote candidate are scaled by this factor when
  /// re-deciding — deadline pressure pushes toward deeper cuts, then
  /// full-local.
  double failure_escalation = 2.0;
  /// Floor for the bandwidth signal (guards the partitioner's bps > 0
  /// requirement against a degenerate estimator).
  double min_bandwidth_bps = 1e3;
  nn::PartitionerOptions partitioner;

  bool active() const { return policy != PolicyKind::kStatic; }
};

/// A snapshot of the telemetry feeding one decision. The client fills
/// bandwidth from its estimator; the runtime's signals hook fills the
/// server-side fields from the scheduler/fleet pull accessors.
struct LinkSignals {
  double bandwidth_bps = 0;     ///< <= 0: the caller's estimator default
  std::size_t queue_depth = 0;  ///< serve::Scheduler::queue_depth()
  int lanes = 1;                ///< serve::Scheduler::lanes()
  int outstanding = 0;          ///< fleet::EdgeFleet::outstanding_for(k)
  /// Jobs this server currently has escalated up-tier and still awaits
  /// results for (tier::Topology::outstanding_relays(k)). Each one is load
  /// the queue gauges no longer show; 0 (tier off) leaves predictions
  /// bit-identical.
  int escalations = 0;
};

struct Decision {
  std::size_t cut = SIZE_MAX;  ///< node index to split at (valid when !local)
  bool local = false;          ///< run the whole inference on the client
  std::size_t arm = 0;         ///< candidate index (arms() order)
  std::size_t server = 0;      ///< server the decision was made for
  double predicted_s = 0;      ///< controller's latency prediction
};

/// Feedback for one finished (or superseded) decision. `predicted_s` must
/// echo the Decision's, so the drift policy can learn observed/predicted.
struct Outcome {
  std::size_t server = 0;
  std::size_t arm = 0;
  bool local = false;
  bool ok = true;         ///< the decision's path produced the result
  double observed_s = 0;  ///< end-to-end latency (or time wasted, on !ok)
  double predicted_s = 0;
};

class CutController {
 public:
  /// `net` is the app's network; the cost models are the same per-device
  /// fits the static partitioner uses (LayerCostModel::profile_device).
  CutController(const ControllerConfig& config,
                std::shared_ptr<const nn::Network> net,
                nn::LayerCostModel client, nn::LayerCostModel server);

  const ControllerConfig& config() const { return config_; }
  /// Candidate cuts, in ascending node order: the input/conv/pool cut
  /// points (mirroring core::labeled_cut_points) plus the final node (the
  /// full-local arm, always last).
  const std::vector<std::size_t>& arms() const { return arms_; }

  /// Select the cut for a fresh inference toward `server`.
  Decision decide(std::size_t server, const LinkSignals& signals);
  /// Re-select after `failed_attempts` failed sends of the cut currently
  /// in flight: network-dependent terms are escalated so repeated failures
  /// walk toward deeper cuts and finally full-local.
  Decision redecide(std::size_t server, const LinkSignals& signals,
                    int failed_attempts);
  /// Feed back what one decision actually cost. Exactly one Outcome per
  /// Decision: at inference finish, or when a re-cut supersedes it.
  void record(const Outcome& outcome);

  /// EWMA drift-correction factor for (server, arm); 1.0 until trained.
  double correction(std::size_t server, std::size_t arm) const;
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t outcomes() const { return outcomes_; }

 private:
  struct ArmState {
    std::uint64_t pulls = 0;
    /// EWMA of observed/predicted for this arm (1.0 prior). Learning the
    /// ratio instead of an absolute latency keeps the live telemetry
    /// (measured bandwidth, queue depth) in every bandit score — an
    /// absolute mean would go stale the moment the link shifts.
    double ratio = 1.0;
  };

  /// Static partitioner predictions per arm at these signals, with the
  /// escalation factor applied to the network-dependent terms.
  std::vector<double> predict(const LinkSignals& signals,
                              double escalation) const;
  Decision pick(std::size_t server, const LinkSignals& signals,
                double escalation);
  std::vector<double>& corrections_for(std::size_t server);
  std::vector<ArmState>& bandit_for(std::size_t server);

  ControllerConfig config_;
  std::shared_ptr<const nn::Network> net_;
  nn::LayerCostModel client_cost_;
  nn::LayerCostModel server_cost_;
  nn::Partitioner partitioner_;
  std::vector<std::size_t> arms_;      ///< arm index -> cut
  std::vector<bool> arm_denatures_;    ///< per arm (full-local counts)
  /// Per-server learned state, keyed by server index (ordered map: dumps
  /// and iteration are deterministic).
  std::map<std::size_t, std::vector<double>> correction_;
  std::map<std::size_t, std::vector<ArmState>> bandit_;
  util::Pcg32 rng_;
  std::uint64_t decisions_ = 0;
  std::uint64_t outcomes_ = 0;
};

}  // namespace offload::ctrl
