#include "src/ctrl/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace offload::ctrl {
namespace {

bool is_candidate_kind(nn::LayerKind kind) {
  // Mirrors core::labeled_cut_points: the controller sweeps the same
  // input/conv/pool candidates the Fig. 8 experiments label.
  return kind == nn::LayerKind::kInput || kind == nn::LayerKind::kConv ||
         kind == nn::LayerKind::kMaxPool || kind == nn::LayerKind::kAvgPool;
}

double clamp_ratio(double r) {
  return std::min(8.0, std::max(0.125, r));
}

}  // namespace

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return "static";
    case PolicyKind::kDrift: return "drift";
    case PolicyKind::kBandit: return "bandit";
  }
  return "?";
}

CutController::CutController(const ControllerConfig& config,
                             std::shared_ptr<const nn::Network> net,
                             nn::LayerCostModel client,
                             nn::LayerCostModel server)
    : config_(config),
      net_(std::move(net)),
      client_cost_(std::move(client)),
      server_cost_(std::move(server)),
      partitioner_(*net_, client_cost_, server_cost_, config_.partitioner),
      // Stream constant keeps the controller's draws disjoint from every
      // other seeded component (workload 0x5e55, backoff 0xba0c, ...).
      rng_(config_.seed, 0xc7b1) {
  const std::size_t last = net_->size() - 1;
  for (std::size_t cut : net_->cut_points()) {
    if (cut == last) continue;  // added below as the full-local arm
    if (is_candidate_kind(net_->layer(cut).kind())) arms_.push_back(cut);
  }
  arms_.push_back(last);
  // Denaturing is structural (which transforming layers sit before the
  // cut), not bandwidth-dependent — resolve it once here.
  arm_denatures_.resize(arms_.size(), false);
  auto cands = partitioner_.evaluate(1e6, config_.latency_s);
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    for (const auto& c : cands) {
      if (c.cut == arms_[i]) { arm_denatures_[i] = c.denatures; break; }
    }
  }
}

std::vector<double>& CutController::corrections_for(std::size_t server) {
  auto it = correction_.find(server);
  if (it == correction_.end()) {
    it = correction_.emplace(server, std::vector<double>(arms_.size(), 1.0))
             .first;
  }
  return it->second;
}

std::vector<CutController::ArmState>& CutController::bandit_for(
    std::size_t server) {
  auto it = bandit_.find(server);
  if (it == bandit_.end()) {
    it = bandit_.emplace(server, std::vector<ArmState>(arms_.size())).first;
  }
  return it->second;
}

double CutController::correction(std::size_t server, std::size_t arm) const {
  auto it = correction_.find(server);
  if (it == correction_.end() || arm >= it->second.size()) return 1.0;
  return it->second[arm];
}

std::vector<double> CutController::predict(const LinkSignals& signals,
                                           double escalation) const {
  const double bw = std::max(signals.bandwidth_bps, config_.min_bandwidth_bps);
  auto cands = partitioner_.evaluate(bw, config_.latency_s);
  // Queue-occupancy wait: every job already queued (or in flight from this
  // client's fleet peers) costs roughly one full-network server pass,
  // spread across the scheduler's lanes.
  const double service_s = server_cost_.predict_network(*net_);
  const double lanes = std::max(1, signals.lanes);
  const double queue_wait =
      static_cast<double>(signals.queue_depth +
                          static_cast<std::size_t>(
                              std::max(0, signals.outstanding)) +
                          static_cast<std::size_t>(
                              std::max(0, signals.escalations))) *
          service_s / lanes;

  const std::size_t last = net_->size() - 1;
  std::vector<double> totals(arms_.size(), 0);
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    const std::size_t cut = arms_[i];
    const nn::PartitionCandidate* cand = nullptr;
    for (const auto& c : cands) {
      if (c.cut == cut) { cand = &c; break; }
    }
    if (!cand) {  // defensive: arms_ is built from cut_points()
      totals[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    if (cut == last) {
      // Full-local: no network or server terms, immune to escalation.
      totals[i] = cand->total_s();
      continue;
    }
    const double net_term = cand->upload_s + cand->return_s + queue_wait;
    const double compute_term = cand->client_front_s + cand->capture_s +
                                cand->restore_s + cand->server_rear_s;
    totals[i] = compute_term + escalation * net_term;
  }
  return totals;
}

Decision CutController::pick(std::size_t server, const LinkSignals& signals,
                             double escalation) {
  const auto totals = predict(signals, escalation);

  // Honor the denature constraint the same way Partitioner::best does:
  // filter, and relax if the filter removes every candidate.
  std::vector<std::size_t> allowed;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (!config_.partitioner.require_denature || arm_denatures_[i]) {
      allowed.push_back(i);
    }
  }
  if (allowed.empty()) {
    for (std::size_t i = 0; i < arms_.size(); ++i) allowed.push_back(i);
  }

  std::size_t chosen = allowed.front();
  if (config_.policy == PolicyKind::kBandit) {
    auto& arms = bandit_for(server);
    // Seed the priors as one virtual pull at the cost model's own ratio
    // (1.0): the bandit starts exactly where the paper's static estimate
    // starts and learns per-arm multiplicative drift from there.
    for (auto& a : arms) {
      if (a.pulls == 0) a.pulls = 1;
    }
    if (config_.explore_eps > 0 && rng_.chance(config_.explore_eps)) {
      chosen = allowed[rng_.next_below(
          static_cast<std::uint32_t>(allowed.size()))];
    } else {
      std::uint64_t total_pulls = 0;
      for (const auto& a : arms) total_pulls += a.pulls;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i : allowed) {
        const auto& a = arms[i];
        const double bonus =
            config_.ucb_c *
            std::sqrt(std::log(static_cast<double>(total_pulls) + 1.0) /
                      static_cast<double>(a.pulls));
        // Optimism in ratio space, floored at the ratio clamp so a huge
        // bonus cannot make an arm look better than physics allows.
        const double score =
            totals[i] * std::max(0.125, a.ratio - bonus);
        if (score < best) { best = score; chosen = i; }
      }
    }
  } else {
    // Drift policy: static estimate times the learned correction factor.
    const auto& corr = corrections_for(server);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i : allowed) {
      const double score = totals[i] * corr[i];
      if (score < best) { best = score; chosen = i; }
    }
  }

  Decision d;
  d.arm = chosen;
  d.cut = arms_[chosen];
  d.local = (chosen == arms_.size() - 1);
  d.server = server;
  d.predicted_s = totals[chosen];
  ++decisions_;
  return d;
}

Decision CutController::decide(std::size_t server, const LinkSignals& signals) {
  return pick(server, signals, 1.0);
}

Decision CutController::redecide(std::size_t server, const LinkSignals& signals,
                                 int failed_attempts) {
  const double esc =
      std::pow(config_.failure_escalation, std::max(0, failed_attempts));
  return pick(server, signals, esc);
}

void CutController::record(const Outcome& outcome) {
  ++outcomes_;
  if (outcome.arm >= arms_.size()) return;

  // Drift correction: EWMA of observed/predicted. Failures register the
  // maximum penalty ratio so the cut that keeps failing prices itself out.
  auto& corr = corrections_for(outcome.server);
  double ratio = 8.0;
  if (outcome.ok && outcome.predicted_s > 0 && outcome.observed_s > 0) {
    ratio = clamp_ratio(outcome.observed_s / outcome.predicted_s);
  }
  corr[outcome.arm] = (1.0 - config_.ewma_alpha) * corr[outcome.arm] +
                      config_.ewma_alpha * ratio;

  // Bandit arm value: EWMA of the same observed/predicted ratio (not a
  // running absolute mean) so the bandit tracks non-stationary bandwidth
  // and load through the live prediction instead of averaging epochs.
  auto& arms = bandit_for(outcome.server);
  auto& arm = arms[outcome.arm];
  if (arm.pulls == 0) {
    arm.ratio = ratio;
    arm.pulls = 1;
  } else {
    arm.ratio = (1.0 - config_.ewma_alpha) * arm.ratio +
                config_.ewma_alpha * ratio;
  }
  ++arm.pulls;
}

}  // namespace offload::ctrl
