#include "src/core/runtime.h"

#include <stdexcept>

#include "src/core/trace_breakdown.h"

namespace offload::core {

OffloadingRuntime::OffloadingRuntime(RuntimeConfig config,
                                     edge::AppBundle app)
    : config_(std::move(config)) {
  if (config_.client.supervisor.enabled) {
    // The supervisor watches per-phase deadlines through the server's
    // "accepted:"/"done:" receipts; turn them on to match.
    config_.server.ack_snapshots = true;
  }
  if (config_.obs) {
    obs_ = config_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::Obs>();
    obs_ = owned_obs_.get();
  }
  config_.client.obs = obs_;
  config_.server.obs = obs_;
  fleet::FleetConfig fleet_config;
  fleet_config.size = config_.fleet.size;
  fleet_config.spares = config_.fleet.spares;
  fleet_config.balancer = config_.fleet.balancer;
  fleet_config.dedup = config_.fleet.dedup;
  fleet_config.channel = config_.channel;
  fleet_config.server = config_.server;
  fleet_config.obs = obs_;
  fleet_ = std::make_unique<fleet::EdgeFleet>(sim_, std::move(fleet_config));
  link_ = fleet_->connect_client("client");
  fleet_->configure_client(config_.client, link_, "client");
  {
    // Partition-controller telemetry: the scheduler's pull accessors and
    // the fleet's outstanding counts, read live at decision time. Always
    // wired — the client only calls it when an adaptive policy is on.
    config_.client.signals = [this](std::size_t server) {
      ctrl::LinkSignals s;
      if (server < fleet_->servers_up()) {
        const serve::Scheduler& sched = fleet_->server(server).scheduler();
        s.queue_depth = sched.queue_depth();
        s.lanes = sched.lanes();
        s.outstanding = fleet_->outstanding_for(server);
        // Jobs the edge relayed up-tier or cross-peer still occupy it
        // (their results route back through it); 0 without a topology,
        // leaving the flat-fleet predictions bit-identical.
        s.escalations =
            topology_ ? topology_->outstanding_relays(server) : 0;
      }
      return s;
    };
  }
  client_ = std::make_unique<edge::ClientDevice>(
      sim_, *link_.endpoints[0], config_.client, std::move(app));
  for (std::size_t k = 1; k < link_.endpoints.size(); ++k) {
    client_->attach_server(*link_.endpoints[k]);
  }
  if (config_.faults) {
    injector_ = std::make_unique<fault::FaultInjector>(sim_, *config_.faults);
    injector_->attach_channel(*link_.channels[0]);
    injector_->attach_server(fleet_->server(0));
  }
  if (config_.tier) {
    tier::TierConfig tier_config = *config_.tier;
    tier_config.obs = obs_;
    if (injector_) {
      // Tier links share the run's fault plan: blackout windows (and any
      // message-fault specs) apply to the uplink and every relay channel.
      tier_config.on_channel = [this](net::Channel& channel) {
        injector_->attach_channel(channel);
      };
    }
    topology_ = std::make_unique<tier::Topology>(sim_, *fleet_,
                                                 std::move(tier_config));
  }
}

OffloadingRuntime::~OffloadingRuntime() = default;

RunResult OffloadingRuntime::run() {
  client_->start();
  client_->click_at(config_.click_at);
  sim_.run();

  if (!client_->finished()) {
    throw std::runtime_error(
        "OffloadingRuntime: app did not finish (offload stalled?)");
  }

  RunResult result;
  result.timeline = client_->timeline();
  result.result_text = client_->result_text();
  result.offloaded = result.timeline.offloaded;
  result.inference_seconds = result.timeline.inference_seconds();
  if (result.timeline.ack_received) {
    result.model_upload_seconds =
        (*result.timeline.ack_received - result.timeline.model_upload_started)
            .to_seconds();
  }

  if (result.offloaded) {
    // The result may have come from another fleet server — a balanced
    // peer, or a spare at the tail of the candidate order.
    edge::EdgeServer* source = &fleet_->server(0);
    const auto idx = static_cast<std::size_t>(result.timeline.server_index);
    if (result.timeline.server_index > 0 && idx < fleet_->servers_up()) {
      source = &fleet_->server(idx);
    }
    if (source->executions().empty()) {
      throw std::runtime_error(
          "OffloadingRuntime: offloaded but server has no execution record");
    }
    result.server_record = source->executions().back();
  }

  // The breakdown comes from the span tree — the trace is the single
  // source of truth for where the time went (the derivation reproduces the
  // historical timeline/record arithmetic bit-for-bit).
  result.trace_id = client_->last_trace_id();
  result.breakdown = breakdown_from_trace(obs_->trace, result.trace_id);

  obs::ExportOptions export_opts = obs::ExportOptions::from_env();
  if (export_opts.any()) obs::export_obs(*obs_, export_opts);
  return result;
}

double server_only_inference_seconds(const nn::Network& net,
                                     const nn::DeviceProfile& profile) {
  return profile.network_time_s(net);
}

}  // namespace offload::core
