#include "src/core/experiment.h"

#include <stdexcept>

#include "src/nn/model_io.h"

namespace offload::core {
namespace {

std::string ordinal(int n) {
  switch (n) {
    case 1: return "1st";
    case 2: return "2nd";
    case 3: return "3rd";
    default: return std::to_string(n) + "th";
  }
}

}  // namespace

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kClientOnly: return "Client";
    case Scenario::kServerOnly: return "Server";
    case Scenario::kOffloadBeforeAck: return "Offload (before ACK)";
    case Scenario::kOffloadAfterAck: return "Offload (after ACK)";
    case Scenario::kOffloadPartial: return "Offload (partial)";
  }
  return "?";
}

std::vector<CutLabel> labeled_cut_points(const nn::Network& net) {
  std::vector<CutLabel> out;
  int conv_count = 0;
  int pool_count = 0;
  for (std::size_t cut : net.cut_points()) {
    nn::LayerKind kind = net.layer(cut).kind();
    if (kind == nn::LayerKind::kInput) {
      out.push_back({cut, "input", kind});
    } else if (kind == nn::LayerKind::kConv) {
      out.push_back({cut, ordinal(++conv_count) + "_conv", kind});
    } else if (kind == nn::LayerKind::kMaxPool ||
               kind == nn::LayerKind::kAvgPool) {
      out.push_back({cut, ordinal(++pool_count) + "_pool", kind});
    }
  }
  return out;
}

std::size_t first_pool_cut(const nn::Network& net) {
  for (std::size_t cut : net.cut_points()) {
    if (net.layer(cut).kind() == nn::LayerKind::kMaxPool) return cut;
  }
  for (std::size_t cut : net.cut_points()) {
    if (net.layer(cut).kind() == nn::LayerKind::kAvgPool) return cut;
  }
  for (std::size_t cut : net.cut_points()) {
    if (net.layer(cut).kind() == nn::LayerKind::kConv) return cut;
  }
  return net.cut_points().front();
}

sim::SimTime after_ack_click_time(const nn::Network& net, bool rear_only,
                                  std::size_t cut, double bandwidth_bps) {
  // The pre-send bundle size: description plus weights, none encoded.
  const std::size_t begin = rear_only ? cut + 1 : 0;
  double bytes = static_cast<double>(nn::save_description(net).size() +
                                     nn::weights_size(net, begin));
  // Transfer + server store + generous margin.
  return sim::SimTime::seconds(bytes * 8.0 / bandwidth_bps + bytes / 400e6 +
                               2.0);
}

RunResult run_scenario(const nn::BenchmarkModel& model, Scenario scenario,
                       const ScenarioOptions& options) {
  if (scenario == Scenario::kServerOnly) {
    // No migration: the app (and its data) already live on the server.
    auto net = model.build(model.seed);
    RunResult result;
    result.inference_seconds = server_only_inference_seconds(
        *net, nn::DeviceProfile::edge_server());
    result.breakdown.dnn_execution_server = result.inference_seconds;
    result.offloaded = false;
    result.result_text = "(server-local)";
    return result;
  }

  const bool partial = scenario == Scenario::kOffloadPartial;
  edge::AppBundle bundle =
      make_benchmark_app(model, partial, options.image_seed);

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
      // Click while the model upload is still in flight.
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
      std::size_t cut = options.partial_cut != SIZE_MAX
                            ? options.partial_cut
                            : first_pool_cut(*bundle.network);
      config.client.partition_cut = cut;
      config.click_at = after_ack_click_time(*bundle.network, true, cut,
                                             options.bandwidth_bps);
      break;
    }
    default:
      throw std::logic_error("run_scenario: unhandled scenario");
  }

  OffloadingRuntime runtime(config, std::move(bundle));
  return runtime.run();
}

}  // namespace offload::core
