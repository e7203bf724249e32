#include "src/nn/device.h"

namespace offload::nn {
namespace {

constexpr std::size_t idx(LayerKind kind) {
  return static_cast<std::size_t>(kind);
}

}  // namespace

double DeviceProfile::layer_time_s(LayerKind kind, std::uint64_t flops) const {
  double throughput = gflops[idx(kind)];
  if (throughput <= 0.0) return per_layer_overhead_s;  // free layers (input)
  return static_cast<double>(flops) / (throughput * 1e9) +
         per_layer_overhead_s;
}

double DeviceProfile::network_time_s(const Network& net, std::size_t begin,
                                     std::size_t end) const {
  const auto& analysis = net.analyze();
  double total = 0.0;
  end = std::min(end, net.size());
  for (std::size_t i = begin; i < end; ++i) {
    total += layer_time_s(net.layer(i).kind(), analysis.flops[i]);
  }
  return total;
}

double DeviceProfile::snapshot_capture_s(std::uint64_t snapshot_bytes) const {
  return static_cast<double>(snapshot_bytes) / snapshot_serialize_Bps;
}

double DeviceProfile::snapshot_restore_s(std::uint64_t snapshot_bytes) const {
  return static_cast<double>(snapshot_bytes) / snapshot_parse_Bps;
}

DeviceProfile DeviceProfile::embedded_client() {
  DeviceProfile p;
  p.name = "odroid-xu4-caffejs";
  p.gflops[idx(LayerKind::kInput)] = 0.0;
  p.gflops[idx(LayerKind::kConv)] = 0.15;
  p.gflops[idx(LayerKind::kMaxPool)] = 0.06;
  p.gflops[idx(LayerKind::kAvgPool)] = 0.06;
  p.gflops[idx(LayerKind::kFullyConnected)] = 0.125;
  p.gflops[idx(LayerKind::kReLU)] = 0.25;
  p.gflops[idx(LayerKind::kLRN)] = 0.04;
  p.gflops[idx(LayerKind::kSoftmax)] = 0.05;
  p.gflops[idx(LayerKind::kConcat)] = 0.40;
  p.gflops[idx(LayerKind::kDropout)] = 0.0;
  p.per_layer_overhead_s = 1.0e-3;
  p.snapshot_serialize_Bps = 25e6;
  p.snapshot_parse_Bps = 50e6;
  return p;
}

DeviceProfile DeviceProfile::edge_server_gpu() {
  DeviceProfile p = edge_server();
  p.name = "x86-edge-webgl";
  // WebGL moves the tensor ops to the GPU: ~80x on the compute-dense
  // layers, less on memory-bound ones (transfer overheads).
  p.gflops[idx(LayerKind::kConv)] *= 80.0;
  p.gflops[idx(LayerKind::kFullyConnected)] *= 80.0;
  p.gflops[idx(LayerKind::kMaxPool)] *= 20.0;
  p.gflops[idx(LayerKind::kAvgPool)] *= 20.0;
  p.gflops[idx(LayerKind::kLRN)] *= 20.0;
  p.gflops[idx(LayerKind::kReLU)] *= 20.0;
  p.gflops[idx(LayerKind::kSoftmax)] *= 20.0;
  p.gflops[idx(LayerKind::kConcat)] *= 10.0;
  p.per_layer_overhead_s = 0.2e-3;  // GPU dispatch overhead
  return p;
}

DeviceProfile DeviceProfile::edge_server() {
  DeviceProfile p = embedded_client();
  p.name = "x86-edge-caffejs";
  // The paper's server runs the same Caffe.js stack far faster per layer
  // (3.4 GHz out-of-order x86 with large caches vs a 2.0 GHz in-order
  // ARM); ~24x per core for JS float loops.
  for (auto& g : p.gflops) g *= 24.0;
  p.per_layer_overhead_s = 0.1e-3;
  p.snapshot_serialize_Bps = 300e6;
  p.snapshot_parse_Bps = 600e6;
  return p;
}

DeviceProfile DeviceProfile::cloud_server() {
  DeviceProfile p = edge_server();
  p.name = "x86-cloud-caffejs";
  // A regional-cloud machine: newer cores, wider vectors, more memory
  // bandwidth — ~3x the edge box per lane across the board.
  for (auto& g : p.gflops) g *= 3.0;
  p.per_layer_overhead_s = 0.05e-3;
  p.snapshot_serialize_Bps = 600e6;
  p.snapshot_parse_Bps = 1200e6;
  return p;
}

}  // namespace offload::nn
