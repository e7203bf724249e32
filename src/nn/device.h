// Device performance profiles. The paper runs Caffe.js on a weak ARM
// client (Odroid-XU4) and a 3.4 GHz x86 edge server; we reproduce that as
// per-layer-kind floating-point throughputs (JS engines execute conv, fc,
// lrn... at very different efficiencies) plus snapshot serialize/parse
// rates. Simulated compute time = measured FLOPs ÷ throughput, so the
// experiments are deterministic while the tensors themselves are real.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/nn/layer.h"
#include "src/nn/network.h"

namespace offload::nn {

struct DeviceProfile {
  std::string name;
  /// GFLOP/s per layer kind (indexed by LayerKind).
  std::array<double, 10> gflops{};
  /// Fixed dispatch overhead charged per layer execution (seconds).
  double per_layer_overhead_s = 0.0;
  /// Snapshot text production rate, bytes/second (capture side).
  double snapshot_serialize_Bps = 30e6;
  /// Snapshot parse+restore rate, bytes/second (restore side).
  double snapshot_parse_Bps = 60e6;

  /// Time to execute one layer with the given FLOP count.
  double layer_time_s(LayerKind kind, std::uint64_t flops) const;

  /// Time to execute nodes [begin, end) of `net` on this device.
  double network_time_s(const Network& net, std::size_t begin,
                        std::size_t end) const;
  double network_time_s(const Network& net) const {
    return network_time_s(net, 0, net.size());
  }

  double snapshot_capture_s(std::uint64_t snapshot_bytes) const;
  double snapshot_restore_s(std::uint64_t snapshot_bytes) const;

  /// Odroid-XU4-class embedded client running a JS ML framework
  /// (~0.15 GFLOP/s on conv — no SIMD, no GPU, as the paper notes).
  static DeviceProfile embedded_client();
  /// x86 edge server (3.4 GHz quad-core) running the same stack, ~24x the
  /// client per core.
  static DeviceProfile edge_server();
  /// Near-future server the paper anticipates in Section IV.A: a browser
  /// ML stack using the GPU via WebGL ("~80x speedup for DNN inference").
  /// Conv/fc throughput scales by that factor; memory-bound layers by
  /// less.
  static DeviceProfile edge_server_gpu();
  /// Regional cloud machine above the edge tier: newer cores and wider
  /// SIMD than the edge box, reached over a fatter but higher-latency WAN
  /// uplink (src/tier escalation target).
  static DeviceProfile cloud_server();
};

}  // namespace offload::nn
