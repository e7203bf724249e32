// Fully connected (inner-product) layer. Flattens its input. The row
// kernel comes from the active kernel backend (src/nn/kernels.h); vector
// backends read a cached block-transposed copy of the weights, the int8
// backend a cached symmetric quantization.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/nn/layer.h"
#include "src/nn/quant.h"
#include "src/util/aligned.h"

namespace offload::nn {

class FullyConnectedLayer final : public Layer {
 public:
  FullyConnectedLayer(std::string name, std::int64_t in_features,
                      std::int64_t out_features);

  LayerKind kind() const override { return LayerKind::kFullyConnected; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward_batch(std::span<const Tensor* const> inputs,
                       std::int64_t batch) const override;

  std::uint64_t param_count() const override;
  void init_params(util::Pcg32& rng) override;
  void write_params(util::BinaryWriter& w) const override;
  void read_params(util::BinaryReader& r) override;
  std::string config_str() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

  /// Mutable access invalidates the transposed / quantized weight caches
  /// (rebuilt lazily on the next forward_batch()).
  Tensor& weights() {
    invalidate_packs();
    return weights_;
  }
  Tensor& bias() { return bias_; }

 private:
  /// Block-transposed weight panels for one fc_block size (see
  /// pack_fc_transposed). Same locking discipline as ConvLayer's caches.
  struct TCache {
    std::vector<float, util::AlignedAllocator<float, 64>> panels;
    std::int64_t block = 0;
    std::atomic<bool> valid{false};
  };
  /// Row-major int8 quantized weights + the per-layer scale.
  struct QCache {
    std::vector<std::int8_t, util::AlignedAllocator<std::int8_t, 64>> qw;
    QuantParams params;
    std::atomic<bool> valid{false};
  };

  const float* ensure_transposed(std::int64_t block) const;
  const QCache& ensure_quantized() const;
  void warm_pack() const;
  void invalidate_packs();

  std::int64_t in_;
  std::int64_t out_;
  Tensor weights_;  ///< {out, in}
  Tensor bias_;     ///< {out}

  mutable TCache tcache_;
  mutable QCache qcache_;
  mutable std::mutex pack_mutex_;
};

}  // namespace offload::nn
