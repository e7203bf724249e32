// Max/average pooling layers (Caffe semantics: ceil output rounding, which
// is what produces GoogLeNet's 112→56→28→14→7 pyramid).
#pragma once

#include "src/nn/layer.h"

namespace offload::nn {

struct PoolConfig {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
};

class PoolLayer final : public Layer {
 public:
  /// `average` false → max pooling (the paper's "pool layer"), true → the
  /// global average pool that ends GoogLeNet.
  PoolLayer(std::string name, const PoolConfig& config, bool average);

  LayerKind kind() const override {
    return average_ ? LayerKind::kAvgPool : LayerKind::kMaxPool;
  }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
  std::string config_str() const override;

  const PoolConfig& config() const { return config_; }

 private:
  PoolConfig config_;
  bool average_;
};

}  // namespace offload::nn
