// Local response normalization across channels (Caffe ACROSS_CHANNELS
// mode), used by GoogLeNet's stem and the Levi–Hassner age/gender nets.
#pragma once

#include "src/nn/layer.h"

namespace offload::nn {

struct LrnConfig {
  std::int64_t local_size = 5;
  double alpha = 1e-4;
  double beta = 0.75;
  double k = 1.0;
};

class LrnLayer final : public Layer {
 public:
  LrnLayer(std::string name, const LrnConfig& config)
      : Layer(std::move(name)), config_(config) {}

  LayerKind kind() const override { return LayerKind::kLRN; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
  std::string config_str() const override;

  const LrnConfig& config() const { return config_; }

 private:
  LrnConfig config_;
};

}  // namespace offload::nn
