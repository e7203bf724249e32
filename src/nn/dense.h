// Fully connected (inner-product) layer. Flattens its input. Every kernel
// table runs the scalar row kernel straight off the row-major weights, so
// the layer keeps no weight cache (DESIGN §11).
#pragma once

#include <cstdint>

#include "src/nn/layer.h"

namespace offload::nn {

class FullyConnectedLayer final : public Layer {
 public:
  FullyConnectedLayer(std::string name, std::int64_t in_features,
                      std::int64_t out_features);

  LayerKind kind() const override { return LayerKind::kFullyConnected; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;

  std::vector<ParamSpan> param_spans() override;
  std::string config_str() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

  Tensor& weights() { return weights_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Tensor weights_;  ///< {out, in}
  Tensor bias_;     ///< {out}
};

}  // namespace offload::nn
