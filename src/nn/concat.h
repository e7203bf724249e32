// Channel-wise concatenation — joins the four branches of a GoogLeNet
// inception module.
#pragma once

#include "src/nn/layer.h"

namespace offload::nn {

class ConcatLayer final : public Layer {
 public:
  explicit ConcatLayer(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::kConcat; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
};

}  // namespace offload::nn
