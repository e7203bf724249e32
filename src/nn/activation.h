// Elementwise / normalization layers without spatial structure: ReLU,
// Softmax, and (inference-mode) Dropout.
#pragma once

#include "src/nn/layer.h"

namespace offload::nn {

class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::kReLU; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
};

class SoftmaxLayer final : public Layer {
 public:
  explicit SoftmaxLayer(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::kSoftmax; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
};

/// Dropout at inference time is the identity (Caffe scales at train time);
/// it exists so model descriptions match the published architectures.
class DropoutLayer final : public Layer {
 public:
  DropoutLayer(std::string name, double rate)
      : Layer(std::move(name)), rate_(rate) {}
  LayerKind kind() const override { return LayerKind::kDropout; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
  std::string config_str() const override;
  double rate() const { return rate_; }

 private:
  double rate_;
};

/// The graph input placeholder; validates the image shape fed to the network
/// and applies an input scale (Caffe's transform scale — e.g. 1/255 to map
/// canvas pixel bytes into [0,1]).
class InputLayer final : public Layer {
 public:
  InputLayer(std::string name, Shape shape, double scale = 1.0)
      : Layer(std::move(name)), shape_(std::move(shape)), scale_(scale) {}
  LayerKind kind() const override { return LayerKind::kInput; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs) const override;
  std::string config_str() const override;
  const Shape& shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  Shape shape_;
  double scale_;
};

}  // namespace offload::nn
