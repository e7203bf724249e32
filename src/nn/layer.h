// Layer abstraction for the CNN inference engine. Layers are stateless with
// respect to activations: forward() maps one sample's input tensors to its
// output tensor. Parameters (conv filters, fc weights) live inside the
// layer and are reached only through param_spans(): synthetic weights are
// drawn into them, and the model files of Section III.B.1 ("pre-sending
// the NN model") are saved from and loaded into them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/nn/tensor.h"
#include "src/util/rng.h"

namespace offload::nn {

enum class LayerKind : std::uint8_t {
  kInput = 0,
  kConv = 1,
  kMaxPool = 2,
  kAvgPool = 3,
  kFullyConnected = 4,
  kReLU = 5,
  kLRN = 6,
  kSoftmax = 7,
  kConcat = 8,
  kDropout = 9,
};

const char* layer_kind_name(LayerKind kind);

/// A run of a layer's parameters and the range [lo, hi) their synthetic
/// values are drawn from.
struct ParamSpan {
  std::span<float> values;
  double lo = 0;
  double hi = 0;
};

/// Synthetic values for positions [begin, end) of the stream that
/// concatenates `spans`: each is static_cast<float>(rng.uniform(lo, hi)) of
/// its span, drawn in stream order from `rng`, which must stand at position
/// `begin` (two u32 per value, see util::Pcg32::uniform).
void fill_uniform(std::span<const ParamSpan> spans, std::uint64_t begin,
                  std::uint64_t end, util::Pcg32& rng);

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }
  virtual LayerKind kind() const = 0;

  /// Shape of the output given input shapes; throws std::invalid_argument
  /// on arity/shape mismatches so graph bugs surface at build time.
  virtual Shape output_shape(std::span<const Shape> inputs) const = 0;

  /// Floating-point operation count for one forward pass over a single
  /// sample (multiply and add counted separately, the Neurosurgeon
  /// convention). Drives the device cost model.
  virtual std::uint64_t flops(std::span<const Shape> inputs) const = 0;

  /// The one forward entry every layer implements, over one sample's
  /// tensors (CHW, or {N} for fc/softmax). Kernels parallelize within the
  /// sample; the result is bit-identical at any thread count.
  virtual Tensor forward(std::span<const Tensor* const> inputs) const = 0;

  /// The parameters in synthesis and file order (weights, then bias), each
  /// with its init range; empty for layers without parameters. Returns
  /// views only: it changes nothing.
  virtual std::vector<ParamSpan> param_spans() { return {}; }
  /// Read-only view of the same spans, in the same order.
  std::vector<std::span<const float>> param_spans() const;
  /// Total length of param_spans().
  std::uint64_t param_count() const;
  /// Rebuild whatever the layer derives from its parameters (conv weight
  /// packs) after they were written through param_spans().
  virtual void params_changed() {}
  /// Draw every parameter from `rng` (fill_uniform over param_spans()).
  void init_params(util::Pcg32& rng);

  /// One-line config for the model description file, e.g.
  /// "k=7 s=2 p=3 out=64". Parsed back by model_io.
  virtual std::string config_str() const { return ""; }

 protected:
  /// Helper for subclasses: demand exactly `n` inputs.
  static void require_arity(std::span<const Shape> inputs, std::size_t n,
                            const char* what);

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace offload::nn
