// 2-D convolution layer (Caffe semantics: floor output rounding, zero
// padding, optional channel groups). Forward runs as im2col + a packed,
// cache-blocked, register-tiled GEMM parallelized over output tiles through
// util::parallel_for; the inner micro-kernel comes from the active kernel
// backend (src/nn/kernels.h) — see layers.cpp for the orchestration.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/aligned.h"

namespace offload::nn {

struct ConvConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  /// Channel groups (AlexNet/AgeNet style): group g convolves input
  /// channels [g*in/G, (g+1)*in/G) into output channels [g*out/G, ...).
  std::int64_t groups = 1;
};

class ConvLayer final : public Layer {
 public:
  ConvLayer(std::string name, const ConvConfig& config);

  LayerKind kind() const override { return LayerKind::kConv; }
  Shape output_shape(std::span<const Shape> inputs) const override;
  std::uint64_t flops(std::span<const Shape> inputs) const override;
  /// One parallel im2col, then one parallel GEMM over every (group, tile)
  /// task.
  Tensor forward(std::span<const Tensor* const> inputs) const override;

  std::vector<ParamSpan> param_spans() override;
  void params_changed() override;
  std::string config_str() const override;

  const ConvConfig& config() const { return config_; }
  /// Mutable access invalidates every packed weight cache; they are rebuilt
  /// lazily on the next forward().
  Tensor& weights() {
    invalidate_packs();
    return weights_;
  }
  Tensor& bias() { return bias_; }

 private:
  /// Panel-packed copy of weights_ for one micro-kernel geometry, built
  /// once per weight mutation so steady-state forward passes touch no heap.
  /// Guarded by pack_mutex_ for the (rare) rebuild; `valid` uses
  /// acquire/release so readers that observe `true` also observe the data.
  struct PackCache {
    std::vector<float, util::AlignedAllocator<float, 64>> panels;
    std::atomic<bool> valid{false};
  };

  void check_input(const Shape& in) const;
  /// Pack weights_ into mr-row panels (mr in {4, 8}) if stale; returns the
  /// panel base.
  const float* ensure_packed(std::int64_t mr) const;
  /// Warm the cache the active table will use (called after param load so
  /// the first forward never repacks).
  void warm_pack() const;
  void invalidate_packs();

  ConvConfig config_;
  Tensor weights_;  ///< {out_ch, in_ch/groups, k, k}
  Tensor bias_;     ///< {out_ch}

  mutable PackCache packs_[2];  ///< slot 0: mr == 4, slot 1: mr == 8
  mutable std::mutex pack_mutex_;
};

}  // namespace offload::nn
