#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/nn/activation.h"
#include "src/nn/concat.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/kernels.h"
#include "src/nn/kernels_impl.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/util/arena.h"
#include "src/util/thread_pool.h"

namespace offload::nn {
namespace {

void require_rank3(const Shape& s, const char* what) {
  if (s.rank() != 3) {
    throw std::invalid_argument(std::string(what) +
                                ": expected CHW input, got " + s.str());
  }
}

/// Caffe conv output size: floor((in + 2p - k) / s) + 1.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t k, std::int64_t s,
                          std::int64_t p) {
  return (in + 2 * p - k) / s + 1;
}

/// Caffe pool output size: ceil((in + 2p - k) / s) + 1, clipped so the last
/// window starts inside the (padded) input.
std::int64_t pool_out_dim(std::int64_t in, std::int64_t k, std::int64_t s,
                          std::int64_t p) {
  std::int64_t out =
      (in + 2 * p - k + s - 1) / s + 1;  // ceil division for non-negatives
  if (p > 0 && (out - 1) * s >= in + p) --out;
  return out;
}

}  // namespace

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput:
      return "input";
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kMaxPool:
      return "maxpool";
    case LayerKind::kAvgPool:
      return "avgpool";
    case LayerKind::kFullyConnected:
      return "fc";
    case LayerKind::kReLU:
      return "relu";
    case LayerKind::kLRN:
      return "lrn";
    case LayerKind::kSoftmax:
      return "softmax";
    case LayerKind::kConcat:
      return "concat";
    case LayerKind::kDropout:
      return "dropout";
  }
  return "?";
}

void Layer::require_arity(std::span<const Shape> inputs, std::size_t n,
                          const char* what) {
  if (inputs.size() != n) {
    throw std::invalid_argument(std::string(what) + ": expected " +
                                std::to_string(n) + " inputs, got " +
                                std::to_string(inputs.size()));
  }
}

void fill_uniform(std::span<const ParamSpan> spans, std::uint64_t begin,
                  std::uint64_t end, util::Pcg32& rng) {
  std::uint64_t pos = 0;  // stream position of the span's first value
  for (const ParamSpan& span : spans) {
    if (pos >= end) break;
    const std::uint64_t size = span.values.size();
    const std::uint64_t first = std::max(begin, pos);
    const std::uint64_t last = std::min(end, pos + size);
    for (std::uint64_t i = first; i < last; ++i) {
      span.values[i - pos] = static_cast<float>(rng.uniform(span.lo, span.hi));
    }
    pos += size;
  }
}

void Layer::init_params(util::Pcg32& rng) {
  const std::vector<ParamSpan> spans = param_spans();
  fill_uniform(spans, 0, std::numeric_limits<std::uint64_t>::max(), rng);
  params_changed();
}

std::vector<std::span<const float>> Layer::param_spans() const {
  // The virtual param_spans() only forms views, so calling it on a const
  // layer modifies nothing.
  std::vector<std::span<const float>> views;
  for (const ParamSpan& span : const_cast<Layer*>(this)->param_spans()) {
    views.push_back(span.values);
  }
  return views;
}

std::uint64_t Layer::param_count() const {
  std::uint64_t n = 0;
  for (std::span<const float> span : param_spans()) n += span.size();
  return n;
}

// ---------------------------------------------------------------- InputLayer

Shape InputLayer::output_shape(std::span<const Shape> inputs) const {
  if (!inputs.empty()) {
    throw std::invalid_argument("input layer takes no graph inputs");
  }
  return shape_;
}

std::uint64_t InputLayer::flops(std::span<const Shape>) const { return 0; }

Tensor InputLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) {
    throw std::invalid_argument("input layer: feed exactly one tensor");
  }
  if (inputs[0]->shape() != shape_) {
    throw std::invalid_argument("input layer: expected " + shape_.str() +
                                ", got " + inputs[0]->shape().str());
  }
  Tensor out = *inputs[0];
  if (scale_ != 1.0) {
    const auto s = static_cast<float>(scale_);
    for (auto& v : out.data()) v *= s;
  }
  return out;
}

std::string InputLayer::config_str() const {
  std::string out = "shape=" + shape_.str();
  if (scale_ != 1.0) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", scale_);  // exact round trip
    out += std::string(" scale=") + buf;
  }
  return out;
}

// ----------------------------------------------------------------- ConvLayer
//
// forward() = parallel im2col + packed, register-tiled GEMM. The GEMM
// partitions the output matrix into kRowBlock x kColBlock macro-tiles that
// run as independent parallel_for tasks (disjoint output ranges); each
// macro-tile is computed by the active table's micro-kernel over
// panel-packed weights. Every output element accumulates bias-first then k
// ascending (the DESIGN §11 contract), so results are bit-identical at any
// thread count and across both kernel tables.

namespace {

/// Macro-tile task geometry. Multiples of every table's micro-kernel
/// (mr in {4, 8}, nr in {8, 16}), so tile starts always land on panel
/// boundaries.
constexpr std::int64_t kRowBlock = 64;   ///< C rows per task
constexpr std::int64_t kColBlock = 512;  ///< C cols per task

/// col[r][ow..] rows for r in [row_lo, row_hi), r = (c*K + kh)*K + kw.
/// Writes zeros where the window reads padding, so the buffer needs no
/// pre-clearing (it comes from the scratch arena, not calloc).
void im2col_rows(const float* src, std::int64_t H, std::int64_t W,
                 std::int64_t K, std::int64_t S, std::int64_t P,
                 std::int64_t OH, std::int64_t OW, float* col,
                 std::int64_t row_lo, std::int64_t row_hi) {
  const std::int64_t N = OH * OW;
  for (std::int64_t r = row_lo; r < row_hi; ++r) {
    const std::int64_t c = r / (K * K);
    const std::int64_t kh = (r / K) % K;
    const std::int64_t kw = r % K;
    float* dst = col + r * N;
    // ow range whose input column iw = ow*S + kw - P lands inside [0, W).
    const std::int64_t ow0 =
        kw >= P ? 0 : std::min(OW, (P - kw + S - 1) / S);
    const std::int64_t ow1 =
        W - 1 - kw + P < 0
            ? ow0
            : std::max(ow0, std::min(OW, (W - 1 - kw + P) / S + 1));
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const std::int64_t ih = oh * S + kh - P;
      if (ih < 0 || ih >= H) {
        std::fill(dst, dst + OW, 0.0f);
        dst += OW;
        continue;
      }
      const float* row = src + (c * H + ih) * W;
      std::fill(dst, dst + ow0, 0.0f);
      if (S == 1) {
        const float* from = row + ow0 + kw - P;
        std::copy(from, from + (ow1 - ow0), dst + ow0);
      } else {
        for (std::int64_t ow = ow0; ow < ow1; ++ow) {
          dst[ow] = row[ow * S + kw - P];
        }
      }
      std::fill(dst + ow1, dst + OW, 0.0f);
      dst += OW;
    }
  }
}

/// Conv core: one parallel im2col, then one parallel GEMM over every
/// (group, macro-tile) task.
void conv_forward(const KernelOps& ops, const float* panels, const float* src,
                  float* out_data, const float* bias, std::int64_t C,
                  std::int64_t H, std::int64_t W, std::int64_t K,
                  std::int64_t S, std::int64_t P, std::int64_t OH,
                  std::int64_t OW, std::int64_t M, std::int64_t G) {
  const std::int64_t N = OH * OW;
  const std::int64_t Mg = M / G;
  const std::int64_t Kd = (C / G) * K * K;
  const std::int64_t CKK = C * K * K;
  util::ScratchArena::Frame scratch(util::ScratchArena::local());

  // im2col: col[(c*K+kh)*K+kw][oh*OW+ow] = in[c][oh*S+kh-P][ow*S+kw-P].
  // Rows are independent, so they im2col in parallel; a 1x1/s1/p0 conv is
  // the identity im2col and reads the input directly (GoogLeNet is full of
  // those).
  const float* col = src;
  if (K != 1 || S != 1 || P != 0) {
    float* buf = scratch.floats(static_cast<std::size_t>(CKK * N));
    auto fill = [&](std::int64_t lo, std::int64_t hi) {
      im2col_rows(src, H, W, K, S, P, OH, OW, buf, lo, hi);
    };
    util::parallel_for(0, CKK, 1, fill);
    col = buf;
  }

  const std::int64_t mr = ops.gemm_mr;
  const std::int64_t tiles = (Mg + mr - 1) / mr;
  const std::int64_t row_blocks = (Mg + kRowBlock - 1) / kRowBlock;
  const std::int64_t col_blocks = (N + kColBlock - 1) / kColBlock;
  auto run = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t g = t / (row_blocks * col_blocks);
      const std::int64_t rem = t % (row_blocks * col_blocks);
      const std::int64_t rb = rem / col_blocks;
      const std::int64_t cb = rem % col_blocks;
      ops.gemm_tile(panels + g * tiles * Kd * mr, Kd, col + g * Kd * N, N,
                    bias + g * Mg, out_data + g * Mg * N, Mg, rb * kRowBlock,
                    std::min(Mg, (rb + 1) * kRowBlock), cb * kColBlock,
                    std::min(N, (cb + 1) * kColBlock));
    }
  };
  util::parallel_for(0, G * row_blocks * col_blocks, 1, run);
}

}  // namespace

ConvLayer::ConvLayer(std::string name, const ConvConfig& config)
    : Layer(std::move(name)),
      config_(config),
      weights_(Shape{config.out_channels,
                     config.in_channels / std::max<std::int64_t>(1, config.groups),
                     config.kernel, config.kernel}),
      bias_(Shape{config.out_channels}) {
  if (config.in_channels <= 0 || config.out_channels <= 0 ||
      config.kernel <= 0 || config.stride <= 0 || config.pad < 0 ||
      config.groups <= 0 || config.in_channels % config.groups != 0 ||
      config.out_channels % config.groups != 0) {
    throw std::invalid_argument("conv " + this->name() + ": bad config");
  }
}

void ConvLayer::check_input(const Shape& in) const {
  require_rank3(in, "conv");
  if (in[0] != config_.in_channels) {
    throw std::invalid_argument("conv " + name() + ": expected " +
                                std::to_string(config_.in_channels) +
                                " channels, got " + in.str());
  }
  if (conv_out_dim(in[1], config_.kernel, config_.stride, config_.pad) <= 0 ||
      conv_out_dim(in[2], config_.kernel, config_.stride, config_.pad) <= 0) {
    throw std::invalid_argument("conv " + name() + ": input too small: " +
                                in.str());
  }
}

Shape ConvLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "conv");
  check_input(inputs[0]);
  return Shape{
      config_.out_channels,
      conv_out_dim(inputs[0][1], config_.kernel, config_.stride, config_.pad),
      conv_out_dim(inputs[0][2], config_.kernel, config_.stride, config_.pad)};
}

std::uint64_t ConvLayer::flops(std::span<const Shape> inputs) const {
  Shape out = output_shape(inputs);
  // Per output element: (in_ch/groups)*k*k multiply-adds (2 flops each)
  // plus bias.
  std::uint64_t per_elem =
      2ull * static_cast<std::uint64_t>((config_.in_channels /
                                         config_.groups) *
                                        config_.kernel * config_.kernel) +
      1;
  return static_cast<std::uint64_t>(out.elements()) * per_elem;
}

const float* ConvLayer::ensure_packed(std::int64_t mr) const {
  if (mr != 4 && mr != 8) {
    throw std::logic_error("conv " + name() + ": unsupported panel mr " +
                           std::to_string(mr));
  }
  PackCache& cache = packs_[mr == 8 ? 1 : 0];
  if (!cache.valid.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(pack_mutex_);
    if (!cache.valid.load(std::memory_order_relaxed)) {
      const std::int64_t G = config_.groups;
      const std::int64_t Mg = config_.out_channels / G;
      const std::int64_t Kd =
          (config_.in_channels / G) * config_.kernel * config_.kernel;
      const std::int64_t tiles = (Mg + mr - 1) / mr;
      cache.panels.assign(static_cast<std::size_t>(G * tiles * Kd * mr), 0.0f);
      pack_gemm_panels(weights_.data().data(), G, Mg, Kd, mr,
                       cache.panels.data());
      cache.valid.store(true, std::memory_order_release);
    }
  }
  return cache.panels.data();
}

void ConvLayer::warm_pack() const {
  ensure_packed(active_kernel_ops().gemm_mr);
}

void ConvLayer::invalidate_packs() {
  for (auto& p : packs_) p.valid.store(false, std::memory_order_release);
}

Tensor ConvLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("conv: one input");
  const Tensor& in = *inputs[0];
  check_input(in.shape());
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  const std::int64_t K = config_.kernel;
  const std::int64_t S = config_.stride;
  const std::int64_t P = config_.pad;
  const std::int64_t OH = conv_out_dim(H, K, S, P);
  const std::int64_t OW = conv_out_dim(W, K, S, P);
  const std::int64_t M = config_.out_channels;
  const std::int64_t G = config_.groups;

  const KernelOps& ops = active_kernel_ops();
  Tensor out(Shape{M, OH, OW});
  conv_forward(ops, ensure_packed(ops.gemm_mr), in.data().data(),
               out.data().data(), bias_.data().data(), C, H, W, K, S, P, OH,
               OW, M, G);
  return out;
}

std::vector<ParamSpan> ConvLayer::param_spans() {
  // Xavier-style scale keeps activations bounded through deep stacks so
  // synthetic-weight forward passes stay numerically sane.
  const double fan_in =
      static_cast<double>((config_.in_channels / config_.groups) *
                          config_.kernel * config_.kernel);
  const float scale = static_cast<float>(std::sqrt(3.0 / fan_in));
  return {{weights_.data(), -scale, scale}, {bias_.data(), -0.01, 0.01}};
}

void ConvLayer::params_changed() {
  invalidate_packs();
  warm_pack();  // pack once up front; forward never repacks
}

std::string ConvLayer::config_str() const {
  std::string s = "in=" + std::to_string(config_.in_channels) +
                  " out=" + std::to_string(config_.out_channels) +
                  " k=" + std::to_string(config_.kernel) +
                  " s=" + std::to_string(config_.stride) +
                  " p=" + std::to_string(config_.pad);
  // Emitted only when non-default so existing model descriptions (and
  // their fingerprints) are unchanged.
  if (config_.groups != 1) s += " g=" + std::to_string(config_.groups);
  return s;
}

// ----------------------------------------------------------------- PoolLayer

PoolLayer::PoolLayer(std::string name, const PoolConfig& config, bool average)
    : Layer(std::move(name)), config_(config), average_(average) {
  if (config.kernel <= 0 || config.stride <= 0 || config.pad < 0) {
    throw std::invalid_argument("pool " + this->name() + ": bad config");
  }
}

Shape PoolLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "pool");
  require_rank3(inputs[0], "pool");
  std::int64_t oh =
      pool_out_dim(inputs[0][1], config_.kernel, config_.stride, config_.pad);
  std::int64_t ow =
      pool_out_dim(inputs[0][2], config_.kernel, config_.stride, config_.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("pool " + name() + ": input too small: " +
                                inputs[0].str());
  }
  return Shape{inputs[0][0], oh, ow};
}

std::uint64_t PoolLayer::flops(std::span<const Shape> inputs) const {
  Shape out = output_shape(inputs);
  // One compare-or-add per window element.
  return static_cast<std::uint64_t>(out.elements()) *
         static_cast<std::uint64_t>(config_.kernel * config_.kernel);
}

Tensor PoolLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("pool: one input");
  const Tensor& in = *inputs[0];
  const Shape shapes[1] = {in.shape()};
  Tensor out(output_shape(shapes));
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  const std::int64_t OH = out.shape()[1];
  const std::int64_t OW = out.shape()[2];
  // All C planes are independent — one parallel_for across them.
  const KernelOps& ops = active_kernel_ops();
  const float* src = in.data().data();
  float* dst = out.data().data();
  auto pool_planes = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      ops.pool_plane(src + t * H * W, dst + t * OH * OW, H, W, OH, OW,
                     config_.kernel, config_.stride, config_.pad, average_);
    }
  };
  util::parallel_for(0, C, 1, pool_planes);
  return out;
}

std::string PoolLayer::config_str() const {
  return "k=" + std::to_string(config_.kernel) +
         " s=" + std::to_string(config_.stride) +
         " p=" + std::to_string(config_.pad);
}

// ------------------------------------------------------- FullyConnectedLayer

FullyConnectedLayer::FullyConnectedLayer(std::string name,
                                         std::int64_t in_features,
                                         std::int64_t out_features)
    : Layer(std::move(name)),
      in_(in_features),
      out_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
  if (in_ <= 0 || out_ <= 0) {
    throw std::invalid_argument("fc " + this->name() + ": bad dimensions");
  }
}

Shape FullyConnectedLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "fc");
  if (inputs[0].elements() != in_) {
    throw std::invalid_argument("fc " + name() + ": expected " +
                                std::to_string(in_) + " features, got " +
                                inputs[0].str());
  }
  return Shape{out_};
}

std::uint64_t FullyConnectedLayer::flops(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "fc");
  return 2ull * static_cast<std::uint64_t>(in_) *
             static_cast<std::uint64_t>(out_) +
         static_cast<std::uint64_t>(out_);
}

Tensor FullyConnectedLayer::forward(
    std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("fc: one input");
  const Tensor& in = *inputs[0];
  const Shape shapes[1] = {in.shape()};
  Tensor out(output_shape(shapes));
  const float* w = weights_.data().data();
  const float* bias = bias_.data().data();
  const float* x = in.data().data();
  float* y = out.data().data();
  // Parallel over blocks of kFcBlock output rows (last block ragged).
  // Per-row arithmetic is the DESIGN §11 mul-then-add chain at any
  // decomposition.
  constexpr std::int64_t kFcBlock = 8;
  const std::int64_t nblocks = (out_ + kFcBlock - 1) / kFcBlock;
  auto run = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t r0 = t * kFcBlock;
      detail::scalar_fc_rows(w, in_, x, bias, y, r0,
                             std::min(out_, r0 + kFcBlock));
    }
  };
  util::parallel_for(0, nblocks, 1, run);
  return out;
}

std::vector<ParamSpan> FullyConnectedLayer::param_spans() {
  const float scale =
      static_cast<float>(std::sqrt(3.0 / static_cast<double>(in_)));
  return {{weights_.data(), -scale, scale}, {bias_.data(), -0.01, 0.01}};
}

std::string FullyConnectedLayer::config_str() const {
  return "in=" + std::to_string(in_) + " out=" + std::to_string(out_);
}

// ------------------------------------------------------------ ReLU / Softmax

Shape ReluLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "relu");
  return inputs[0];
}

std::uint64_t ReluLayer::flops(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "relu");
  return static_cast<std::uint64_t>(inputs[0].elements());
}

Tensor ReluLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("relu: one input");
  // Elementwise: identical arithmetic no matter how the index space is
  // chunked, so any thread count is trivially bit-exact.
  Tensor out = *inputs[0];
  float* data = out.data().data();
  auto clamp = [&](std::int64_t lo, std::int64_t hi) {
    detail::scalar_relu_range(data, lo, hi);
  };
  util::parallel_for(0, out.elements(), 1 << 15, clamp);
  return out;
}

Shape SoftmaxLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "softmax");
  return inputs[0];
}

std::uint64_t SoftmaxLayer::flops(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "softmax");
  return 5ull * static_cast<std::uint64_t>(inputs[0].elements());
}

Tensor SoftmaxLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("softmax: one input");
  Tensor out = *inputs[0];
  const auto data = out.data();
  float m = -std::numeric_limits<float>::infinity();
  for (float v : data) m = std::max(m, v);
  double sum = 0.0;
  for (auto& v : data) {
    v = std::exp(v - m);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& v : data) v *= inv;
  return out;
}

// -------------------------------------------------------------- DropoutLayer

Shape DropoutLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "dropout");
  return inputs[0];
}

std::uint64_t DropoutLayer::flops(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "dropout");
  return 0;  // identity at inference time
}

Tensor DropoutLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("dropout: one input");
  return *inputs[0];
}

std::string DropoutLayer::config_str() const {
  return "rate=" + std::to_string(rate_);
}

// ------------------------------------------------------------------ LrnLayer

Shape LrnLayer::output_shape(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "lrn");
  require_rank3(inputs[0], "lrn");
  return inputs[0];
}

std::uint64_t LrnLayer::flops(std::span<const Shape> inputs) const {
  require_arity(inputs, 1, "lrn");
  // Per element: local_size squares/adds plus the pow and divide.
  return static_cast<std::uint64_t>(inputs[0].elements()) *
         (2ull * static_cast<std::uint64_t>(config_.local_size) + 3ull);
}

Tensor LrnLayer::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.size() != 1) throw std::invalid_argument("lrn: one input");
  const Tensor& in = *inputs[0];
  require_rank3(in.shape(), "lrn");
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  Tensor out(in.shape());
  const KernelOps& ops = active_kernel_ops();
  const float* src = in.data().data();
  float* dst = out.data().data();
  // One task per row; each runs the per-row kernel across all channels.
  auto lrn_rows = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t h = lo; h < hi; ++h) {
      ops.lrn_row(src, dst, C, H, W, h, config_.local_size, config_.alpha,
                  config_.beta, config_.k);
    }
  };
  util::parallel_for(0, H, 1, lrn_rows);
  return out;
}

std::string LrnLayer::config_str() const {
  return "n=" + std::to_string(config_.local_size) +
         " alpha=" + std::to_string(config_.alpha) +
         " beta=" + std::to_string(config_.beta) +
         " kk=" + std::to_string(config_.k);
}

// --------------------------------------------------------------- ConcatLayer

Shape ConcatLayer::output_shape(std::span<const Shape> inputs) const {
  if (inputs.size() < 2) {
    throw std::invalid_argument("concat " + name() + ": needs >= 2 inputs");
  }
  require_rank3(inputs[0], "concat");
  std::int64_t channels = inputs[0][0];
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    require_rank3(inputs[i], "concat");
    if (inputs[i][1] != inputs[0][1] || inputs[i][2] != inputs[0][2]) {
      throw std::invalid_argument("concat " + name() +
                                  ": spatial dims differ: " + inputs[0].str() +
                                  " vs " + inputs[i].str());
    }
    channels += inputs[i][0];
  }
  return Shape{channels, inputs[0][1], inputs[0][2]};
}

std::uint64_t ConcatLayer::flops(std::span<const Shape> inputs) const {
  std::uint64_t n = 0;
  for (const auto& s : inputs) n += static_cast<std::uint64_t>(s.elements());
  return n;  // one copy per element
}

Tensor ConcatLayer::forward(std::span<const Tensor* const> inputs) const {
  std::vector<Shape> shapes;
  shapes.reserve(inputs.size());
  for (const Tensor* t : inputs) shapes.push_back(t->shape());
  Tensor out(output_shape(shapes));
  // Pure copies: the inputs land back to back in input order.
  float* dst = out.data().data();
  for (const Tensor* t : inputs) {
    dst = std::copy(t->data().begin(), t->data().end(), dst);
  }
  return out;
}

}  // namespace offload::nn
