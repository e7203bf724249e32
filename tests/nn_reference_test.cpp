// Property tests cross-checking the optimized layer kernels against naive
// reference implementations over randomized configurations. Every layer has
// one forward path (forward, over one sample), so these naive loops are its
// correctness reference: the im2col convolution and the pooling fast paths
// agree with the textbook quadruple-loop versions, and fc, lrn, relu,
// softmax, concat and the input scale match their references bit for bit,
// on each of 1-4 random samples, where the reduction order is the same
// (DESIGN §11).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/concat.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/kernels.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/util/rng.h"

namespace offload::nn {
namespace {

Tensor reference_conv(const Tensor& in, const Tensor& weights,
                      const Tensor& bias, const ConvConfig& cfg) {
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  const std::int64_t OH = (H + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
  const std::int64_t OW = (W + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
  Tensor out(Shape{cfg.out_channels, OH, OW});
  for (std::int64_t m = 0; m < cfg.out_channels; ++m) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        float acc = bias[m];
        for (std::int64_t c = 0; c < C; ++c) {
          for (std::int64_t kh = 0; kh < cfg.kernel; ++kh) {
            for (std::int64_t kw = 0; kw < cfg.kernel; ++kw) {
              std::int64_t ih = oh * cfg.stride + kh - cfg.pad;
              std::int64_t iw = ow * cfg.stride + kw - cfg.pad;
              if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
              float w = weights[((m * C + c) * cfg.kernel + kh) * cfg.kernel +
                                kw];
              acc += w * in.at(c, ih, iw);
            }
          }
        }
        out.at(m, oh, ow) = acc;
      }
    }
  }
  return out;
}

Tensor reference_maxpool(const Tensor& in, const PoolConfig& cfg) {
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  auto out_dim = [&](std::int64_t n) {
    std::int64_t d = (n + 2 * cfg.pad - cfg.kernel + cfg.stride - 1) /
                         cfg.stride +
                     1;
    if (cfg.pad > 0 && (d - 1) * cfg.stride >= n + cfg.pad) --d;
    return d;
  };
  const std::int64_t OH = out_dim(H);
  const std::int64_t OW = out_dim(W);
  Tensor out(Shape{C, OH, OW});
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t kh = 0; kh < cfg.kernel; ++kh) {
          for (std::int64_t kw = 0; kw < cfg.kernel; ++kw) {
            std::int64_t ih = oh * cfg.stride + kh - cfg.pad;
            std::int64_t iw = ow * cfg.stride + kw - cfg.pad;
            if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
            best = std::max(best, in.at(c, ih, iw));
          }
        }
        out.at(c, oh, ow) = best;
      }
    }
  }
  return out;
}

/// fc: bias first, then a separately rounded multiply and add per input,
/// j ascending (the DESIGN §11 contract). This file builds with
/// -ffp-contract=off so the compiler cannot fuse the two.
Tensor reference_fc(const Tensor& x, const Tensor& weights,
                    const Tensor& bias) {
  const std::int64_t in = x.elements();
  const std::int64_t out = bias.elements();
  Tensor y(Shape{out});
  for (std::int64_t i = 0; i < out; ++i) {
    float acc = bias[i];
    for (std::int64_t j = 0; j < in; ++j) {
      const float product = weights[i * in + j] * x[j];
      acc = acc + product;
    }
    y[i] = acc;
  }
  return y;
}

/// Caffe ACROSS_CHANNELS lrn: double square sum over the clipped channel
/// window in channel order, then x / (k + alpha/n * sum)^beta.
Tensor reference_lrn(const Tensor& in, const LrnConfig& cfg) {
  const std::int64_t C = in.shape()[0];
  const std::int64_t H = in.shape()[1];
  const std::int64_t W = in.shape()[2];
  const std::int64_t half = cfg.local_size / 2;
  Tensor out(in.shape());
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t h = 0; h < H; ++h) {
      for (std::int64_t w = 0; w < W; ++w) {
        double sum = 0.0;
        for (std::int64_t cc = std::max<std::int64_t>(0, c - half);
             cc <= std::min(C - 1, c + half); ++cc) {
          const double v = in.at(cc, h, w);
          sum += v * v;
        }
        const double scale =
            cfg.k + cfg.alpha / static_cast<double>(cfg.local_size) * sum;
        out.at(c, h, w) =
            static_cast<float>(in.at(c, h, w) / std::pow(scale, cfg.beta));
      }
    }
  }
  return out;
}

Tensor reference_relu(const Tensor& in) {
  Tensor out = in;
  for (auto& v : out.data()) v = std::max(v, 0.0f);
  return out;
}

/// Max-shifted softmax: float exponentials, double sum, one float
/// reciprocal multiplied into every element.
Tensor reference_softmax(const Tensor& in) {
  Tensor out = in;
  float m = -std::numeric_limits<float>::infinity();
  for (float v : out.data()) m = std::max(m, v);
  double sum = 0.0;
  for (auto& v : out.data()) {
    v = std::exp(v - m);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& v : out.data()) v *= inv;
  return out;
}

/// Channel concatenation of CHW tensors with equal H and W.
Tensor reference_concat(const std::vector<Tensor>& parts) {
  std::int64_t channels = 0;
  for (const Tensor& t : parts) channels += t.shape()[0];
  const std::int64_t H = parts[0].shape()[1];
  const std::int64_t W = parts[0].shape()[2];
  Tensor out(Shape{channels, H, W});
  std::int64_t base = 0;
  for (const Tensor& t : parts) {
    for (std::int64_t c = 0; c < t.shape()[0]; ++c) {
      for (std::int64_t h = 0; h < H; ++h) {
        for (std::int64_t w = 0; w < W; ++w) {
          out.at(base + c, h, w) = t.at(c, h, w);
        }
      }
    }
    base += t.shape()[0];
  }
  return out;
}

Tensor reference_input_scale(const Tensor& in, double scale) {
  Tensor out = in;
  for (auto& v : out.data()) v = v * static_cast<float>(scale);
  return out;
}

void expect_bitwise(const Tensor& fast, const Tensor& slow,
                    const std::string& what) {
  ASSERT_EQ(fast.shape(), slow.shape()) << what;
  EXPECT_EQ(0, std::memcmp(fast.data().data(), slow.data().data(),
                           static_cast<std::size_t>(fast.bytes())))
      << what << ": bits differ";
}

/// Forwards each sample alone (`inputs[k][b]` is sample b of graph input
/// k) and checks it against its own reference.
void expect_samples_bitwise(const Layer& layer,
                            const std::vector<std::vector<Tensor>>& inputs,
                            const std::vector<Tensor>& references,
                            const std::string& what) {
  for (std::size_t b = 0; b < references.size(); ++b) {
    std::vector<const Tensor*> ins;
    for (const auto& samples : inputs) ins.push_back(&samples.at(b));
    expect_bitwise(layer.forward(ins), references[b],
                   what + " sample " + std::to_string(b));
  }
}

std::vector<Tensor> random_samples(const Shape& shape, std::int64_t count,
                                   util::Pcg32& rng, float lo, float hi) {
  std::vector<Tensor> samples;
  for (std::int64_t b = 0; b < count; ++b) {
    samples.push_back(Tensor::random_uniform(shape, rng, lo, hi));
  }
  return samples;
}

class ConvReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvReference, MatchesNaiveImplementation) {
  util::Pcg32 rng(GetParam(), 0x636f6e76726566ULL);
  ConvConfig cfg;
  cfg.in_channels = 1 + rng.next_below(5);
  cfg.out_channels = 1 + rng.next_below(6);
  cfg.kernel = 1 + rng.next_below(5);
  cfg.stride = 1 + rng.next_below(3);
  cfg.pad = rng.next_below(3);
  std::int64_t hw =
      cfg.kernel + static_cast<std::int64_t>(rng.next_below(12));
  ConvLayer conv("c", cfg);
  conv.init_params(rng);
  Tensor in = Tensor::random_uniform(Shape{cfg.in_channels, hw, hw}, rng,
                                     -2.0f, 2.0f);
  const Tensor* ins[] = {&in};
  Tensor fast = conv.forward(ins);
  Tensor slow = reference_conv(in, conv.weights(), conv.bias(), cfg);
  ASSERT_EQ(fast.shape(), slow.shape()) << "seed=" << GetParam();
  // Same summation order → tiny numeric slack suffices.
  EXPECT_LE(Tensor::max_abs_diff(fast, slow), 1e-4f)
      << "seed=" << GetParam() << " cfg: in=" << cfg.in_channels
      << " out=" << cfg.out_channels << " k=" << cfg.kernel
      << " s=" << cfg.stride << " p=" << cfg.pad << " hw=" << hw;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvReference,
                         ::testing::Range<std::uint64_t>(1, 41));

class PoolReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolReference, MatchesNaiveImplementation) {
  util::Pcg32 rng(GetParam(), 0x706f6f6c726566ULL);
  PoolConfig cfg;
  cfg.kernel = 2 + rng.next_below(3);
  cfg.stride = 1 + rng.next_below(3);
  cfg.pad = rng.next_below(static_cast<std::uint32_t>(cfg.kernel));
  std::int64_t c = 1 + rng.next_below(4);
  std::int64_t hw =
      cfg.kernel + static_cast<std::int64_t>(rng.next_below(14));
  PoolLayer pool("p", cfg, /*average=*/false);
  Tensor in = Tensor::random_uniform(Shape{c, hw, hw}, rng, -5.0f, 5.0f);
  const Tensor* ins[] = {&in};
  Tensor fast = pool.forward(ins);
  Tensor slow = reference_maxpool(in, cfg);
  ASSERT_EQ(fast.shape(), slow.shape())
      << "seed=" << GetParam() << " k=" << cfg.kernel << " s=" << cfg.stride
      << " p=" << cfg.pad << " hw=" << hw;
  EXPECT_EQ(Tensor::max_abs_diff(fast, slow), 0.0f) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, PoolReference,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(ConvReference, StemConfigurationExact) {
  // The GoogLeNet stem shape specifically (large stride + pad).
  util::Pcg32 rng(9);
  ConvConfig cfg{.in_channels = 3, .out_channels = 8, .kernel = 7,
                 .stride = 2, .pad = 3};
  ConvLayer conv("c", cfg);
  conv.init_params(rng);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  const Tensor* ins[] = {&in};
  EXPECT_LE(Tensor::max_abs_diff(
                conv.forward(ins),
                reference_conv(in, conv.weights(), conv.bias(), cfg)),
            1e-4f);
}

// Exact references run under the scalar backend: its reduction order is the
// one the references spell out, and the other fp32 backends are pinned
// bitwise to it by kernel_backend_test.

class FcReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FcReference, MatchesNaiveLoopBitwise) {
  ScopedKernelBackend scalar(KernelBackend::kScalar);
  util::Pcg32 rng(GetParam(), 0x6663726566ULL);
  // A CHW input exercises the implicit flatten in front of GoogLeNet's fc.
  const Shape in_shape{1 + rng.next_below(8), 1 + rng.next_below(5),
                       1 + rng.next_below(5)};
  const std::int64_t out = 1 + rng.next_below(70);
  const std::int64_t count = 1 + rng.next_below(3);
  FullyConnectedLayer fc("fc", in_shape.elements(), out);
  fc.init_params(rng);
  auto samples = random_samples(in_shape, count, rng, -2.0f, 2.0f);
  std::vector<Tensor> refs;
  for (const Tensor& x : samples) {
    refs.push_back(reference_fc(x, fc.weights(), fc.bias()));
  }
  expect_samples_bitwise(fc, {samples}, refs,
                         "fc seed=" + std::to_string(GetParam()) + " in=" +
                             in_shape.str() + " out=" + std::to_string(out));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FcReference,
                         ::testing::Range<std::uint64_t>(1, 21));

class LrnReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LrnReference, MatchesNaiveLoopBitwise) {
  ScopedKernelBackend scalar(KernelBackend::kScalar);
  util::Pcg32 rng(GetParam(), 0x6c726e726566ULL);
  LrnConfig cfg;
  cfg.local_size = 1 + 2 * rng.next_below(3);  // 1, 3 or 5
  cfg.alpha = rng.uniform(1e-5, 1e-2);
  cfg.beta = rng.uniform(0.5, 1.0);
  cfg.k = rng.uniform(1.0, 2.0);
  const Shape shape{1 + rng.next_below(12), 1 + rng.next_below(9),
                    1 + rng.next_below(9)};
  const std::int64_t count = 1 + rng.next_below(3);
  LrnLayer lrn("lrn", cfg);
  auto samples = random_samples(shape, count, rng, -4.0f, 4.0f);
  std::vector<Tensor> refs;
  for (const Tensor& x : samples) refs.push_back(reference_lrn(x, cfg));
  expect_samples_bitwise(lrn, {samples}, refs,
                         "lrn seed=" + std::to_string(GetParam()) + " n=" +
                             std::to_string(cfg.local_size) + " " +
                             shape.str());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LrnReference,
                         ::testing::Range<std::uint64_t>(1, 21));

class ReluReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReluReference, MatchesNaiveLoopBitwise) {
  ScopedKernelBackend scalar(KernelBackend::kScalar);
  util::Pcg32 rng(GetParam(), 0x72656c75ULL);
  // Up to ~80k elements per sample, so the flat range splits into several
  // parallel chunks.
  const Shape shape{1 + rng.next_below(32), 1 + rng.next_below(50),
                    1 + rng.next_below(50)};
  const std::int64_t count = 1 + rng.next_below(3);
  ReluLayer relu("relu");
  auto samples = random_samples(shape, count, rng, -1.0f, 1.0f);
  std::vector<Tensor> refs;
  for (const Tensor& x : samples) refs.push_back(reference_relu(x));
  expect_samples_bitwise(relu, {samples}, refs,
                         "relu seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReluReference,
                         ::testing::Range<std::uint64_t>(1, 21));

class SoftmaxReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftmaxReference, NormalizesEachSampleLikeNaiveLoop) {
  util::Pcg32 rng(GetParam(), 0x736f66746dULL);
  const Shape shape{1 + rng.next_below(1000)};
  const std::int64_t count = 1 + rng.next_below(4);
  SoftmaxLayer softmax("prob");
  auto samples = random_samples(shape, count, rng, -20.0f, 20.0f);
  std::vector<Tensor> refs;
  for (const Tensor& x : samples) refs.push_back(reference_softmax(x));
  expect_samples_bitwise(softmax, {samples}, refs,
                         "softmax seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoftmaxReference,
                         ::testing::Range<std::uint64_t>(1, 21));

class ConcatReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcatReference, MatchesNaiveLoopBitwise) {
  util::Pcg32 rng(GetParam(), 0x636f6e636174ULL);
  const std::int64_t H = 1 + rng.next_below(9);
  const std::int64_t W = 1 + rng.next_below(9);
  const std::uint32_t parts = 2 + rng.next_below(3);
  const std::int64_t count = 1 + rng.next_below(3);
  ConcatLayer concat("cat");
  std::vector<std::vector<Tensor>> inputs;  // [part][sample]
  for (std::uint32_t k = 0; k < parts; ++k) {
    const Shape shape{1 + rng.next_below(6), H, W};
    inputs.push_back(random_samples(shape, count, rng, -1.0f, 1.0f));
  }
  std::vector<Tensor> refs;
  for (std::int64_t b = 0; b < count; ++b) {
    std::vector<Tensor> sample_parts;
    for (const auto& part : inputs) {
      sample_parts.push_back(part[static_cast<std::size_t>(b)]);
    }
    refs.push_back(reference_concat(sample_parts));
  }
  expect_samples_bitwise(concat, inputs, refs,
                         "concat seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConcatReference,
                         ::testing::Range<std::uint64_t>(1, 21));

class InputScaleReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InputScaleReference, ScalesEverySampleLikeNaiveLoop) {
  util::Pcg32 rng(GetParam(), 0x696e707574ULL);
  const Shape shape{1 + rng.next_below(4), 1 + rng.next_below(16),
                    1 + rng.next_below(16)};
  // Seed 1 keeps the identity scale; the rest draw one (1/255 included).
  const double scale = GetParam() == 1   ? 1.0
                       : GetParam() == 2 ? 1.0 / 255.0
                                         : rng.uniform(-3.0, 3.0);
  const std::int64_t count = 1 + rng.next_below(3);
  InputLayer input("data", shape, scale);
  auto samples = random_samples(shape, count, rng, 0.0f, 255.0f);
  std::vector<Tensor> refs;
  for (const Tensor& x : samples) {
    refs.push_back(reference_input_scale(x, scale));
  }
  expect_samples_bitwise(input, {samples}, refs,
                         "input seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, InputScaleReference,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(InputScaleReference, RejectsWrongSampleShape) {
  InputLayer input("data", Shape{3, 4, 4}, 0.5);
  Tensor rank4 = Tensor::zeros(Shape{1, 3, 4, 4});
  const Tensor* ins[] = {&rank4};
  EXPECT_THROW(input.forward(ins), std::invalid_argument);
  Tensor single = Tensor::zeros(Shape{3, 4, 5});
  const Tensor* one[] = {&single};
  EXPECT_THROW(input.forward(one), std::invalid_argument);
}

}  // namespace
}  // namespace offload::nn
