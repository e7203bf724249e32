// Differential kernel-backend harness (DESIGN §11). This is the contract
// that lets the simd and int8 backends exist at all:
//
//   * fp32 (scalar vs simd): bit-exact, element for element, at any thread
//     count — asserted over 280 seeded fuzz cases spanning conv (grouped,
//     strided, padded, odd channel counts), fc (ragged and vector-aligned
//     dims), max/avg pool, LRN and ReLU;
//   * int8: within the per-layer analytic quantization-error bound
//     (src/nn/quant.h) of the fp32 reference, and bit-deterministic —
//     identical across thread counts, backends sharing the int8 kernels,
//     and batched vs per-sample execution;
//   * end to end: GoogLeNet / AgeNet / GenderNet under int8 reproduce the
//     fp32 top-1 class on seeded inputs within a documented max-abs output
//     delta (golden: tests/golden/int8_accuracy.txt, regenerate with
//     OFFLOAD_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/cost_model.h"
#include "src/nn/dense.h"
#include "src/nn/device.h"
#include "src/nn/kernels.h"
#include "src/nn/lrn.h"
#include "src/nn/models.h"
#include "src/nn/network.h"
#include "src/nn/partition.h"
#include "src/nn/pool.h"
#include "src/nn/quant.h"
#include "src/nn/tensor.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using offload::nn::KernelBackend;
using offload::nn::Shape;
using offload::nn::Tensor;

struct PoolGuard {
  ~PoolGuard() { offload::util::set_default_pool_threads(0); }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

Tensor run_layer(const offload::nn::Layer& layer, const Tensor& in,
                 KernelBackend k) {
  offload::nn::ScopedKernelBackend scoped(k);
  const Tensor* ins[] = {&in};
  return layer.forward(ins);
}

Tensor run_layer_batch(const offload::nn::Layer& layer, const Tensor& stacked,
                       std::int64_t batch, KernelBackend k) {
  offload::nn::ScopedKernelBackend scoped(k);
  const Tensor* ins[] = {&stacked};
  return layer.forward_batch(ins, batch);
}

std::int64_t draw(offload::util::Pcg32& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint32_t>(hi - lo + 1)));
}

// ---------------------------------------------------------------- registry

TEST(KernelRegistryTest, NamesAndParse) {
  using offload::nn::parse_kernel_backend;
  EXPECT_STREQ(offload::nn::kernel_backend_name(KernelBackend::kScalar),
               "scalar");
  EXPECT_STREQ(offload::nn::kernel_backend_name(KernelBackend::kSimd), "simd");
  EXPECT_STREQ(offload::nn::kernel_backend_name(KernelBackend::kInt8), "int8");
  EXPECT_EQ(parse_kernel_backend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(parse_kernel_backend("fp32"), KernelBackend::kScalar);
  EXPECT_EQ(parse_kernel_backend("simd"), KernelBackend::kSimd);
  EXPECT_EQ(parse_kernel_backend("vector"), KernelBackend::kSimd);
  EXPECT_EQ(parse_kernel_backend("int8"), KernelBackend::kInt8);
  EXPECT_EQ(parse_kernel_backend("quant"), KernelBackend::kInt8);
  EXPECT_FALSE(parse_kernel_backend("avx9000").has_value());
  EXPECT_FALSE(parse_kernel_backend("").has_value());
}

TEST(KernelRegistryTest, SetAndScopedRestore) {
  const KernelBackend before = offload::nn::active_kernel_backend();
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kSimd);
    EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kSimd);
    {
      offload::nn::ScopedKernelBackend inner(KernelBackend::kInt8);
      EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kInt8);
      EXPECT_TRUE(offload::nn::active_kernel_ops().quantized);
    }
    EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kSimd);
  }
  EXPECT_EQ(offload::nn::active_kernel_backend(), before);
}

TEST(KernelRegistryTest, TablesWellFormed) {
  for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd,
                          KernelBackend::kInt8}) {
    const offload::nn::KernelOps& ops = offload::nn::kernel_ops(k);
    EXPECT_EQ(ops.kind, k);
    EXPECT_STREQ(ops.name, offload::nn::kernel_backend_name(k));
    EXPECT_EQ(ops.quantized, k == KernelBackend::kInt8);
    EXPECT_NE(ops.gemm_tile, nullptr);
    EXPECT_NE(ops.gemm_tile_i8, nullptr);
    EXPECT_NE(ops.fc_rows, nullptr);
    EXPECT_NE(ops.fc_rows_i8, nullptr);
    EXPECT_NE(ops.relu_range, nullptr);
    EXPECT_NE(ops.pool_plane, nullptr);
    EXPECT_NE(ops.lrn_row, nullptr);
    // The layer's macro-tile geometry (64x512) must be divisible by every
    // micro-kernel tile so row/column blocking never splits a panel.
    EXPECT_EQ(64 % ops.gemm_mr, 0) << ops.name;
    EXPECT_EQ(512 % ops.gemm_nr, 0) << ops.name;
    EXPECT_GT(ops.fc_block, 0) << ops.name;
  }
  // int8 shares the simd table's fp32 kernels for the non-GEMM layers.
  const auto& simd = offload::nn::kernel_ops(KernelBackend::kSimd);
  const auto& int8 = offload::nn::kernel_ops(KernelBackend::kInt8);
  EXPECT_EQ(int8.pool_plane, simd.pool_plane);
  EXPECT_EQ(int8.lrn_row, simd.lrn_row);
  EXPECT_EQ(int8.relu_range, simd.relu_range);
}

// ------------------------------------------------------------ conv fuzz

struct ConvCase {
  std::int64_t C, H, W, M, K, S, P, G;
  std::string str() const {
    std::ostringstream os;
    os << "conv C=" << C << " HxW=" << H << "x" << W << " M=" << M
       << " K=" << K << " S=" << S << " P=" << P << " G=" << G;
    return os.str();
  }
};

ConvCase draw_conv_case(offload::util::Pcg32& rng, int idx) {
  ConvCase cc;
  cc.K = draw(rng, 1, 5);
  cc.S = draw(rng, 1, 3);
  cc.P = draw(rng, 0, cc.K - 1);
  if (idx % 4 == 1) {
    // Grouped (AlexNet/AgeNet style): G in [2,4], per-group channels small.
    cc.G = draw(rng, 2, 4);
    cc.C = cc.G * draw(rng, 1, 5);
    cc.M = cc.G * draw(rng, 1, 6);
  } else {
    cc.G = 1;
    cc.C = draw(rng, 1, 17);
    cc.M = draw(rng, 1, 33);  // crosses the 4- and 8-row panel boundaries
    if (idx % 4 == 3) {       // force odd channel counts
      cc.C |= 1;
      cc.M |= 1;
    }
  }
  cc.H = cc.K + draw(rng, 0, 13);  // guarantees at least one output row
  cc.W = cc.K + draw(rng, 0, 13);
  return cc;
}

offload::nn::ConvConfig to_config(const ConvCase& cc) {
  offload::nn::ConvConfig cfg;
  cfg.in_channels = cc.C;
  cfg.out_channels = cc.M;
  cfg.kernel = cc.K;
  cfg.stride = cc.S;
  cfg.pad = cc.P;
  cfg.groups = cc.G;
  return cfg;
}

// 96 cases x {scalar@4, simd@1, simd@4} against scalar@1: backend AND
// thread-count invariance in one sweep.
TEST(ConvFuzzTest, SimdMatchesScalarBitExact) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0xC04Fu);
  for (int idx = 0; idx < 96; ++idx) {
    const ConvCase cc = draw_conv_case(rng, idx);
    SCOPED_TRACE(cc.str() + " [case " + std::to_string(idx) + "]");
    offload::nn::ConvLayer layer("c", to_config(cc));
    offload::util::Pcg32 prng(1000 + idx);
    layer.init_params(prng);
    const Tensor in = Tensor::random_uniform({cc.C, cc.H, cc.W}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kScalar)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
  }
}

// 48 cases: int8 stays inside the analytic per-layer quantization bound of
// the fp32 reference and is bit-deterministic across thread counts.
TEST(ConvFuzzTest, Int8WithinQuantBound) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0x18C0u);
  for (int idx = 0; idx < 48; ++idx) {
    const ConvCase cc = draw_conv_case(rng, idx);
    SCOPED_TRACE(cc.str() + " [case " + std::to_string(idx) + "]");
    offload::nn::ConvLayer layer("c", to_config(cc));
    offload::util::Pcg32 prng(2000 + idx);
    layer.init_params(prng);
    const Tensor in = Tensor::random_uniform({cc.C, cc.H, cc.W}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    const Tensor q1 = run_layer(layer, in, KernelBackend::kInt8);
    offload::util::set_default_pool_threads(4);
    const Tensor q4 = run_layer(layer, in, KernelBackend::kInt8);
    EXPECT_TRUE(bit_equal(q1, q4)) << "int8 must be thread-invariant";

    const float w_amax = offload::nn::max_abs(layer.weights().data());
    const float x_amax = offload::nn::max_abs(in.data());
    const std::int64_t depth = (cc.C / cc.G) * cc.K * cc.K;
    const float bound = offload::nn::int8_error_bound(depth, w_amax, x_amax);
    EXPECT_LE(Tensor::max_abs_diff(ref, q1), bound);
  }
}

// -------------------------------------------------------------- fc fuzz

std::int64_t draw_fc_dim(offload::util::Pcg32& rng, int idx,
                         std::int64_t cap) {
  // Half the draws hit vector-critical dims (panel edges, lane multiples),
  // half are free-range (ragged blocks, scalar tails).
  static constexpr std::int64_t kEdge[] = {1,  3,  7,  8,  15, 16, 17, 24,
                                           31, 32, 33, 48, 64, 100, 128};
  if (idx % 2 == 0) {
    return kEdge[rng.next_below(sizeof(kEdge) / sizeof(kEdge[0]))];
  }
  return draw(rng, 1, cap);
}

TEST(FcFuzzTest, SimdMatchesScalarBitExact) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0xFCFCu);
  for (int idx = 0; idx < 40; ++idx) {
    const std::int64_t in_dim = draw_fc_dim(rng, idx, 150);
    const std::int64_t out_dim = draw_fc_dim(rng, idx + 1, 70);
    SCOPED_TRACE("fc " + std::to_string(in_dim) + "->" +
                 std::to_string(out_dim) + " [case " + std::to_string(idx) +
                 "]");
    offload::nn::FullyConnectedLayer layer("fc", in_dim, out_dim);
    offload::util::Pcg32 prng(3000 + idx);
    layer.init_params(prng);
    const Tensor in = Tensor::random_uniform({in_dim}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kScalar)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
  }
}

TEST(FcFuzzTest, Int8WithinQuantBound) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0x18FCu);
  for (int idx = 0; idx < 24; ++idx) {
    const std::int64_t in_dim = draw_fc_dim(rng, idx, 150);
    const std::int64_t out_dim = draw_fc_dim(rng, idx + 1, 70);
    SCOPED_TRACE("fc " + std::to_string(in_dim) + "->" +
                 std::to_string(out_dim) + " [case " + std::to_string(idx) +
                 "]");
    offload::nn::FullyConnectedLayer layer("fc", in_dim, out_dim);
    offload::util::Pcg32 prng(4000 + idx);
    layer.init_params(prng);
    const Tensor in = Tensor::random_uniform({in_dim}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    const Tensor q1 = run_layer(layer, in, KernelBackend::kInt8);
    offload::util::set_default_pool_threads(4);
    const Tensor q4 = run_layer(layer, in, KernelBackend::kInt8);
    EXPECT_TRUE(bit_equal(q1, q4));

    const float w_amax = offload::nn::max_abs(layer.weights().data());
    const float x_amax = offload::nn::max_abs(in.data());
    const float bound = offload::nn::int8_error_bound(in_dim, w_amax, x_amax);
    EXPECT_LE(Tensor::max_abs_diff(ref, q1), bound);
  }
}

// -------------------------------------------- pool / lrn / relu fuzz

// 36 cases: pooling is fp32 under every backend, so all three must agree
// bit-for-bit (the int8 table runs the simd pool kernel).
TEST(PoolFuzzTest, AllBackendsBitExact) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0xB001u);
  for (int idx = 0; idx < 36; ++idx) {
    offload::nn::PoolConfig cfg;
    cfg.kernel = draw(rng, 1, 4);
    cfg.stride = draw(rng, 1, 3);
    cfg.pad = draw(rng, 0, cfg.kernel - 1);
    const bool average = idx % 2 == 1;
    const std::int64_t C = draw(rng, 1, 9);
    const std::int64_t H = cfg.kernel + draw(rng, 0, 12);
    const std::int64_t W = cfg.kernel + draw(rng, 0, 12);
    SCOPED_TRACE((average ? "avg" : "max") +
                 std::string(" pool k=") + std::to_string(cfg.kernel) +
                 " s=" + std::to_string(cfg.stride) +
                 " p=" + std::to_string(cfg.pad) + " C=" + std::to_string(C) +
                 " HxW=" + std::to_string(H) + "x" + std::to_string(W) +
                 " [case " + std::to_string(idx) + "]");
    offload::nn::PoolLayer layer("p", cfg, average);
    offload::util::Pcg32 prng(5000 + idx);
    const Tensor in = Tensor::random_uniform({C, H, W}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kInt8)));
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kScalar)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
  }
}

// 24 cases: the LRN square-sum runs in double precision (products of
// float-valued doubles are exact), so vectorization cannot change a bit.
TEST(LrnFuzzTest, AllBackendsBitExact) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0x14A4u);
  for (int idx = 0; idx < 24; ++idx) {
    offload::nn::LrnConfig cfg;
    cfg.local_size = idx % 2 == 0 ? 5 : 3;
    const std::int64_t C = draw(rng, 1, 21);
    const std::int64_t H = draw(rng, 1, 9);
    const std::int64_t W = draw(rng, 1, 13);  // covers W<4 scalar tails
    SCOPED_TRACE("lrn n=" + std::to_string(cfg.local_size) +
                 " C=" + std::to_string(C) + " HxW=" + std::to_string(H) +
                 "x" + std::to_string(W) + " [case " + std::to_string(idx) +
                 "]");
    offload::nn::LrnLayer layer("l", cfg);
    offload::util::Pcg32 prng(6000 + idx);
    const Tensor in = Tensor::random_uniform({C, H, W}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kInt8)));
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
  }
}

// 12 cases: sizes crossing the 8-lane vector width and the parallel grain.
TEST(ReluFuzzTest, AllBackendsBitExact) {
  PoolGuard guard;
  offload::util::Pcg32 rng(0x4E10u);
  for (int idx = 0; idx < 12; ++idx) {
    const std::int64_t n = draw(rng, 1, 100'000);
    SCOPED_TRACE("relu n=" + std::to_string(n) + " [case " +
                 std::to_string(idx) + "]");
    offload::nn::ReluLayer layer("r");
    offload::util::Pcg32 prng(7000 + idx);
    const Tensor in = Tensor::random_uniform({n}, prng);

    offload::util::set_default_pool_threads(1);
    const Tensor ref = run_layer(layer, in, KernelBackend::kScalar);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kInt8)));
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
  }
}

// ------------------------------------------- int8 ops-table cross-checks
//
// The backend enum cannot select "int8 over scalar kernels" at layer level,
// so the scalar-vs-simd agreement of the *quantized* kernels is pinned here
// directly against the ops tables, on identical packed buffers.

std::int8_t draw_i8(offload::util::Pcg32& rng) {
  return static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
}

TEST(OpsTableTest, Int8GemmTileBitExactAcrossBackends) {
  const auto& sc = offload::nn::kernel_ops(KernelBackend::kScalar);
  const auto& qt = offload::nn::kernel_ops(KernelBackend::kInt8);
  offload::util::Pcg32 rng(0x8EAAu);
  for (int it = 0; it < 8; ++it) {
    const std::int64_t kd = draw(rng, 1, 60);
    const std::int64_t m = draw(rng, 1, 30);
    const std::int64_t n = draw(rng, 1, 40);
    SCOPED_TRACE("igemm kd=" + std::to_string(kd) + " m=" + std::to_string(m) +
                 " n=" + std::to_string(n));
    std::vector<std::int8_t> w(static_cast<std::size_t>(m * kd));
    std::vector<std::int8_t> b(static_cast<std::size_t>(kd * n));
    for (auto& v : w) v = draw_i8(rng);
    for (auto& v : b) v = draw_i8(rng);
    constexpr std::int64_t kMRq = 4;  // int8 panels always pack mr=4
    const std::int64_t tiles = (m + kMRq - 1) / kMRq;
    std::vector<std::int8_t> panels(
        static_cast<std::size_t>(tiles * kd * kMRq), 0);
    offload::nn::pack_gemm_panels_i8(w.data(), 1, m, kd, kMRq, panels.data());
    std::vector<float> bias(static_cast<std::size_t>(m));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float dequant = static_cast<float>(rng.uniform(1e-4, 1e-2));
    std::vector<float> c1(static_cast<std::size_t>(m * n), -1.0f);
    std::vector<float> c2(static_cast<std::size_t>(m * n), -2.0f);
    sc.gemm_tile_i8(panels.data(), kd, b.data(), n, bias.data(), dequant,
                    c1.data(), m, 0, m, 0, n);
    qt.gemm_tile_i8(panels.data(), kd, b.data(), n, bias.data(), dequant,
                    c2.data(), m, 0, m, 0, n);
    EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)), 0);
  }
}

TEST(OpsTableTest, Int8FcRowsBitExactAcrossBackends) {
  const auto& sc = offload::nn::kernel_ops(KernelBackend::kScalar);
  const auto& qt = offload::nn::kernel_ops(KernelBackend::kInt8);
  offload::util::Pcg32 rng(0x8FCCu);
  for (int it = 0; it < 8; ++it) {
    const std::int64_t in = draw(rng, 1, 120);
    const std::int64_t out = draw(rng, 1, 50);
    SCOPED_TRACE("ifc " + std::to_string(in) + "->" + std::to_string(out));
    std::vector<std::int8_t> qw(static_cast<std::size_t>(out * in));
    std::vector<std::int8_t> qx(static_cast<std::size_t>(in));
    for (auto& v : qw) v = draw_i8(rng);
    for (auto& v : qx) v = draw_i8(rng);
    std::vector<float> bias(static_cast<std::size_t>(out));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float dequant = static_cast<float>(rng.uniform(1e-4, 1e-2));
    std::vector<float> y1(static_cast<std::size_t>(out), -1.0f);
    std::vector<float> y2(static_cast<std::size_t>(out), -2.0f);
    sc.fc_rows_i8(qw.data(), in, qx.data(), bias.data(), dequant, y1.data(), 0,
                  out);
    qt.fc_rows_i8(qw.data(), in, qx.data(), bias.data(), dequant, y2.data(), 0,
                  out);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)), 0);
  }
}

// --------------------------------------------------- batched == stacked

TEST(BatchConsistencyTest, ConvBatchedMatchesPerSampleEveryBackend) {
  PoolGuard guard;
  offload::util::set_default_pool_threads(4);
  ConvCase cc{10, 9, 11, 9, 3, 2, 1, 1};  // odd channels, strided, padded
  offload::nn::ConvLayer layer("c", to_config(cc));
  offload::util::Pcg32 prng(8100);
  layer.init_params(prng);
  std::vector<Tensor> samples;
  for (int b = 0; b < 3; ++b) {
    samples.push_back(Tensor::random_uniform({cc.C, cc.H, cc.W}, prng));
  }
  const Tensor stacked = Tensor::stack(samples);
  for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd,
                          KernelBackend::kInt8}) {
    SCOPED_TRACE(offload::nn::kernel_backend_name(k));
    const Tensor batched = run_layer_batch(layer, stacked, 3, k);
    for (int b = 0; b < 3; ++b) {
      EXPECT_TRUE(bit_equal(batched.sample(b), run_layer(layer, samples[b], k)))
          << "sample " << b;
    }
  }
}

TEST(BatchConsistencyTest, FcBatchedMatchesPerSampleEveryBackend) {
  PoolGuard guard;
  offload::util::set_default_pool_threads(4);
  offload::nn::FullyConnectedLayer layer("fc", 77, 23);  // ragged both dims
  offload::util::Pcg32 prng(8200);
  layer.init_params(prng);
  std::vector<Tensor> samples;
  for (int b = 0; b < 3; ++b) {
    samples.push_back(Tensor::random_uniform({std::int64_t{77}}, prng));
  }
  const Tensor stacked = Tensor::stack(samples);
  for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd,
                          KernelBackend::kInt8}) {
    SCOPED_TRACE(offload::nn::kernel_backend_name(k));
    const Tensor batched = run_layer_batch(layer, stacked, 3, k);
    for (int b = 0; b < 3; ++b) {
      EXPECT_TRUE(bit_equal(batched.sample(b), run_layer(layer, samples[b], k)))
          << "sample " << b;
    }
  }
}

// --------------------------------------------------- whole-network gates

TEST(NetworkBackendTest, TinyCnnFp32BackendsBitExact) {
  PoolGuard guard;
  auto net = offload::nn::build_tiny_cnn(17);
  offload::util::Pcg32 rng(8300);
  const Tensor in = Tensor::random_uniform({3, 32, 32}, rng);

  offload::util::set_default_pool_threads(1);
  Tensor ref, simd1, scalar4, simd4;
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kScalar);
    ref = net->forward(in);
  }
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kSimd);
    simd1 = net->forward(in);
  }
  offload::util::set_default_pool_threads(4);
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kScalar);
    scalar4 = net->forward(in);
  }
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kSimd);
    simd4 = net->forward(in);
  }
  EXPECT_TRUE(bit_equal(ref, simd1));
  EXPECT_TRUE(bit_equal(ref, scalar4));
  EXPECT_TRUE(bit_equal(ref, simd4));
}

TEST(NetworkBackendTest, TinyCnnBatchedMatchesPerSampleEveryBackend) {
  PoolGuard guard;
  offload::util::set_default_pool_threads(4);
  auto net = offload::nn::build_tiny_cnn(17);
  offload::util::Pcg32 rng(8400);
  std::vector<Tensor> samples;
  for (int b = 0; b < 2; ++b) {
    samples.push_back(Tensor::random_uniform({3, 32, 32}, rng));
  }
  const Tensor stacked = Tensor::stack(samples);
  for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd,
                          KernelBackend::kInt8}) {
    SCOPED_TRACE(offload::nn::kernel_backend_name(k));
    offload::nn::ScopedKernelBackend scoped(k);
    const Tensor batched = net->forward_batch(stacked);
    for (int b = 0; b < 2; ++b) {
      EXPECT_TRUE(
          bit_equal(batched.sample(b), net->forward(samples[b])))
          << "sample " << b;
    }
  }
}

// ------------------------------------------------ E2E int8 accuracy gate
//
// The documented end-to-end bound: over the three benchmark models (final
// layer = softmax, outputs in [0,1]), int8 may move any class probability
// by at most this much. Measured max on the seeded inputs is ~2e-3; the
// gate leaves ~5x headroom for libm variation in pow/exp.
constexpr float kE2eDeltaBound = 1e-2f;

TEST(Int8AccuracyTest, BenchmarkModelsMatchFp32Top1) {
  PoolGuard guard;
  offload::util::set_default_pool_threads(4);
  std::ostringstream report;
  for (const auto& bm : offload::nn::benchmark_models()) {
    if (std::string(bm.app_name) == "TinyCNN") continue;
    SCOPED_TRACE(bm.app_name);
    auto net = bm.build(bm.seed);
    offload::util::Pcg32 rng(bm.seed ^ 0x5EEDu);
    const Tensor in =
        Tensor::random_uniform({3, bm.input_hw, bm.input_hw}, rng);
    Tensor fp32, int8;
    {
      offload::nn::ScopedKernelBackend scoped(KernelBackend::kScalar);
      fp32 = net->forward(in);
    }
    {
      offload::nn::ScopedKernelBackend scoped(KernelBackend::kInt8);
      int8 = net->forward(in);
    }
    const float delta = Tensor::max_abs_diff(fp32, int8);
    EXPECT_LE(delta, kE2eDeltaBound);
    EXPECT_EQ(fp32.argmax(), int8.argmax());
    report << bm.app_name << " fp32_top1=" << fp32.argmax()
           << " int8_top1=" << int8.argmax() << "\n";
  }
  // Golden pins the per-model top-1 indices (libm-stable integers, not raw
  // float deltas) so a quantization regression that flips the prediction
  // fails even if it slips under the delta bound.
  const std::string golden_path =
      std::string(KB_GOLDEN_DIR) + "/int8_accuracy.txt";
  if (std::getenv("OFFLOAD_UPDATE_GOLDEN")) {
    std::ofstream(golden_path) << report.str();
  } else {
    std::ifstream f(golden_path);
    ASSERT_TRUE(f.good()) << "missing golden " << golden_path
                          << " (regenerate with OFFLOAD_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(report.str(), want.str());
  }
}

// --------------------------------------------- device / partition effect

TEST(DeviceBackendTest, ForKernelBackendScalarIsIdentity) {
  const auto base = offload::nn::DeviceProfile::edge_server();
  const auto same = base.for_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(same.name, base.name);
  EXPECT_EQ(same.gflops, base.gflops);
}

TEST(DeviceBackendTest, ForKernelBackendScalesDenseAndLightLayers) {
  using offload::nn::LayerKind;
  const auto base = offload::nn::DeviceProfile::edge_server();
  const auto simd = base.for_kernel_backend(KernelBackend::kSimd);
  const auto int8 = base.for_kernel_backend(KernelBackend::kInt8);
  const auto kind = [](LayerKind k) { return static_cast<std::size_t>(k); };
  EXPECT_DOUBLE_EQ(simd.gflops[kind(LayerKind::kConv)],
                   base.gflops[kind(LayerKind::kConv)] * base.simd_dense_gain);
  EXPECT_DOUBLE_EQ(
      simd.gflops[kind(LayerKind::kMaxPool)],
      base.gflops[kind(LayerKind::kMaxPool)] * base.simd_light_gain);
  EXPECT_DOUBLE_EQ(
      int8.gflops[kind(LayerKind::kFullyConnected)],
      base.gflops[kind(LayerKind::kFullyConnected)] * base.int8_dense_gain);
  EXPECT_EQ(simd.name, base.name + "+simd");
  EXPECT_EQ(int8.name, base.name + "+int8");
  EXPECT_GT(base.int8_dense_gain, base.simd_dense_gain);
  EXPECT_LT(base.int8_fidelity, 1.0);
  // The WebGL profile models GPU execution — CPU backends change nothing.
  const auto gpu = offload::nn::DeviceProfile::edge_server_gpu();
  EXPECT_EQ(gpu.for_kernel_backend(KernelBackend::kInt8).gflops, gpu.gflops);
}

// A quantized client runs its front layers faster, so the optimal cut
// moves deeper into the network (or stays put) and the predicted total
// drops — the signal ctrl uses to re-pick the partition per backend.
TEST(DeviceBackendTest, Int8ClientShiftsPartitionTowardClient) {
  auto net = offload::nn::build_googlenet(7);
  const offload::nn::Network* nets[] = {net.get()};
  const auto client = offload::nn::DeviceProfile::embedded_client();
  const auto server = offload::nn::DeviceProfile::edge_server();
  const auto client_model =
      offload::nn::LayerCostModel::profile_device(client, nets);
  const auto client_i8 = offload::nn::LayerCostModel::profile_device(
      client.for_kernel_backend(KernelBackend::kInt8), nets);
  const auto server_model =
      offload::nn::LayerCostModel::profile_device(server, nets);

  EXPECT_LT(client_i8.predict_network(*net),
            client_model.predict_network(*net));

  const offload::nn::Partitioner base(*net, client_model, server_model);
  const offload::nn::Partitioner quant(*net, client_i8, server_model);
  const double bw = 10e6;  // 10 Mbps uplink, 20 ms RTT
  const auto best_base = base.best(bw, 0.02);
  const auto best_quant = quant.best(bw, 0.02);
  EXPECT_GE(best_quant.cut, best_base.cut);
  EXPECT_LE(best_quant.total_s(), best_base.total_s());
}

}  // namespace
