// Differential kernel-table harness (DESIGN §11). Production runs the
// CPUID-picked simd table; the scalar table is the bitwise reference:
//
//   * per layer: simd is bit-exact to scalar, element for element, at any
//     thread count — asserted over seeded fuzz cases spanning conv
//     (grouped, strided, padded, odd channel counts), fc (ragged and
//     vector-aligned dims), max/avg pool, LRN and ReLU;
//   * end to end: TinyCNN, GoogLeNet, AgeNet and GenderNet forwards under
//     simd are bit-equal to scalar on seeded inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/kernels.h"
#include "src/nn/lrn.h"
#include "src/nn/models.h"
#include "src/nn/network.h"
#include "src/nn/pool.h"
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

std::int64_t draw(offload::util::Pcg32& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint32_t>(hi - lo + 1)));
}

// ---------------------------------------------------------------- registry

TEST(KernelRegistryTest, Names) {
  EXPECT_STREQ(offload::nn::kernel_backend_name(KernelBackend::kScalar),
               "scalar");
  EXPECT_STREQ(offload::nn::kernel_backend_name(KernelBackend::kSimd), "simd");
}

TEST(KernelRegistryTest, SetAndScopedRestore) {
  const KernelBackend before = offload::nn::active_kernel_backend();
  {
    offload::nn::ScopedKernelBackend scoped(KernelBackend::kSimd);
    EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kSimd);
    {
      offload::nn::ScopedKernelBackend inner(KernelBackend::kScalar);
      EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kScalar);
      EXPECT_EQ(offload::nn::active_kernel_ops().kind, KernelBackend::kScalar);
    }
    EXPECT_EQ(offload::nn::active_kernel_backend(), KernelBackend::kSimd);
  }
  EXPECT_EQ(offload::nn::active_kernel_backend(), before);
}

TEST(KernelRegistryTest, TablesWellFormed) {
  for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd}) {
    const offload::nn::KernelOps& ops = offload::nn::kernel_ops(k);
    EXPECT_EQ(ops.kind, k);
    EXPECT_STREQ(ops.name, offload::nn::kernel_backend_name(k));
    EXPECT_NE(ops.gemm_tile, nullptr);
    EXPECT_NE(ops.pool_plane, nullptr);
    EXPECT_NE(ops.lrn_row, nullptr);
    // The layer's macro-tile geometry (64x512) must be divisible by every
    // micro-kernel tile so row/column blocking never splits a panel.
    EXPECT_EQ(64 % ops.gemm_mr, 0) << ops.name;
    EXPECT_EQ(512 % ops.gemm_nr, 0) << ops.name;
  }
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

// -------------------------------------------- pool / lrn / relu fuzz

// 36 cases: both tables must agree bit-for-bit.
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
    offload::util::set_default_pool_threads(4);
    EXPECT_TRUE(bit_equal(ref, run_layer(layer, in, KernelBackend::kSimd)));
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

// Whole-model gate on the production table: a full forward of every
// benchmark model under simd must be bit-equal to the scalar reference.
TEST(NetworkBackendTest, BenchmarkModelsSimdMatchScalar) {
  PoolGuard guard;
  offload::util::set_default_pool_threads(4);
  for (const auto& bm : offload::nn::benchmark_models()) {
    SCOPED_TRACE(bm.app_name);
    auto net = bm.build(bm.seed);
    offload::util::Pcg32 rng(bm.seed ^ 0x5EEDu);
    const Tensor in =
        Tensor::random_uniform({3, bm.input_hw, bm.input_hw}, rng);
    Tensor ref, simd;
    {
      offload::nn::ScopedKernelBackend scoped(KernelBackend::kScalar);
      ref = net->forward(in);
    }
    {
      offload::nn::ScopedKernelBackend scoped(KernelBackend::kSimd);
      simd = net->forward(in);
    }
    EXPECT_TRUE(bit_equal(ref, simd));
  }
}

}  // namespace
