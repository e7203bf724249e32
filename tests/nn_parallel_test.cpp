// Tests for the parallel kernel engine: thread-pool semantics, bit-exact
// results at any thread count (the pool partitions disjoint output ranges
// and every element is accumulated in a fixed order), grouped convolution
// against a naive reference, and the zero-allocation steady state of the
// scratch arena.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/lrn.h"
#include "src/nn/model_io.h"
#include "src/nn/models.h"
#include "src/nn/network.h"
#include "src/nn/pool.h"
#include "src/util/arena.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using namespace offload;
using nn::Shape;
using nn::Tensor;

/// Restores the default pool to the environment-derived size on scope exit
/// so tests do not leak thread-count overrides into each other.
struct PoolGuard {
  ~PoolGuard() { util::set_default_pool_threads(0); }
};

// ---------------------------------------------------------------------------
// ThreadPool semantics

TEST(ThreadPool, CoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  for (std::int64_t n : {0, 1, 7, 64, 1000, 4097}) {
    for (std::int64_t grain : {1, 3, 64, 100000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      auto mark = [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      };
      pool.parallel_for(0, n, grain, mark);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "n=" << n << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, SizeOneRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  auto check = [&](std::int64_t, std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  pool.parallel_for(0, 100, 1, check);
}

TEST(ThreadPool, PropagatesException) {
  util::ThreadPool pool(4);
  auto thrower = [&](std::int64_t lo, std::int64_t) {
    if (lo >= 0) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.parallel_for(0, 100, 1, thrower), std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<std::int64_t> sum{0};
  auto add = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  };
  pool.parallel_for(0, 10, 1, add);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedCallRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  auto inner = [&](std::int64_t l2, std::int64_t h2) {
    for (std::int64_t j = l2; j < h2; ++j) total.fetch_add(j);
  };
  auto outer = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // A kernel calling parallel_for from inside a chunk must not block
      // on the already-busy pool.
      pool.parallel_for(0, 10, 1, inner);
    }
  };
  pool.parallel_for(0, 8, 1, outer);
  EXPECT_EQ(total.load(), 8 * 45);
}

TEST(ThreadPool, DefaultPoolResize) {
  PoolGuard guard;
  util::set_default_pool_threads(3);
  EXPECT_EQ(util::default_pool().size(), 3u);
  util::set_default_pool_threads(1);
  EXPECT_EQ(util::default_pool().size(), 1u);
}

// ---------------------------------------------------------------------------
// Bit-exactness: 4 threads vs the exact sequential fallback

Tensor run_layer(const nn::Layer& layer, const Tensor& in) {
  const Tensor* ins[] = {&in};
  return layer.forward(ins);
}

/// Runs `layer` on `in` at 1 and 4 threads and requires bitwise-identical
/// output.
void expect_thread_invariant(const nn::Layer& layer, const Tensor& in) {
  PoolGuard guard;
  util::set_default_pool_threads(1);
  Tensor seq = run_layer(layer, in);
  util::set_default_pool_threads(4);
  Tensor par = run_layer(layer, in);
  ASSERT_EQ(seq.shape(), par.shape()) << layer.config_str();
  ASSERT_EQ(std::memcmp(seq.data().data(), par.data().data(),
                        seq.data().size() * sizeof(float)),
            0)
      << "thread-count-dependent output for " << layer.config_str();
}

TEST(ParallelBitExact, ConvRandomizedShapes) {
  util::Pcg32 rng(77);
  struct Case {
    std::int64_t in_ch, out_ch, k, stride, pad, groups, hw;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 1, 1, 17},   {4, 6, 5, 2, 2, 2, 23},
      {8, 8, 1, 1, 0, 1, 31},   {6, 12, 3, 2, 0, 3, 19},
      {16, 16, 3, 1, 1, 4, 14}, {5, 10, 7, 3, 3, 1, 29},
      {12, 8, 2, 2, 1, 4, 16},  {1, 4, 4, 1, 2, 1, 9},
  };
  for (const Case& c : cases) {
    nn::ConvLayer conv("c", {.in_channels = c.in_ch, .out_channels = c.out_ch,
                             .kernel = c.k, .stride = c.stride, .pad = c.pad,
                             .groups = c.groups});
    conv.init_params(rng);
    Tensor in = Tensor::random_uniform(Shape{c.in_ch, c.hw, c.hw}, rng);
    expect_thread_invariant(conv, in);
  }
}

TEST(ParallelBitExact, PoolFcLrnRelu) {
  util::Pcg32 rng(78);
  Tensor image = Tensor::random_uniform(Shape{13, 27, 27}, rng);

  nn::PoolLayer maxpool("p", {.kernel = 3, .stride = 2, .pad = 1}, false);
  expect_thread_invariant(maxpool, image);

  nn::PoolLayer avgpool("a", {.kernel = 2, .stride = 2, .pad = 0}, true);
  expect_thread_invariant(avgpool, image);

  nn::LrnLayer lrn("n", nn::LrnConfig{});
  expect_thread_invariant(lrn, image);

  nn::ReluLayer relu("r");
  expect_thread_invariant(relu, image);

  nn::FullyConnectedLayer fc("fc", 13 * 27 * 27, 37);
  fc.init_params(rng);
  expect_thread_invariant(fc, image.reshaped(Shape{13 * 27 * 27}));
}

TEST(ParallelBitExact, WholeNetworkForward) {
  PoolGuard guard;
  auto net = nn::build_agenet(5);
  util::Pcg32 rng(79);
  Tensor in = Tensor::random_uniform(Shape{3, 227, 227}, rng, 0.0f, 1.0f);
  util::set_default_pool_threads(1);
  Tensor seq = net->forward(in);
  util::set_default_pool_threads(4);
  Tensor par = net->forward(in);
  ASSERT_EQ(std::memcmp(seq.data().data(), par.data().data(),
                        seq.data().size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Grouped convolution against a naive reference

Tensor reference_grouped_conv(const Tensor& in, const Tensor& weights,
                              const Tensor& bias, const nn::ConvConfig& cfg) {
  const std::int64_t C = in.shape()[0], H = in.shape()[1], W = in.shape()[2];
  const std::int64_t K = cfg.kernel, S = cfg.stride, P = cfg.pad;
  const std::int64_t G = cfg.groups;
  const std::int64_t Cg = C / G, Mg = cfg.out_channels / G;
  const std::int64_t OH = (H + 2 * P - K) / S + 1;
  const std::int64_t OW = (W + 2 * P - K) / S + 1;
  Tensor out(Shape{cfg.out_channels, OH, OW});
  for (std::int64_t m = 0; m < cfg.out_channels; ++m) {
    const std::int64_t g = m / Mg;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        double acc = bias[m];
        for (std::int64_t c = 0; c < Cg; ++c) {
          for (std::int64_t kh = 0; kh < K; ++kh) {
            for (std::int64_t kw = 0; kw < K; ++kw) {
              const std::int64_t ih = oh * S - P + kh;
              const std::int64_t iw = ow * S - P + kw;
              if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
              const float a = in.at(g * Cg + c, ih, iw);
              const float b =
                  weights[((m * Cg + c) * K + kh) * K + kw];
              acc += static_cast<double>(a) * static_cast<double>(b);
            }
          }
        }
        out.at(m, oh, ow) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

TEST(GroupedConv, MatchesNaiveReference) {
  util::Pcg32 rng(80);
  for (std::int64_t groups : {1, 2, 4}) {
    nn::ConvConfig cfg{.in_channels = 8, .out_channels = 12, .kernel = 3,
                       .stride = 2, .pad = 1, .groups = groups};
    nn::ConvLayer conv("c", cfg);
    conv.init_params(rng);
    Tensor in = Tensor::random_uniform(Shape{8, 15, 15}, rng);
    Tensor fast = run_layer(conv, in);
    Tensor slow = reference_grouped_conv(in, conv.weights(), conv.bias(), cfg);
    ASSERT_EQ(fast.shape(), slow.shape());
    for (std::int64_t i = 0; i < fast.elements(); ++i) {
      ASSERT_NEAR(fast[i], slow[i], 1e-4) << "groups=" << groups << " i=" << i;
    }
  }
}

TEST(GroupedConv, RejectsIndivisibleChannels) {
  EXPECT_THROW(nn::ConvLayer("c", {.in_channels = 6, .out_channels = 8,
                                   .kernel = 3, .groups = 4}),
               std::invalid_argument);
}

TEST(GroupedConv, DescriptionRoundTrip) {
  nn::Network net("g");
  net.add(std::make_unique<nn::InputLayer>("data", Shape{8, 12, 12}));
  net.add(std::make_unique<nn::ConvLayer>(
      "conv_g", nn::ConvConfig{.in_channels = 8, .out_channels = 8,
                               .kernel = 3, .stride = 1, .pad = 1,
                               .groups = 2}));
  net.init_params(3);
  const std::string desc = nn::save_description(net);
  EXPECT_NE(desc.find("g=2"), std::string::npos) << desc;
  auto parsed = nn::parse_description(desc);
  const auto& conv =
      dynamic_cast<const nn::ConvLayer&>(parsed->layer(1));
  EXPECT_EQ(conv.config().groups, 2);

  // Weights survive the save/load cycle and produce identical outputs.
  util::Bytes blob = nn::save_weights(net);
  nn::load_weights(*parsed, blob);
  util::Pcg32 rng(81);
  Tensor in = Tensor::random_uniform(Shape{8, 12, 12}, rng);
  Tensor a = net.forward(in);
  Tensor b = parsed->forward(in);
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state

TEST(ScratchArena, FrameRewindReusesBlock) {
  util::ScratchArena arena;
  std::uint64_t after_warmup = 0;
  {
    util::ScratchArena::Frame f(arena);
    f.floats(1000);
    f.floats(1024);
  }
  {
    util::ScratchArena::Frame f(arena);
    f.floats(500);
    f.floats(800);
    after_warmup = arena.block_allocations();
  }
  for (int i = 0; i < 10; ++i) {
    util::ScratchArena::Frame f(arena);
    float* p = f.floats(1000);
    p[0] = 1.0f;  // must be writable
    f.floats(1024);
  }
  EXPECT_EQ(arena.block_allocations(), after_warmup);
}

TEST(ScratchArena, AlignedAllocations) {
  util::ScratchArena arena;
  util::ScratchArena::Frame f(arena);
  for (std::size_t n : {1u, 3u, 100u, 1000u}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.floats(n)) % 64, 0u);
  }
}

// ---------------------------------------------------------------------------
// Synthetic weights: one uniform stream over every layer's parameters, filled
// block-parallel by jump-ahead. The CRC-32 of each model's saved weights is
// pinned to the value of the serial fill.

TEST(SyntheticWeights, BitIdenticalAtAnyThreadCount) {
  PoolGuard guard;
  struct Pinned {
    std::unique_ptr<nn::Network> (*build)(std::uint64_t);
    std::uint64_t seed;
    std::uint32_t crc;
  };
  const Pinned models[] = {
      {nn::build_googlenet, 7, 0x6f5dd579u},
      {nn::build_agenet, 11, 0xfdf47b4au},
      {nn::build_gendernet, 13, 0xb7532b98u},
      {nn::build_tiny_cnn_default, 17, 0xf8bca8deu},
  };
  for (std::size_t threads : {1, 2, 4}) {
    util::set_default_pool_threads(threads);
    for (const Pinned& m : models) {
      const auto net = m.build(m.seed);
      EXPECT_EQ(util::crc32(nn::save_weights(*net)), m.crc)
          << net->name() << " at " << threads << " threads";
    }
  }
}

TEST(ZeroAlloc, SteadyStateForwardDoesNotAllocateScratch) {
  PoolGuard guard;
  // Single-threaded so all kernel scratch comes from this thread's arena.
  util::set_default_pool_threads(1);
  auto net = nn::build_tiny_cnn(9);
  util::Pcg32 rng(82);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  // Warm-up: grows the arena to the network's peak scratch demand and
  // packs the conv weights.
  (void)net->forward(in);
  (void)net->forward(in);
  const std::uint64_t blocks = util::ScratchArena::local().block_allocations();
  for (int i = 0; i < 5; ++i) (void)net->forward(in);
  EXPECT_EQ(util::ScratchArena::local().block_allocations(), blocks)
      << "steady-state forward passes must not allocate scratch blocks";
}

}  // namespace
