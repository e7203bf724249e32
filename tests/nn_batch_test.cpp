// Tests for batched NN execution: Tensor::stack/sample round trips, and
// the contract behind the one batched forward path — a batched forward is
// bit-identical to forwarding every sample alone and stacking the results,
// at any batch size and any thread count. A single sample runs the same
// code as a batch of 1, so these tests pin batch-offset indexing at B > 1;
// nn_reference_test checks the kernels themselves against naive loops.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/models.h"
#include "src/nn/network.h"
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

std::vector<Tensor> random_samples(const Shape& shape, int n,
                                   std::uint64_t seed) {
  util::Pcg32 rng(seed, 0xba7c4);
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    samples.push_back(Tensor::random_uniform(shape, rng, -1.0f, 1.0f));
  }
  return samples;
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           static_cast<std::size_t>(a.bytes())))
      << what << ": bits differ";
}

// ---------------------------------------------------------------------------
// Tensor::stack / Tensor::sample

TEST(TensorBatch, StackSampleRoundTrip) {
  auto samples = random_samples(Shape{3, 4, 5}, 4, 11);
  Tensor batched = Tensor::stack(samples);
  EXPECT_EQ(batched.shape(), (Shape{4, 3, 4, 5}));
  for (int b = 0; b < 4; ++b) {
    expect_bit_identical(batched.sample(b),
                         samples[static_cast<std::size_t>(b)],
                         "sample " + std::to_string(b));
  }
}

TEST(TensorBatch, StackRejectsMismatchedShapes) {
  std::vector<Tensor> samples;
  samples.push_back(Tensor::zeros(Shape{2, 2}));
  samples.push_back(Tensor::zeros(Shape{2, 3}));
  EXPECT_THROW(Tensor::stack(samples), std::invalid_argument);
  const std::vector<Tensor> empty;
  EXPECT_THROW(Tensor::stack(empty), std::invalid_argument);
}

TEST(TensorBatch, SampleBoundsChecked) {
  Tensor batched = Tensor::zeros(Shape{2, 3, 3});
  EXPECT_NO_THROW(batched.sample(1));
  EXPECT_THROW(batched.sample(2), std::out_of_range);
  EXPECT_THROW(batched.sample(-1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Batched network forward == per-sample forward, bit for bit

void check_forward_batch(const nn::Network& net, const Shape& input_shape,
                         int batch, std::uint64_t seed) {
  auto samples = random_samples(input_shape, batch, seed);
  std::vector<Tensor> singles;
  singles.reserve(samples.size());
  for (const Tensor& s : samples) {
    singles.push_back(net.forward(s));
  }
  Tensor batched_out = net.forward_batch(Tensor::stack(samples));
  expect_bit_identical(batched_out, Tensor::stack(singles),
                       net.name() + " B=" + std::to_string(batch));
}

TEST(NetworkBatch, TinyCnnMatchesPerSampleAtEveryBatchSize) {
  auto net = nn::build_tiny_cnn(17);
  for (int batch : {1, 2, 3, 5}) {
    check_forward_batch(*net, Shape{3, 32, 32}, batch, 100 + batch);
  }
}

TEST(NetworkBatch, AgeNetMatchesPerSample) {
  // Conv (im2col+GEMM), pool, LRN, fc, dropout, softmax all on the batched
  // path of a real model.
  auto net = nn::build_agenet(11);
  check_forward_batch(*net, Shape{3, 227, 227}, 3, 7);
}

TEST(NetworkBatch, ThreadCountDoesNotChangeBatchedBits) {
  PoolGuard guard;
  auto net = nn::build_tiny_cnn(17);
  Tensor batched = Tensor::stack(random_samples(Shape{3, 32, 32}, 4, 21));

  util::set_default_pool_threads(1);
  Tensor sequential = net->forward_batch(batched);
  util::set_default_pool_threads(4);
  Tensor parallel = net->forward_batch(batched);
  expect_bit_identical(sequential, parallel, "1 thread vs 4 threads");
}

// ---------------------------------------------------------------------------
// Layer-level batched paths

TEST(LayerBatch, GroupedConvMatchesPerSample) {
  // No stock model uses groups > 1 on the batched path; pin it directly.
  nn::ConvConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 12;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.pad = 1;
  cfg.groups = 4;
  nn::ConvLayer conv("gconv", cfg);
  util::Pcg32 rng(3, 4);
  conv.init_params(rng);

  auto samples = random_samples(Shape{8, 9, 9}, 5, 31);
  std::vector<Tensor> singles;
  for (const Tensor& s : samples) {
    const Tensor* in[] = {&s};
    singles.push_back(conv.forward(in));
  }
  Tensor stacked = Tensor::stack(samples);
  const Tensor* bin[] = {&stacked};
  expect_bit_identical(conv.forward_batch(bin, 5), Tensor::stack(singles),
                       "grouped conv");
}

TEST(LayerBatch, SoftmaxNormalizesEachSample) {
  // Softmax must normalize per sample (one normalization per row), not
  // across the whole batch.
  nn::SoftmaxLayer softmax("prob");
  auto samples = random_samples(Shape{10}, 3, 41);
  std::vector<Tensor> singles;
  for (const Tensor& s : samples) {
    const Tensor* in[] = {&s};
    singles.push_back(softmax.forward(in));
  }
  Tensor stacked = Tensor::stack(samples);
  const Tensor* bin[] = {&stacked};
  Tensor out = softmax.forward_batch(bin, 3);
  expect_bit_identical(out, Tensor::stack(singles), "softmax batch");
  // Each sample must sum to 1 on its own.
  for (int b = 0; b < 3; ++b) {
    const Tensor row = out.sample(b);
    double sum = 0;
    for (float v : row.data()) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(LayerBatch, BatchDimMismatchThrows) {
  auto net = nn::build_tiny_cnn(17);
  Tensor bad = Tensor::zeros(Shape{3, 32, 32});  // rank 3: batch=3 inferred
  // Leading dim 3 is taken as batch; remaining {32,32} is not a valid
  // input sample shape.
  EXPECT_THROW(net->forward_batch(bad), std::invalid_argument);
}

}  // namespace
