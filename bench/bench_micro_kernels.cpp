// Scalar vs simd kernel throughput on the layer shapes that
// dominate the benchmark models (GoogLeNet inception convs and stem,
// AgeNet's grouped conv and 18816x512 fc, plus pool/relu/lrn planes and an
// odd-channel conv that exercises every panel edge path).
//
// Emits BENCH_micro_kernels.json: per (shape, backend) the best-of-reps
// wall time, effective GFLOP/s, speedup over the scalar table, and a CRC32
// of the output tensor bytes. The CRCs are the determinism story: both
// tables must produce identical checksums (bit-exact contract, DESIGN §11).
// fc and relu run the scalar kernel under both tables, so their rows read
// 1.0x by construction.
// With OFFLOAD_BENCH_DETERMINISTIC=1 the timing fields are zeroed so the
// CI double-run gate can diff the file byte-for-byte.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/json_writer.h"
#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/kernels.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/nn/tensor.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace {

using namespace offload;
using nn::KernelBackend;
using nn::Tensor;

constexpr int kReps = 5;

struct Workload {
  std::string name;
  std::unique_ptr<nn::Layer> layer;
  Tensor input;
  std::uint64_t flops = 0;
};

std::uint64_t layer_flops(const nn::Layer& layer, const Tensor& in) {
  const nn::Shape shapes[] = {in.shape()};
  return layer.flops(shapes);
}

Workload make_conv(std::string name, std::int64_t C, std::int64_t H,
                   std::int64_t M, std::int64_t K, std::int64_t S,
                   std::int64_t P, std::int64_t G, std::uint64_t seed) {
  nn::ConvConfig cfg;
  cfg.in_channels = C;
  cfg.out_channels = M;
  cfg.kernel = K;
  cfg.stride = S;
  cfg.pad = P;
  cfg.groups = G;
  Workload w;
  w.name = std::move(name);
  auto layer = std::make_unique<nn::ConvLayer>("c", cfg);
  util::Pcg32 rng(seed);
  layer->init_params(rng);
  w.input = Tensor::random_uniform({C, H, H}, rng);
  w.flops = layer_flops(*layer, w.input);
  w.layer = std::move(layer);
  return w;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> ws;
  // GoogLeNet inception_3a 3x3: the server-class GEMM shape the
  // speedup acceptance gate reads.
  ws.push_back(make_conv("conv3x3_96x28_to_128", 96, 28, 128, 3, 1, 1, 1, 21));
  // Inception 1x1 reduction: pure GEMM, no im2col.
  ws.push_back(make_conv("conv1x1_192x28_to_64", 192, 28, 64, 1, 1, 0, 1, 22));
  // Stem-style 7x7 stride 2 (3 input channels, tall im2col).
  ws.push_back(make_conv("conv7x7s2_3x112_to_64", 3, 112, 64, 7, 2, 3, 1, 23));
  // AgeNet-style grouped 5x5.
  ws.push_back(make_conv("conv5x5g2_96x14_to_256", 96, 14, 256, 5, 1, 2, 2, 24));
  // Odd channel counts: every panel-edge and scalar-tail path.
  ws.push_back(make_conv("conv3x3_13x30_to_27", 13, 30, 27, 3, 1, 1, 1, 25));

  {
    Workload w;  // AgeNet fc6: 18816 -> 512, the big fc in the suite
    w.name = "fc_18816_to_512";
    auto layer = std::make_unique<nn::FullyConnectedLayer>("fc", 18816, 512);
    util::Pcg32 rng(26);
    layer->init_params(rng);
    w.input = Tensor::random_uniform({std::int64_t{18816}}, rng);
    w.flops = layer_flops(*layer, w.input);
    w.layer = std::move(layer);
    ws.push_back(std::move(w));
  }
  {
    Workload w;  // GoogLeNet classifier
    w.name = "fc_1024_to_1000";
    auto layer = std::make_unique<nn::FullyConnectedLayer>("fc", 1024, 1000);
    util::Pcg32 rng(27);
    layer->init_params(rng);
    w.input = Tensor::random_uniform({std::int64_t{1024}}, rng);
    w.flops = layer_flops(*layer, w.input);
    w.layer = std::move(layer);
    ws.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "maxpool3x3s2_192x56";
    nn::PoolConfig cfg;
    cfg.kernel = 3;
    cfg.stride = 2;
    cfg.pad = 0;
    w.layer = std::make_unique<nn::PoolLayer>("p", cfg, false);
    util::Pcg32 rng(28);
    w.input = Tensor::random_uniform({192, 56, 56}, rng);
    w.flops = layer_flops(*w.layer, w.input);
    ws.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "relu_64x112x112";
    w.layer = std::make_unique<nn::ReluLayer>("r");
    util::Pcg32 rng(29);
    w.input = Tensor::random_uniform({64, 112, 112}, rng);
    w.flops = layer_flops(*w.layer, w.input);
    ws.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "lrn5_64x56x56";
    w.layer = std::make_unique<nn::LrnLayer>("l", nn::LrnConfig{});
    util::Pcg32 rng(30);
    w.input = Tensor::random_uniform({64, 56, 56}, rng);
    w.flops = layer_flops(*w.layer, w.input);
    ws.push_back(std::move(w));
  }
  return ws;
}

struct Measurement {
  double best_ms = 0.0;
  std::uint32_t crc = 0;
};

Measurement measure(const Workload& w, KernelBackend k) {
  nn::ScopedKernelBackend scoped(k);
  const Tensor* ins[] = {&w.input};
  Measurement m;
  Tensor out = w.layer->forward(ins);  // warm-up: packs, pages maps
  m.crc = util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(out.data().data()),
      out.data().size() * sizeof(float)));
  m.best_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    out = w.layer->forward(ins);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < m.best_ms) m.best_ms = ms;
  }
  return m;
}

}  // namespace

int main() {
  const bool deterministic =
      std::getenv("OFFLOAD_BENCH_DETERMINISTIC") != nullptr;
  const std::vector<Workload> workloads = build_workloads();
  std::vector<bench::JsonObject> json;
  std::printf("%-24s %-7s %10s %9s %9s  %s\n", "shape", "backend", "best_ms",
              "gflops", "speedup", "crc32");
  for (const Workload& w : workloads) {
    double scalar_ms = 0.0;
    std::uint32_t scalar_crc = 0;
    for (KernelBackend k : {KernelBackend::kScalar, KernelBackend::kSimd}) {
      const Measurement m = measure(w, k);
      if (k == KernelBackend::kScalar) {
        scalar_ms = m.best_ms;
        scalar_crc = m.crc;
      }
      const double speedup = m.best_ms > 0 ? scalar_ms / m.best_ms : 0.0;
      const double gflops =
          m.best_ms > 0 ? static_cast<double>(w.flops) / (m.best_ms * 1e6)
                        : 0.0;
      char crc_hex[16];
      std::snprintf(crc_hex, sizeof crc_hex, "%08x", m.crc);
      std::printf("%-24s %-7s %10.3f %9.2f %9.2f  %s%s\n", w.name.c_str(),
                  nn::kernel_backend_name(k), m.best_ms, gflops, speedup,
                  crc_hex,
                  m.crc != scalar_crc ? "  <-- CRC MISMATCH" : "");
      bench::JsonObject o;
      o.set("shape", w.name)
          .set("backend", nn::kernel_backend_name(k))
          .set("flops", static_cast<std::int64_t>(w.flops))
          .set("best_ms", deterministic ? 0.0 : m.best_ms, "%.4f")
          .set("gflops", deterministic ? 0.0 : gflops, "%.3f")
          .set("speedup_vs_scalar", deterministic ? 0.0 : speedup, "%.3f")
          .set("output_crc32", std::string(crc_hex))
          .set("fp32_bit_exact",
               std::string(m.crc == scalar_crc ? "yes" : "NO"));
      json.push_back(std::move(o));
    }
  }
  return bench::write_json_array("BENCH_micro_kernels.json", json) ? 0 : 1;
}
