// Runtime-dispatched kernel table for the NN layer inner loops.
//
// Production runs one table, picked once by CPUID: AVX-512, then AVX2+FMA,
// then the scalar kernels on hosts without AVX2. Two tables share one shape:
//   scalar — the reference kernels (the original packed tiled-GEMM conv and
//            friends) with every fp32 accumulation contract written
//            explicitly in the source. Tests pin it as the bitwise
//            reference;
//   simd   — the default: hand-vectorized AVX2/AVX-512 conv, pool and lrn
//            micro-kernels (runtime CPU detection, per-function target
//            attributes, scalar fallback on machines without the ISA) that
//            keep the *same* per-element rounding contracts, so outputs are
//            bit-identical to scalar at any OFFLOAD_THREADS.
// fc and relu have no table entry: both tables would run the scalar kernel
// (DESIGN §11 says why), so the layers call it directly.
//
// The fp32 contracts (DESIGN §11) every table must honor per output
// element:
//   conv GEMM: acc = bias first, then acc = fma(w, x, acc) with k ascending
//              in im2col row order r = (c*K + kh)*K + kw;
//   fc:        acc = bias first, then acc = acc + w*x (separately rounded
//              multiply then add) with j ascending;
//   avg pool:  sum over the window in (h, w) order, then one divide;
//   max pool:  float max over the window (order-free);
//   lrn:       double-precision square sum in channel order (products of
//              float-valued doubles are exact, so contraction-immune);
//   relu:      elementwise max(x, 0).
#pragma once

#include <cstdint>

namespace offload::nn {

enum class KernelBackend : std::uint8_t { kScalar = 0, kSimd = 1 };

const char* kernel_backend_name(KernelBackend k);

/// Runtime ISA detection (x86: AVX2+FMA resp. AVX-512F; elsewhere false).
bool cpu_supports_simd();
bool cpu_supports_avx512();

/// The process-wide table: simd unless a test pins the scalar reference
/// through set_kernel_backend / ScopedKernelBackend.
KernelBackend active_kernel_backend();
/// Returns the previous backend.
KernelBackend set_kernel_backend(KernelBackend k);

/// One backend's kernel table. All function pointers are non-null.
struct KernelOps {
  KernelBackend kind = KernelBackend::kScalar;
  const char* name = "scalar";

  /// Conv GEMM micro-kernel geometry: weights are packed into gemm_mr-row
  /// panels; the tile function walks columns in steps of gemm_nr.
  std::int64_t gemm_mr = 4;
  std::int64_t gemm_nr = 8;
  /// One macro-tile of C[i0:i1) x [j0:j1) = Apack * B + bias over depth kd.
  /// Apack holds gemm_mr-row panels (panel[k*mr + m]); B row-major kd x n;
  /// i0 is always a multiple of gemm_mr.
  void (*gemm_tile)(const float* apack, std::int64_t kd, const float* b,
                    std::int64_t n, const float* bias, float* c,
                    std::int64_t m_total, std::int64_t i0, std::int64_t i1,
                    std::int64_t j0, std::int64_t j1) = nullptr;

  /// One pooled channel plane (max or average, Caffe window clipping).
  void (*pool_plane)(const float* in, float* out, std::int64_t H,
                     std::int64_t W, std::int64_t OH, std::int64_t OW,
                     std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                     bool average) = nullptr;
  /// One spatial row (all W x all C) of LRN channel normalization.
  void (*lrn_row)(const float* in, float* out, std::int64_t C, std::int64_t H,
                  std::int64_t W, std::int64_t h, std::int64_t local_size,
                  double alpha, double beta, double k) = nullptr;
};

/// The table for a specific backend (simd degrades to scalar kernels on
/// machines without AVX2+FMA — kind/name still say simd).
const KernelOps& kernel_ops(KernelBackend k);
inline const KernelOps& active_kernel_ops() {
  return kernel_ops(active_kernel_backend());
}

/// RAII backend override for tests.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(KernelBackend k) : prev_(set_kernel_backend(k)) {}
  ~ScopedKernelBackend() { set_kernel_backend(prev_); }
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  KernelBackend prev_;
};

/// Pack grouped conv weights {G*Mg rows x Kd} into mr-row panels:
/// dst[(g*tiles + t)*Kd*mr + k*mr + m] = w[(g*Mg + t*mr + m)*Kd + k],
/// padding rows zero. dst must hold G * ceil(Mg/mr) * Kd * mr entries.
/// Implemented by the scalar backend TU.
void pack_gemm_panels(const float* w, std::int64_t G, std::int64_t Mg,
                      std::int64_t Kd, std::int64_t mr, float* dst);

}  // namespace offload::nn
