// Kernel table registry: CPU detection and the two ops tables. Kernel
// bodies live in kernels_scalar.cpp / kernels_simd.cpp; this TU has no
// float math of its own.
#include "src/nn/kernels.h"

#include <atomic>

#include "src/nn/kernels_impl.h"

namespace offload::nn {
namespace {

KernelOps make_scalar_ops() {
  KernelOps ops;
  ops.kind = KernelBackend::kScalar;
  ops.name = "scalar";
  ops.gemm_mr = 4;
  ops.gemm_nr = 8;
  ops.gemm_tile = &detail::scalar_gemm_tile;
  ops.pool_plane = &detail::scalar_pool_plane;
  ops.lrn_row = &detail::scalar_lrn_row;
  return ops;
}

std::atomic<KernelBackend>& active_slot() {
  static std::atomic<KernelBackend> slot{KernelBackend::kSimd};
  return slot;
}

}  // namespace

const char* kernel_backend_name(KernelBackend k) {
  return k == KernelBackend::kSimd ? "simd" : "scalar";
}

bool cpu_supports_simd() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

KernelBackend active_kernel_backend() {
  return active_slot().load(std::memory_order_relaxed);
}

KernelBackend set_kernel_backend(KernelBackend k) {
  return active_slot().exchange(k, std::memory_order_relaxed);
}

const KernelOps& kernel_ops(KernelBackend k) {
  static const KernelOps scalar = make_scalar_ops();
  static const KernelOps simd = detail::make_simd_ops();
  return k == KernelBackend::kSimd ? simd : scalar;
}

}  // namespace offload::nn
