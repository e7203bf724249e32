// Internal declarations shared between the kernel backend TUs, the
// registry (kernels.cpp) and the layers that call a scalar kernel directly.
// Not part of the public nn API.
#pragma once

#include "src/nn/kernels.h"

namespace offload::nn::detail {

// Scalar reference kernels (kernels_scalar.cpp; compiled with the kernel
// optimization flags + -ffp-contract=off so every rounding step is exactly
// what the source says).
void scalar_gemm_tile(const float* apack, std::int64_t kd, const float* b,
                      std::int64_t n, const float* bias, float* c,
                      std::int64_t m_total, std::int64_t i0, std::int64_t i1,
                      std::int64_t j0, std::int64_t j1);
/// y[i] = bias[i] + sum_j w[i*in + j] * x[j] for i in [row0, row1).
void scalar_fc_rows(const float* w, std::int64_t in, const float* x,
                    const float* bias, float* y, std::int64_t row0,
                    std::int64_t row1);
void scalar_relu_range(float* data, std::int64_t lo, std::int64_t hi);
void scalar_pool_plane(const float* in, float* out, std::int64_t H,
                       std::int64_t W, std::int64_t OH, std::int64_t OW,
                       std::int64_t kernel, std::int64_t stride,
                       std::int64_t pad, bool average);
void scalar_lrn_row(const float* in, float* out, std::int64_t C,
                    std::int64_t H, std::int64_t W, std::int64_t h,
                    std::int64_t local_size, double alpha, double beta,
                    double k);

/// Edge-tile fallback shared by the vector GEMM kernels: same fma contract
/// as scalar_gemm_tile but for an arbitrary panel row count `mr`.
void gemm_tile_edge(const float* apack, std::int64_t mr_panel, std::int64_t kd,
                    const float* b, std::int64_t n, const float* bias, float* c,
                    std::int64_t m_total, std::int64_t i0, std::int64_t i1,
                    std::int64_t j0, std::int64_t j1);

/// Build the simd table (kernels_simd.cpp). On machines without AVX2+FMA
/// every pointer degrades to the scalar kernel above.
KernelOps make_simd_ops();

}  // namespace offload::nn::detail
