// The `simd` kernel table: hand-vectorized AVX2 / AVX-512 conv, pool and
// lrn micro-kernels behind per-function target attributes and
// __builtin_cpu_supports, so this TU compiles with baseline flags and the
// binary runs anywhere — machines without AVX2+FMA fall back to the scalar
// kernels at table-build time.
//
// Bit-exactness (fp32): every output element keeps the scalar backend's
// rounding contract exactly —
//   * conv GEMM: vfmadd lanes reproduce the scalar std::fma chain
//     (k-ascending, bias-first); lane independence means the wider AVX-512
//     8x16 tile is still the same per-element chain;
//   * avg pool: masked-gather lanes add +0.0 for window positions the
//     scalar kernel skips — exact, because a partial sum is never -0.0;
//   * max pool: extra -inf lanes never change a float max;
//   * lrn: double products of float values are exact, so the vector fma
//     square-sum equals the scalar sum bit-for-bit.
// fc and relu have no vector kernels here; the layers call the scalar ones
// (see the note above the pool kernels and DESIGN §11).
#include <algorithm>
#include <cmath>
#include <limits>

#include "src/nn/kernels_impl.h"

#if defined(__x86_64__) || defined(__i386__)
#define OFFLOAD_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace offload::nn::detail {

#if OFFLOAD_KERNELS_X86

namespace {

// ------------------------------------------------------ AVX2 conv GEMM

__attribute__((target("avx2,fma"))) void avx2_gemm_tile(
    const float* apack, std::int64_t kd, const float* b, std::int64_t n,
    const float* bias, float* c, std::int64_t m_total, std::int64_t i0,
    std::int64_t i1, std::int64_t j0, std::int64_t j1) {
  constexpr std::int64_t kMR = 4;
  constexpr std::int64_t kNR = 8;
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const float* panel = apack + (i / kMR) * (kd * kMR);
    const std::int64_t mr = std::min(kMR, m_total - i);
    if (mr < kMR) {
      gemm_tile_edge(apack, kMR, kd, b, n, bias, c, m_total, i,
                     std::min(i + kMR, i1), j0, j1);
      continue;
    }
    std::int64_t j = j0;
    for (; j + kNR <= j1; j += kNR) {
      __m256 acc0 = _mm256_broadcast_ss(bias + i + 0);
      __m256 acc1 = _mm256_broadcast_ss(bias + i + 1);
      __m256 acc2 = _mm256_broadcast_ss(bias + i + 2);
      __m256 acc3 = _mm256_broadcast_ss(bias + i + 3);
      const float* bk = b + j;
      const float* ak = panel;
      for (std::int64_t k = 0; k < kd; ++k, bk += n, ak += kMR) {
        const __m256 bv = _mm256_loadu_ps(bk);
        acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 0), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 1), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 2), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 3), bv, acc3);
      }
      _mm256_storeu_ps(c + (i + 0) * n + j, acc0);
      _mm256_storeu_ps(c + (i + 1) * n + j, acc1);
      _mm256_storeu_ps(c + (i + 2) * n + j, acc2);
      _mm256_storeu_ps(c + (i + 3) * n + j, acc3);
    }
    if (j < j1) {
      gemm_tile_edge(apack, kMR, kd, b, n, bias, c, m_total, i,
                     std::min(i + kMR, i1), j, j1);
    }
  }
}

// --------------------------------------------------- AVX-512 conv GEMM
//
// 8x16 register tile: 8 zmm accumulators hide the FMA latency the scalar
// 4x8 tile cannot, and each k-step feeds them from one 64-byte column load.

__attribute__((target("avx512f,fma"))) void avx512_gemm_tile(
    const float* apack, std::int64_t kd, const float* b, std::int64_t n,
    const float* bias, float* c, std::int64_t m_total, std::int64_t i0,
    std::int64_t i1, std::int64_t j0, std::int64_t j1) {
  constexpr std::int64_t kMR = 8;
  constexpr std::int64_t kNR = 16;
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const float* panel = apack + (i / kMR) * (kd * kMR);
    const std::int64_t mr = std::min(kMR, m_total - i);
    if (mr < kMR) {
      gemm_tile_edge(apack, kMR, kd, b, n, bias, c, m_total, i,
                     std::min(i + kMR, i1), j0, j1);
      continue;
    }
    for (std::int64_t j = j0; j < j1; j += kNR) {
      const std::int64_t nr = std::min(kNR, j1 - j);
      const __mmask16 mask =
          nr == kNR ? static_cast<__mmask16>(0xffff)
                    : static_cast<__mmask16>((1u << nr) - 1u);
      __m512 acc0 = _mm512_set1_ps(bias[i + 0]);
      __m512 acc1 = _mm512_set1_ps(bias[i + 1]);
      __m512 acc2 = _mm512_set1_ps(bias[i + 2]);
      __m512 acc3 = _mm512_set1_ps(bias[i + 3]);
      __m512 acc4 = _mm512_set1_ps(bias[i + 4]);
      __m512 acc5 = _mm512_set1_ps(bias[i + 5]);
      __m512 acc6 = _mm512_set1_ps(bias[i + 6]);
      __m512 acc7 = _mm512_set1_ps(bias[i + 7]);
      const float* bk = b + j;
      const float* ak = panel;
      if (nr == kNR) {
        for (std::int64_t k = 0; k < kd; ++k, bk += n, ak += kMR) {
          const __m512 bv = _mm512_loadu_ps(bk);
          acc0 = _mm512_fmadd_ps(_mm512_set1_ps(ak[0]), bv, acc0);
          acc1 = _mm512_fmadd_ps(_mm512_set1_ps(ak[1]), bv, acc1);
          acc2 = _mm512_fmadd_ps(_mm512_set1_ps(ak[2]), bv, acc2);
          acc3 = _mm512_fmadd_ps(_mm512_set1_ps(ak[3]), bv, acc3);
          acc4 = _mm512_fmadd_ps(_mm512_set1_ps(ak[4]), bv, acc4);
          acc5 = _mm512_fmadd_ps(_mm512_set1_ps(ak[5]), bv, acc5);
          acc6 = _mm512_fmadd_ps(_mm512_set1_ps(ak[6]), bv, acc6);
          acc7 = _mm512_fmadd_ps(_mm512_set1_ps(ak[7]), bv, acc7);
        }
      } else {
        for (std::int64_t k = 0; k < kd; ++k, bk += n, ak += kMR) {
          const __m512 bv = _mm512_maskz_loadu_ps(mask, bk);
          acc0 = _mm512_fmadd_ps(_mm512_set1_ps(ak[0]), bv, acc0);
          acc1 = _mm512_fmadd_ps(_mm512_set1_ps(ak[1]), bv, acc1);
          acc2 = _mm512_fmadd_ps(_mm512_set1_ps(ak[2]), bv, acc2);
          acc3 = _mm512_fmadd_ps(_mm512_set1_ps(ak[3]), bv, acc3);
          acc4 = _mm512_fmadd_ps(_mm512_set1_ps(ak[4]), bv, acc4);
          acc5 = _mm512_fmadd_ps(_mm512_set1_ps(ak[5]), bv, acc5);
          acc6 = _mm512_fmadd_ps(_mm512_set1_ps(ak[6]), bv, acc6);
          acc7 = _mm512_fmadd_ps(_mm512_set1_ps(ak[7]), bv, acc7);
        }
      }
      _mm512_mask_storeu_ps(c + (i + 0) * n + j, mask, acc0);
      _mm512_mask_storeu_ps(c + (i + 1) * n + j, mask, acc1);
      _mm512_mask_storeu_ps(c + (i + 2) * n + j, mask, acc2);
      _mm512_mask_storeu_ps(c + (i + 3) * n + j, mask, acc3);
      _mm512_mask_storeu_ps(c + (i + 4) * n + j, mask, acc4);
      _mm512_mask_storeu_ps(c + (i + 5) * n + j, mask, acc5);
      _mm512_mask_storeu_ps(c + (i + 6) * n + j, mask, acc6);
      _mm512_mask_storeu_ps(c + (i + 7) * n + j, mask, acc7);
    }
  }
}

// fc and relu: no vector kernels. An explicit _mm256_max_ps relu loop
// measured 0.73x the scalar loop (bench_micro_kernels, relu 64x112²): the
// op is purely memory-bound and the compiler already vectorizes the scalar
// max. The AVX fc kernels needed a block-transposed copy of every fc
// weight matrix, which added ~504 MB to a paper-workload process (DESIGN
// §11), for layers that are a small share of DNN time.

// --------------------------------------------------------------- pool

__attribute__((target("avx2"))) void avx2_pool_plane(
    const float* in, float* out, std::int64_t H, std::int64_t W,
    std::int64_t OH, std::int64_t OW, std::int64_t kernel, std::int64_t stride,
    std::int64_t pad, bool average) {
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i wlimit = _mm256_set1_epi32(static_cast<int>(W));
  const __m256 minus_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const float area = static_cast<float>(kernel * kernel);
  for (std::int64_t oh = 0; oh < OH; ++oh) {
    const std::int64_t h0 = oh * stride - pad;
    const std::int64_t hs = std::max<std::int64_t>(h0, 0);
    const std::int64_t h1 = std::min(h0 + kernel, H);
    for (std::int64_t ow0 = 0; ow0 < OW; ow0 += 8) {
      const int n_act = static_cast<int>(std::min<std::int64_t>(8, OW - ow0));
      // Lane l handles output column ow0+l; its input columns are
      // iw = (ow0+l)*stride - pad + kw for kw in [0, kernel).
      const __m256i w_base = _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(ow0 * stride - pad)),
          _mm256_mullo_epi32(lane_idx, _mm256_set1_epi32(static_cast<int>(stride))));
      const __m256i act_mask = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(n_act), lane_idx);  // lane < n_act
      if (average) {
        __m256 sum = _mm256_setzero_ps();
        for (std::int64_t h = hs; h < h1; ++h) {
          const float* row = in + h * W;
          for (std::int64_t kw = 0; kw < kernel; ++kw) {
            const __m256i iw = _mm256_add_epi32(
                w_base, _mm256_set1_epi32(static_cast<int>(kw)));
            const __m256i in_range = _mm256_and_si256(
                _mm256_cmpgt_epi32(iw, _mm256_set1_epi32(-1)),
                _mm256_cmpgt_epi32(wlimit, iw));
            const __m256i mask = _mm256_and_si256(in_range, act_mask);
            const __m256 v = _mm256_mask_i32gather_ps(
                _mm256_setzero_ps(), row, iw, _mm256_castsi256_ps(mask), 4);
            sum = _mm256_add_ps(sum, v);  // masked lanes add +0.0 — exact
          }
        }
        const __m256 res = _mm256_div_ps(sum, _mm256_set1_ps(area));
        _mm256_maskstore_ps(out + oh * OW + ow0, act_mask, res);
      } else {
        __m256 m = minus_inf;
        for (std::int64_t h = hs; h < h1; ++h) {
          const float* row = in + h * W;
          for (std::int64_t kw = 0; kw < kernel; ++kw) {
            const __m256i iw = _mm256_add_epi32(
                w_base, _mm256_set1_epi32(static_cast<int>(kw)));
            const __m256i in_range = _mm256_and_si256(
                _mm256_cmpgt_epi32(iw, _mm256_set1_epi32(-1)),
                _mm256_cmpgt_epi32(wlimit, iw));
            const __m256i mask = _mm256_and_si256(in_range, act_mask);
            const __m256 v = _mm256_mask_i32gather_ps(
                minus_inf, row, iw, _mm256_castsi256_ps(mask), 4);
            m = _mm256_max_ps(v, m);  // max(v, m): NaN/±0 ties keep m,
            // matching std::max(m, v)
          }
        }
        _mm256_maskstore_ps(out + oh * OW + ow0, act_mask, m);
      }
    }
  }
}

// ---------------------------------------------------------------- lrn

__attribute__((target("avx2,fma"))) void avx2_lrn_row(
    const float* in, float* out, std::int64_t C, std::int64_t H,
    std::int64_t W, std::int64_t h, std::int64_t local_size, double alpha,
    double beta, double k) {
  const std::int64_t half = local_size / 2;
  const double alpha_over_n = alpha / static_cast<double>(local_size);
  std::int64_t w0 = 0;
  alignas(32) double sums[4];
  for (; w0 + 4 <= W; w0 += 4) {
    for (std::int64_t c = 0; c < C; ++c) {
      const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
      const std::int64_t c1 = std::min(C - 1, c + half);
      __m256d sum = _mm256_setzero_pd();
      for (std::int64_t cc = c0; cc <= c1; ++cc) {
        const __m256d v = _mm256_cvtps_pd(
            _mm_loadu_ps(in + (cc * H + h) * W + w0));
        sum = _mm256_fmadd_pd(v, v, sum);  // float-valued doubles: v*v is
        // exact, so fused == unfused
      }
      _mm256_store_pd(sums, sum);
      for (int l = 0; l < 4; ++l) {
        const std::int64_t idx = (c * H + h) * W + w0 + l;
        const double denom = std::pow(k + alpha_over_n * sums[l], beta);
        out[idx] = static_cast<float>(in[idx] / denom);
      }
    }
  }
  // Ragged tail columns: same double-precision formula, scalar.
  for (; w0 < W; ++w0) {
    for (std::int64_t c = 0; c < C; ++c) {
      const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
      const std::int64_t c1 = std::min(C - 1, c + half);
      double sum = 0.0;
      for (std::int64_t cc = c0; cc <= c1; ++cc) {
        const double v = in[(cc * H + h) * W + w0];
        sum += v * v;
      }
      const double denom = std::pow(k + alpha_over_n * sum, beta);
      out[(c * H + h) * W + w0] =
          static_cast<float>(in[(c * H + h) * W + w0] / denom);
    }
  }
}

}  // namespace

#endif  // OFFLOAD_KERNELS_X86

KernelOps make_simd_ops() {
  KernelOps ops;
  ops.kind = KernelBackend::kSimd;
  ops.name = "simd";
  // Scalar fallbacks first; overridden below when the CPU qualifies.
  ops.gemm_mr = 4;
  ops.gemm_nr = 8;
  ops.gemm_tile = &scalar_gemm_tile;
  ops.pool_plane = &scalar_pool_plane;
  ops.lrn_row = &scalar_lrn_row;
#if OFFLOAD_KERNELS_X86
  if (cpu_supports_simd()) {
    ops.gemm_tile = &avx2_gemm_tile;
    ops.pool_plane = &avx2_pool_plane;
    ops.lrn_row = &avx2_lrn_row;
    if (cpu_supports_avx512()) {
      ops.gemm_mr = 8;
      ops.gemm_nr = 16;
      ops.gemm_tile = &avx512_gemm_tile;
    }
  }
#endif
  return ops;
}

}  // namespace offload::nn::detail
