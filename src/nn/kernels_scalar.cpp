// The `scalar` kernel backend: the project's reference inner loops, moved
// out of layers.cpp with every fp32 rounding contract written explicitly
// (std::fma where the historical binary fused, separate multiply+add where
// it did not). This TU is compiled with the kernel optimization flags plus
// -ffp-contract=off, so the compiler cannot re-fuse what the source keeps
// separate — the emitted bits are the contract, on any build arch.
#include <algorithm>
#include <cmath>
#include <limits>

#include "src/nn/kernels_impl.h"

namespace offload::nn::detail {

namespace {
constexpr std::int64_t kMR = 4;  ///< scalar micro-kernel rows
constexpr std::int64_t kNR = 8;  ///< scalar micro-kernel cols
}  // namespace

// ------------------------------------------------------------- conv GEMM

void scalar_gemm_tile(const float* apack, std::int64_t kd, const float* b,
                      std::int64_t n, const float* bias, float* c,
                      std::int64_t m_total, std::int64_t i0, std::int64_t i1,
                      std::int64_t j0, std::int64_t j1) {
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const float* panel = apack + (i / kMR) * (kd * kMR);
    const std::int64_t mr = std::min(kMR, m_total - i);
    for (std::int64_t j = j0; j < j1; j += kNR) {
      const std::int64_t nr = std::min(kNR, j1 - j);
      float acc[kMR][kNR];
      if (mr == kMR && nr == kNR) {
        for (std::int64_t m = 0; m < kMR; ++m) {
          const float bm = bias[i + m];
          for (std::int64_t v = 0; v < kNR; ++v) acc[m][v] = bm;
        }
        for (std::int64_t k = 0; k < kd; ++k) {
          const float* bk = b + k * n + j;
          const float* ak = panel + k * kMR;
          for (std::int64_t m = 0; m < kMR; ++m) {
            const float a = ak[m];
            for (std::int64_t v = 0; v < kNR; ++v) {
              acc[m][v] = std::fma(a, bk[v], acc[m][v]);
            }
          }
        }
        for (std::int64_t m = 0; m < kMR; ++m) {
          float* crow = c + (i + m) * n + j;
          for (std::int64_t v = 0; v < kNR; ++v) crow[v] = acc[m][v];
        }
      } else {
        for (std::int64_t m = 0; m < mr; ++m) {
          const float bm = bias[i + m];
          for (std::int64_t v = 0; v < nr; ++v) acc[m][v] = bm;
        }
        for (std::int64_t k = 0; k < kd; ++k) {
          const float* bk = b + k * n + j;
          const float* ak = panel + k * kMR;
          for (std::int64_t m = 0; m < mr; ++m) {
            const float a = ak[m];
            for (std::int64_t v = 0; v < nr; ++v) {
              acc[m][v] = std::fma(a, bk[v], acc[m][v]);
            }
          }
        }
        for (std::int64_t m = 0; m < mr; ++m) {
          float* crow = c + (i + m) * n + j;
          for (std::int64_t v = 0; v < nr; ++v) crow[v] = acc[m][v];
        }
      }
    }
  }
}

void gemm_tile_edge(const float* apack, std::int64_t mr_panel, std::int64_t kd,
                    const float* b, std::int64_t n, const float* bias, float* c,
                    std::int64_t m_total, std::int64_t i0, std::int64_t i1,
                    std::int64_t j0, std::int64_t j1) {
  for (std::int64_t i = i0; i < i1; i += mr_panel) {
    const float* panel = apack + (i / mr_panel) * (kd * mr_panel);
    const std::int64_t mr = std::min(mr_panel, m_total - i);
    for (std::int64_t m = 0; m < mr; ++m) {
      for (std::int64_t j = j0; j < j1; ++j) {
        float acc = bias[i + m];
        const float* bk = b + j;
        const float* ak = panel + m;
        for (std::int64_t k = 0; k < kd; ++k) {
          acc = std::fma(ak[k * mr_panel], bk[k * n], acc);
        }
        c[(i + m) * n + j] = acc;
      }
    }
  }
}

// -------------------------------------------------------------------- fc

void scalar_fc_rows(const float* w, std::int64_t in, const float* x,
                    const float* bias, float* y, std::int64_t row0,
                    std::int64_t row1) {
  for (std::int64_t i = row0; i < row1; ++i) {
    const float* row = w + i * in;
    float acc = bias[i];
    for (std::int64_t j = 0; j < in; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

// ---------------------------------------------------------- relu / pool

void scalar_relu_range(float* data, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) data[i] = std::max(data[i], 0.0f);
}

void scalar_pool_plane(const float* in, float* out, std::int64_t H,
                       std::int64_t W, std::int64_t OH, std::int64_t OW,
                       std::int64_t kernel, std::int64_t stride,
                       std::int64_t pad, bool average) {
  for (std::int64_t oh = 0; oh < OH; ++oh) {
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      const std::int64_t h0 = oh * stride - pad;
      const std::int64_t w0 = ow * stride - pad;
      const std::int64_t h1 = std::min(h0 + kernel, H);
      const std::int64_t w1 = std::min(w0 + kernel, W);
      const std::int64_t hs = std::max<std::int64_t>(h0, 0);
      const std::int64_t ws = std::max<std::int64_t>(w0, 0);
      if (average) {
        float sum = 0.0f;
        for (std::int64_t h = hs; h < h1; ++h) {
          for (std::int64_t w = ws; w < w1; ++w) sum += in[h * W + w];
        }
        // Caffe averages over the full kernel area including padding.
        out[oh * OW + ow] = sum / static_cast<float>(kernel * kernel);
      } else {
        float m = -std::numeric_limits<float>::infinity();
        for (std::int64_t h = hs; h < h1; ++h) {
          for (std::int64_t w = ws; w < w1; ++w) {
            m = std::max(m, in[h * W + w]);
          }
        }
        out[oh * OW + ow] = m;
      }
    }
  }
}

// ------------------------------------------------------------------- lrn

void scalar_lrn_row(const float* in, float* out, std::int64_t C,
                    std::int64_t H, std::int64_t W, std::int64_t h,
                    std::int64_t local_size, double alpha, double beta,
                    double k) {
  const std::int64_t half = local_size / 2;
  const double alpha_over_n = alpha / static_cast<double>(local_size);
  for (std::int64_t w = 0; w < W; ++w) {
    for (std::int64_t c = 0; c < C; ++c) {
      const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
      const std::int64_t c1 = std::min(C - 1, c + half);
      double sum = 0.0;
      for (std::int64_t cc = c0; cc <= c1; ++cc) {
        // v is a float widened to double, so v*v is exact — adding the
        // product is one rounding whether or not the compiler fuses.
        const double v = in[(cc * H + h) * W + w];
        sum += v * v;
      }
      const double denom = std::pow(k + alpha_over_n * sum, beta);
      out[(c * H + h) * W + w] =
          static_cast<float>(in[(c * H + h) * W + w] / denom);
    }
  }
}

}  // namespace offload::nn::detail

// ------------------------------------------------------- packing helpers

namespace offload::nn {

void pack_gemm_panels(const float* w, std::int64_t G, std::int64_t Mg,
                      std::int64_t Kd, std::int64_t mr, float* dst) {
  const std::int64_t tiles = (Mg + mr - 1) / mr;
  for (std::int64_t g = 0; g < G; ++g) {
    for (std::int64_t t = 0; t < tiles; ++t) {
      float* panel = dst + (g * tiles + t) * Kd * mr;
      for (std::int64_t m = 0; m < mr; ++m) {
        const std::int64_t row = t * mr + m;
        if (row >= Mg) continue;  // padding rows stay zero
        const float* src = w + (g * Mg + row) * Kd;
        for (std::int64_t k = 0; k < Kd; ++k) panel[k * mr + m] = src[k];
      }
    }
  }
}

}  // namespace offload::nn
