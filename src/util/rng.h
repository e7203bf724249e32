// Deterministic PCG32 random number generator. All stochastic pieces of the
// project (synthetic weights, workload generators, network jitter, property
// tests) draw from this so every experiment is reproducible bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>

namespace offload::util {

/// PCG-XSH-RR 64/32 (O'Neill). Small, fast, and statistically solid; we
/// deliberately avoid std::mt19937 so streams are identical across
/// standard-library implementations.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1) | 1;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * kMult + inc_;
    auto xorshifted = static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
  }

  /// Skip `delta` next_u32 draws in O(log delta) (O'Neill's LCG
  /// jump-ahead): the generator is then exactly where `delta` calls to
  /// next_u32 would have left it.
  void advance(std::uint64_t delta) {
    std::uint64_t cur_mult = kMult;
    std::uint64_t cur_plus = inc_;
    std::uint64_t acc_mult = 1;
    std::uint64_t acc_plus = 0;
    for (; delta != 0; delta >>= 1) {
      if (delta & 1) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform in [0, bound). Uses rejection sampling to avoid modulo bias.
  std::uint32_t next_below(std::uint32_t bound) {
    if (bound == 0) return 0;
    std::uint32_t threshold = -bound % bound;
    while (true) {
      std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform in [0, bound) for 64-bit bounds, rejection-sampled like
  /// next_below. Bounds that fit in 32 bits delegate to next_below and
  /// consume the identical stream, so callers can widen without
  /// perturbing existing seeded runs.
  std::uint64_t next_below64(std::uint64_t bound) {
    if (bound <= 0xffffffffULL) {
      return next_below(static_cast<std::uint32_t>(bound));
    }
    std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// 53-bit uniform in [0, 1).
  double canonical() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi). Draws exactly two u32 (one canonical()),
  /// so the i-th value of a stream of uniforms is reached by advance(2 * i);
  /// parallel synthetic weights (nn::Network::init_params) rely on this.
  double uniform(double lo, double hi) { return lo + (hi - lo) * canonical(); }

  /// Standard normal via Box–Muller.
  double gaussian() {
    double u1 = canonical();
    double u2 = canonical();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * u2);
  }

  bool chance(double p) { return canonical() < p; }

 private:
  static constexpr std::uint64_t kMult = 6364136223846793005ULL;

  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace offload::util
