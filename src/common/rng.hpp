// Deterministic random number generation for the whole project.
//
// Every stochastic component (weight init, synthetic datasets, random
// projection matrices, fault injection) derives its stream from an explicit
// 64-bit seed so that all experiments are exactly reproducible. We use
// SplitMix64 for seeding and Xoshiro256** as the bulk generator — both are
// small, fast, and well studied; std::mt19937 is avoided because its state
// initialization from a single seed is poor.
//
// Gaussians come from Box–Muller. Rng::gaussian is the definition;
// Rng::fill_gaussian produces the same floats for whole buffers through the
// dispatched gaussian_pairs codelet (codelet/codelet.hpp), whose SIMD
// variants evaluate log/sqrt/sincos with their own polynomials and fall back
// to glibc's only when a rounding test cannot prove the float — so every
// weight and projection matrix is bitwise the one the scalar loop draws, on
// every ISA.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cmath>

#include "codelet/codelet.hpp"

namespace deepcam {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: bulk 64-bit PRNG with 2^256-1 period.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xDEEC0DEull) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free-ish reduction (bias negligible
    // for our n << 2^64 use cases; exact enough for simulation workloads).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Standard normal via Box–Muller (cached second value).
  double gaussian() {
    if (has_cache_) {
      has_cache_ = false;
      return cache_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cache_ = r * std::sin(theta);
    has_cache_ = true;
    return r * std::cos(theta);
  }

  /// Gaussian with explicit mean/stddev.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Fills out[0, n) with static_cast<float>(gaussian(0.0, stddev)) per
  /// value, and leaves this Rng exactly as those n calls would. A cached half
  /// at entry is emitted first; whole pairs then go through the dispatched
  /// gaussian_pairs codelet in blocks, drawing the uniforms in gaussian()'s
  /// order; the last one or two values go through gaussian() itself, so the
  /// cached half left behind is its own. With stddev = 1.0 each value is
  /// also static_cast<float>(gaussian()): r·cos θ is never ±0.
  void fill_gaussian(float* out, std::size_t n, double stddev = 1.0) {
    constexpr std::size_t kBlockPairs = 256;
    double u1[kBlockPairs] = {};
    double u2[kBlockPairs] = {};
    std::size_t i = 0;
    if (n > 0 && has_cache_)
      out[i++] = static_cast<float>(gaussian(0.0, stddev));
    while (n - i > 2) {
      const std::size_t pairs = std::min(kBlockPairs, (n - i - 1) / 2);
      for (std::size_t p = 0; p < pairs; ++p) {
        do {
          u1[p] = uniform();
        } while (u1[p] <= 1e-300);
        u2[p] = uniform();
      }
      codelet::kernels().gaussian_pairs(u1, u2, pairs, stddev, out + i);
      i += 2 * pairs;
    }
    for (; i < n; ++i) out[i] = static_cast<float>(gaussian(0.0, stddev));
  }

  /// Derive an independent child stream (for per-layer / per-module seeding).
  Rng fork(std::uint64_t stream_id) {
    SplitMix64 sm(next() ^ (0x9E3779B97F4A7C15ULL * (stream_id + 1)));
    Rng child(sm.next());
    return child;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double cache_ = 0.0;
  bool has_cache_ = false;
};

}  // namespace deepcam
