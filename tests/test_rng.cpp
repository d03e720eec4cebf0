#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace deepcam {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIndexCoversAll) {
  Rng rng(10);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.uniform_index(8)];
  for (int h : hits) EXPECT_GT(h, 700);  // ~1000 expected each
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(12);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](float x, float y) {
                      return std::bit_cast<std::uint32_t>(x) ==
                             std::bit_cast<std::uint32_t>(y);
                    });
}

TEST(Rng, FillGaussianMatchesScalarLoopAndState) {
  // Bitwise the floats of n gaussian(0.0, stddev) calls, leaving the same
  // stream position and cached half behind, with or without a cached half
  // at entry.
  const std::size_t sizes[] = {0,   1,   2,   3,   15,     16,
                               17,  127, 128, 129, 1000001};
  for (double stddev : {1.0, 0.05, std::sqrt(2.0 / 27.0)}) {
    for (bool cached : {false, true}) {
      for (std::size_t n : sizes) {
        Rng loop(n + 3), fill(n + 3);
        if (cached) {
          loop.gaussian();
          fill.gaussian();
        }
        std::vector<float> want(n), got(n);
        for (auto& v : want) v = static_cast<float>(loop.gaussian(0.0, stddev));
        fill.fill_gaussian(got.data(), n, stddev);
        ASSERT_TRUE(same_bits(got, want))
            << "n=" << n << " stddev=" << stddev << " cached=" << cached;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fill.gaussian()),
                  std::bit_cast<std::uint64_t>(loop.gaussian()))
            << "n=" << n;
        EXPECT_EQ(fill.next(), loop.next()) << "n=" << n;
      }
    }
  }
}

TEST(Rng, FillGaussianDefaultIsPlainGaussian) {
  // stddev = 1.0 reproduces static_cast<float>(gaussian()) itself.
  Rng loop(21), fill(21);
  std::vector<float> want(4099), got(4099);
  for (auto& v : want) v = static_cast<float>(loop.gaussian());
  fill.fill_gaussian(got.data(), got.size());
  EXPECT_TRUE(same_bits(got, want));
  EXPECT_EQ(fill.next(), loop.next());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.fork(1);
  Rng parent2(13);
  Rng child2 = parent2.fork(1);
  // Same derivation is reproducible...
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.next(), child2.next());
  // ...and different stream ids diverge.
  Rng parent3(13);
  Rng other = parent3.fork(2);
  int same = 0;
  Rng child3 = Rng(13).fork(1);
  for (int i = 0; i < 32; ++i)
    if (child3.next() == other.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace deepcam
