#include "hash/random_projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"

namespace deepcam::hash {
namespace {

TEST(RandomProjection, Deterministic) {
  RandomProjection a(16, 64, 99), b(16, 64, 99);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 64; ++j) EXPECT_EQ(a.at(i, j), b.at(i, j));
}

TEST(RandomProjection, SeedsDiffer) {
  RandomProjection a(8, 32, 1), b(8, 32, 2);
  int same = 0;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 32; ++j)
      if (a.at(i, j) == b.at(i, j)) ++same;
  EXPECT_LT(same, 3);
}

/// FNV-1a 64 over the little-endian bytes of each entry of C, row-major.
std::uint64_t matrix_digest(const RandomProjection& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < p.input_dim(); ++i)
    for (std::size_t j = 0; j < p.hash_bits(); ++j) {
      const float v = p.at(i, j);
      std::uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  return h;
}

TEST(RandomProjection, MatricesArePinned) {
  // C is the paper's N(0, 1) draw, not a fixture: these digests pin every
  // entry (values from the scalar Box–Muller loop, g++ 12 / glibc 2.36,
  // x86_64), so a generator change cannot silently change every hash bit.
  EXPECT_EQ(matrix_digest(RandomProjection(150, 1024,
                                           core::layer_hash_seed(42, 3))),
            0xc06bed0d49847236ULL);  // LeNet-5 conv2
  EXPECT_EQ(matrix_digest(RandomProjection(4608, 1024,
                                           core::layer_hash_seed(42, 21))),
            0x0b1a319a3c967652ULL);  // a VGG11 512-channel conv
  EXPECT_EQ(matrix_digest(RandomProjection(7, 33, 5)),
            0x83e7b3d9aa6b2c93ULL);  // odd sizes: scalar tail and cache
}

TEST(RandomProjection, EntriesApproximatelyStandardNormal) {
  RandomProjection p(64, 1024, 5);
  double sum = 0.0, sum2 = 0.0;
  const double n = 64.0 * 1024.0;
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 1024; ++j) {
      sum += p.at(i, j);
      sum2 += double(p.at(i, j)) * p.at(i, j);
    }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RandomProjection, ProjectMatchesManualDot) {
  RandomProjection p(4, 8, 7);
  std::vector<float> x = {1.0f, -2.0f, 0.5f, 3.0f};
  std::vector<float> out(8);
  p.project(x, out);
  for (std::size_t j = 0; j < 8; ++j) {
    double manual = 0.0;
    for (std::size_t i = 0; i < 4; ++i) manual += double(x[i]) * p.at(i, j);
    EXPECT_NEAR(out[j], manual, 1e-4);
  }
}

TEST(RandomProjection, SignHashMatchesProjection) {
  RandomProjection p(6, 32, 9);
  std::vector<float> x = {0.3f, -0.1f, 2.0f, -5.0f, 0.0f, 1.0f};
  std::vector<float> proj(32);
  p.project(x, proj);
  const BitVec h = p.sign_hash(x);
  for (std::size_t j = 0; j < 32; ++j)
    EXPECT_EQ(h.get(j), proj[j] >= 0.0f) << j;
}

TEST(RandomProjection, PrefixHashIsPrefixOfFullHash) {
  RandomProjection p(10, 1024, 11);
  Rng rng(3);
  std::vector<float> x(10);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  const BitVec full = p.sign_hash(x);
  for (std::size_t k : {256u, 512u, 768u}) {
    const BitVec pre = p.sign_hash_prefix(x, k);
    EXPECT_EQ(pre.size(), k);
    for (std::size_t j = 0; j < k; ++j) EXPECT_EQ(pre.get(j), full.get(j));
  }
}

TEST(RandomProjection, SignHashPrefixEqualsTruncatedFullHash) {
  // sign_hash_prefix projects only the first k columns; the prefix-of-iid-
  // columns property demands exact (bitwise) agreement with truncating the
  // full 1024-column hash, including at non-word-aligned k.
  RandomProjection p(150, 1024, 21);
  Rng rng(6);
  std::vector<float> x(150);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = (i % 5 == 0) ? 0.0f : static_cast<float>(rng.gaussian());
  const BitVec full = p.sign_hash(x);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{256},
                        std::size_t{1023}, std::size_t{1024}}) {
    EXPECT_TRUE(p.sign_hash_prefix(x, k) == full.prefix(k)) << "k=" << k;
  }
}

TEST(RandomProjection, ProjectPrefixMatchesFullProjectionPrefix) {
  RandomProjection p(64, 512, 23);
  Rng rng(7);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  std::vector<float> full(512);
  p.project(x, full);
  std::vector<float> pre(100);
  p.project_prefix(x, pre);
  for (std::size_t j = 0; j < pre.size(); ++j)
    EXPECT_EQ(pre[j], full[j]) << j;
}

TEST(RandomProjection, DimMismatchThrows) {
  RandomProjection p(4, 8, 1);
  std::vector<float> wrong(5, 0.0f);
  std::vector<float> out(8);
  EXPECT_THROW(p.project(wrong, out), Error);
}

TEST(RandomProjection, ScaleInvarianceOfSignHash) {
  // sign(cx . C) == sign(x . C) for c > 0: hashing ignores magnitude.
  RandomProjection p(8, 128, 13);
  Rng rng(5);
  std::vector<float> x(8), x2(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x[i] = static_cast<float>(rng.gaussian());
    x2[i] = 7.5f * x[i];
  }
  EXPECT_TRUE(p.sign_hash(x) == p.sign_hash(x2));
}

// Goemans–Williamson property: E[HD/k] = theta/pi. Verify the estimator is
// unbiased and concentrates as k grows (error ~ O(1/sqrt(k))).
class AngleEstimationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AngleEstimationSweep, EstimatesKnownAngle) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const double target = 1.0;  // radians
  // Two unit vectors in the plane with angle `target`.
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> y = {static_cast<float>(std::cos(target)),
                          static_cast<float>(std::sin(target))};
  // Average the estimate over several independent projection matrices.
  double est_sum = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    RandomProjection p(2, k, 1000 + static_cast<std::uint64_t>(t));
    const std::size_t hd = p.sign_hash(x).hamming(p.sign_hash(y));
    est_sum += 3.14159265358979 * double(hd) / double(k);
  }
  const double est = est_sum / trials;
  // Std of a single estimate ~ pi*sqrt(p(1-p)/k); averaged over trials.
  const double tol = 4.0 * 3.141592 *
                     std::sqrt(0.25 / (double(k) * trials)) + 0.02;
  EXPECT_NEAR(est, target, tol) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(HashLengths, AngleEstimationSweep,
                         ::testing::Values(64, 128, 256, 512, 768, 1024));

}  // namespace
}  // namespace deepcam::hash
