#include "hash/random_projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "hash_oracle.hpp"

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

TEST(RandomProjection, PrefixIsBitwiseTheLeadingColumnsOfTheFullMatrix) {
  // prefix() draws every uniform of the n×1024 matrix but runs Box–Muller
  // only where a kept column needs it; the kept entries must be the full
  // matrix's, bit for bit, at odd and word-straddling widths too.
  for (std::size_t n : {1u, 9u, 4096u}) {
    const std::uint64_t seed = core::layer_hash_seed(42, n);
    const RandomProjection full(n, kMaxHashBits, seed);
    for (std::size_t w : {1u, 63u, 64u, 256u, 300u, 1023u, 1024u}) {
      const RandomProjection pre = RandomProjection::prefix(n, w, seed);
      ASSERT_EQ(pre.input_dim(), n);
      ASSERT_EQ(pre.hash_bits(), w);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(0, std::memcmp(pre.data() + i * w,
                                 full.data() + i * kMaxHashBits,
                                 w * sizeof(float)))
            << "n=" << n << " w=" << w << " row " << i;
    }
  }
}

TEST(RandomProjection, PrefixRowsLeaveTheStreamAsTheFullDraw) {
  // A generator that draws a prefix continues exactly where the full draw
  // would have left it.
  constexpr std::size_t kRows = 5, kRowLen = 20, kKeep = 7;
  Rng full(17), rows(17);
  std::vector<float> all(kRows * kRowLen), kept(kRows * kKeep);
  full.fill_gaussian(all.data(), all.size());
  rows.fill_gaussian_rows(kept.data(), kRows, kRowLen, kKeep);
  EXPECT_EQ(full.next(), rows.next());
  for (std::size_t r = 0; r < kRows; ++r)
    EXPECT_EQ(0, std::memcmp(kept.data() + r * kKeep,
                             all.data() + r * kRowLen, kKeep * sizeof(float)));
}

TEST(RandomProjection, RowZeroIsCacheLineAligned) {
  // Every construction path maps C on its own pages, so row 0 sits on a
  // 64-byte boundary; copies map and fill their own storage, and moves keep
  // the source's.
  const auto aligned = [](const RandomProjection& p) {
    return reinterpret_cast<std::uintptr_t>(p.data()) % 64 == 0;
  };
  std::vector<RandomProjection> keep;  // many live mappings at once
  // 600 × 1024 floats exceed a huge page: the huge-page-aligned mapping.
  for (std::size_t n : {1u, 3u, 9u, 150u, 600u}) {
    for (std::size_t k : {1u, 7u, 33u, 256u, 1024u}) {
      keep.emplace_back(n, k, n * 31 + k);
      EXPECT_TRUE(aligned(keep.back())) << n << "x" << k;
      const RandomProjection pre = RandomProjection::prefix(n, k, n + k);
      EXPECT_TRUE(aligned(pre)) << "prefix " << n << "x" << k;
      const RandomProjection copy = pre;
      EXPECT_TRUE(aligned(copy)) << "copy " << n << "x" << k;
      EXPECT_NE(copy.data(), pre.data());
      EXPECT_EQ(0, std::memcmp(copy.data(), pre.data(),
                               n * k * sizeof(float)));
      RandomProjection assigned(1, 1, 0);
      assigned = pre;
      EXPECT_TRUE(aligned(assigned)) << "assigned " << n << "x" << k;
      EXPECT_EQ(0, std::memcmp(assigned.data(), pre.data(),
                               n * k * sizeof(float)));
      const float* const storage = assigned.data();
      const RandomProjection moved = std::move(assigned);
      EXPECT_EQ(moved.data(), storage) << "moved " << n << "x" << k;
    }
  }
}

TEST(RandomProjection, OversizedMatrixThrows) {
  // A size that overflows the byte count, and one no address space holds,
  // fail as a deepcam::Error before anything is drawn.
  EXPECT_THROW(RandomProjection(std::size_t{1} << 62, 1024, 1),
               deepcam::Error);
  EXPECT_THROW(RandomProjection(std::size_t{1} << 50, 1024, 1),
               deepcam::Error);
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

/// sign_hash_batch over the rows of xs (count × input_dim) at k bits:
/// count × ceil(k/64) words.
std::vector<std::uint64_t> hash_rows(const RandomProjection& p,
                                     const std::vector<float>& xs,
                                     std::size_t k) {
  const std::size_t count = xs.size() / p.input_dim();
  std::vector<std::uint64_t> sigs(count * ((k + 63) / 64));
  p.sign_hash_batch(xs.data(), count, k, sigs.data());
  return sigs;
}

TEST(RandomProjection, SignHashIsTheSignOfTheProjection) {
  // Bit j is sign(x · C_col_j), checked against a double-precision dot
  // (no column here projects near zero, where float rounding could decide).
  RandomProjection p(6, 32, 9);
  const std::vector<float> x = {0.3f, -0.1f, 2.0f, -5.0f, 0.0f, 1.0f};
  const std::uint64_t h = hash_rows(p, x, 32)[0];
  for (std::size_t j = 0; j < 32; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < 6; ++i) dot += double(x[i]) * p.at(i, j);
    ASSERT_GT(std::abs(dot), 1e-4) << j;
    EXPECT_EQ((h >> j) & 1, dot >= 0.0 ? 1u : 0u) << j;
  }
}

TEST(RandomProjection, PrefixHashIsPrefixOfFullHash) {
  // Hashing straight to k bits projects only the first k columns; by the
  // prefix-of-iid-columns property it is the full hash's first k bits.
  RandomProjection p(10, 1024, 11);
  Rng rng(3);
  std::vector<float> x(10);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  const std::vector<std::uint64_t> full = hash_rows(p, x, 1024);
  for (std::size_t k : {256u, 512u, 768u}) {
    const std::vector<std::uint64_t> pre = hash_rows(p, x, k);
    ASSERT_EQ(pre.size(), k / 64);
    for (std::size_t w = 0; w < pre.size(); ++w)
      EXPECT_EQ(pre[w], full[w]) << "k=" << k << " word " << w;
  }
}

TEST(RandomProjection, SignHashPrefixEqualsTruncatedFullHash) {
  // The batched hash at k bits must equal the per-vector oracle's full
  // 1024-bit signature truncated to k, bitwise, including at non-word-
  // aligned k (the partial last word's high bits stay zero).
  RandomProjection p(150, 1024, 21);
  Rng rng(6);
  std::vector<float> x(150);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = (i % 5 == 0) ? 0.0f : static_cast<float>(rng.gaussian());
  const BitVec full = oracle::sign_hash(p, x);
  for (std::size_t k : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{256}, std::size_t{1023},
                        std::size_t{1024}}) {
    const std::vector<std::uint64_t> pre = hash_rows(p, x, k);
    const BitVec want = full.prefix(k);
    ASSERT_EQ(pre.size(), want.word_count());
    for (std::size_t w = 0; w < pre.size(); ++w)
      EXPECT_EQ(pre[w], want.data()[w]) << "k=" << k << " word " << w;
  }
}

TEST(RandomProjection, ScaleInvarianceOfSignHash) {
  // sign(cx . C) == sign(x . C) for c > 0: hashing ignores magnitude.
  RandomProjection p(8, 128, 13);
  Rng rng(5);
  std::vector<float> xx(16);  // x, then 7.5 x
  for (std::size_t i = 0; i < 8; ++i) {
    xx[i] = static_cast<float>(rng.gaussian());
    xx[8 + i] = 7.5f * xx[i];
  }
  const std::vector<std::uint64_t> sigs = hash_rows(p, xx, 128);
  EXPECT_EQ(sigs[0], sigs[2]);
  EXPECT_EQ(sigs[1], sigs[3]);
}

// Goemans–Williamson property: E[HD/k] = theta/pi. Verify the estimator is
// unbiased and concentrates as k grows (error ~ O(1/sqrt(k))).
class AngleEstimationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AngleEstimationSweep, EstimatesKnownAngle) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const double target = 1.0;  // radians
  // Two unit vectors in the plane with angle `target`.
  const std::vector<float> xy = {1.0f, 0.0f,
                                 static_cast<float>(std::cos(target)),
                                 static_cast<float>(std::sin(target))};
  // Average the estimate over several independent projection matrices.
  double est_sum = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    RandomProjection p(2, k, 1000 + static_cast<std::uint64_t>(t));
    const std::vector<std::uint64_t> sigs = hash_rows(p, xy, k);
    const std::size_t hd =
        hamming_prefix_words(sigs.data(), sigs.data() + k / 64, k);
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
