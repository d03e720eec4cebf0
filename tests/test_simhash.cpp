// SimHash estimation properties (paper §II-B, Fig. 2): the Hamming
// distance between two signatures under one C estimates the angle between
// the vectors (θ ≈ π·HD/k), and with their norms their dot product (paper
// eq. 4). Signatures come from the per-vector oracle (hash_oracle.hpp),
// which the batched hashing path matches bitwise (test_hash_batch,
// test_context).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/context.hpp"
#include "hash/cosine_approx.hpp"
#include "hash/random_projection.hpp"
#include "hash_oracle.hpp"

namespace deepcam::hash {
namespace {

using oracle::l2_norm;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  deepcam::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

double exact_dot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += double(a[i]) * b[i];
  return s;
}

/// The angle estimate between a and b from their signatures under c, at
/// hash length k.
double estimate_angle(const RandomProjection& c, const std::vector<float>& a,
                      const std::vector<float>& b, std::size_t k) {
  const std::size_t hd =
      oracle::sign_hash(c, a).hamming_prefix(oracle::sign_hash(c, b), k);
  return angle_from_hamming(hd, k);
}

/// The approximate dot product of a and b (paper eq. 4) at hash length k,
/// from exact norms.
double approx_dot(const RandomProjection& c, const std::vector<float>& a,
                  const std::vector<float>& b, std::size_t k, bool use_pwl) {
  const std::size_t hd =
      oracle::sign_hash(c, a).hamming_prefix(oracle::sign_hash(c, b), k);
  return hash::approx_dot(l2_norm(a), l2_norm(b), hd, k, use_pwl);
}

TEST(L2Norm, KnownValues) {
  // The exact norm a context carries.
  core::ContextGenerator gen(2, 1);
  core::ContextBatch ctx;
  const std::vector<float> v = {3.0f, 4.0f, 0.0f, 0.0f};  // two vectors
  gen.contexts_into(v.data(), 2, ctx, kMaxHashBits);
  EXPECT_DOUBLE_EQ(ctx.exact_norm(0), 5.0);
  EXPECT_DOUBLE_EQ(ctx.exact_norm(1), 0.0);
}

TEST(SimHash, SelfAngleIsZero) {
  const RandomProjection c(8, kMaxHashBits, 3);
  const auto v = random_vec(8, 4);
  for (std::size_t k : {256u, 512u, 768u, 1024u})
    EXPECT_DOUBLE_EQ(estimate_angle(c, v, v, k), 0.0);
}

TEST(SimHash, OppositeVectorsNearPi) {
  const RandomProjection c(8, kMaxHashBits, 5);
  auto v = random_vec(8, 6);
  auto neg = v;
  for (auto& x : neg) x = -x;
  // sign(x.C) and sign(-x.C) differ in every bit (ties measure-zero).
  EXPECT_NEAR(estimate_angle(c, v, neg, 1024), 3.14159265, 1e-6);
}

TEST(SimHash, PaperExampleFig2) {
  // The paper's §II-B example: algebraic dot-product 2.0765. The approx
  // dot should converge toward it as the hash length grows.
  std::vector<float> x = {0.6012f, 0.8383f, 0.6859f, 0.5712f};
  std::vector<float> y = {0.9044f, 0.5352f, 0.8110f, 0.9243f};
  const double exact = exact_dot(x, y);
  EXPECT_NEAR(exact, 2.0765, 1e-3);
  // Average over independent matrices to control SimHash variance.
  double err_short = 0.0, err_long = 0.0;
  const int trials = 16;
  for (int t = 0; t < trials; ++t) {
    const RandomProjection c(4, kMaxHashBits,
                             100 + static_cast<std::uint64_t>(t));
    err_short += std::abs(approx_dot(c, x, y, 64, /*use_pwl=*/false) - exact);
    err_long +=
        std::abs(approx_dot(c, x, y, 1024, /*use_pwl=*/false) - exact);
  }
  err_short /= trials;
  err_long /= trials;
  EXPECT_LT(err_long, err_short + 0.05);  // longer hashes at least as good
  EXPECT_LT(err_long / exact, 0.15);      // within ~15% at k=1024
}

TEST(SimHash, ApproxDotTracksExactForRandomVectors) {
  const std::size_t n = 64;
  const RandomProjection c(n, kMaxHashBits, 7);
  double rel_err_sum = 0.0;
  int count = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto a = random_vec(n, 200 + s);
    const auto b = random_vec(n, 300 + s);
    const double exact = exact_dot(a, b);
    const double norm_product = l2_norm(a) * l2_norm(b);
    if (std::abs(exact) < 0.05 * norm_product) continue;  // ill-conditioned
    const double approx = approx_dot(c, a, b, 1024, /*use_pwl=*/false);
    rel_err_sum += std::abs(approx - exact) / norm_product;
    ++count;
  }
  ASSERT_GT(count, 5);
  // Mean deviation relative to |x||y| stays small at k=1024.
  EXPECT_LT(rel_err_sum / count, 0.08);
}

// Property: prefix-derived hashes (our VHL trick) have the same estimation
// quality as independently drawn matrices of that length.
TEST(SimHash, PrefixHashStatisticallyEquivalentToFresh) {
  const std::size_t n = 32, k = 256;
  const auto x = random_vec(n, 50);
  const auto y = random_vec(n, 51);
  const double true_angle =
      std::acos(exact_dot(x, y) / (l2_norm(x) * l2_norm(y)));

  double prefix_est = 0.0, fresh_est = 0.0;
  const int trials = 24;
  for (int t = 0; t < trials; ++t) {
    const RandomProjection big(n, kMaxHashBits,
                               400 + static_cast<std::uint64_t>(t));
    prefix_est += estimate_angle(big, x, y, k);
    const RandomProjection small(n, k, 700 + static_cast<std::uint64_t>(t));
    fresh_est += estimate_angle(small, x, y, k);
  }
  prefix_est /= trials;
  fresh_est /= trials;
  EXPECT_NEAR(prefix_est, true_angle, 0.12);
  EXPECT_NEAR(fresh_est, true_angle, 0.12);
  EXPECT_NEAR(prefix_est, fresh_est, 0.15);
}

class HashLengthErrorSweep : public ::testing::TestWithParam<int> {};

// Fig. 2 property: approximation error decreases (stochastically) with k.
TEST_P(HashLengthErrorSweep, ErrorWithinJLBound) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const std::size_t n = 32;
  double mean_abs_angle_err = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto a = random_vec(n, 900 + static_cast<std::uint64_t>(t));
    const auto b = random_vec(n, 1900 + static_cast<std::uint64_t>(t));
    const double cosv =
        exact_dot(a, b) / (l2_norm(a) * l2_norm(b));
    const double angle = std::acos(std::clamp(cosv, -1.0, 1.0));
    const RandomProjection c(n, kMaxHashBits,
                             5000 + static_cast<std::uint64_t>(t));
    const double est = estimate_angle(c, a, b, k);
    mean_abs_angle_err += std::abs(est - angle);
  }
  mean_abs_angle_err /= trials;
  // E|err| <= ~pi * sqrt(p(1-p)/k) <= pi/(2 sqrt(k)); allow 2.5x slack.
  EXPECT_LT(mean_abs_angle_err, 2.5 * 3.141592 / (2.0 * std::sqrt(double(k))))
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(HashLengths, HashLengthErrorSweep,
                         ::testing::Values(256, 512, 768, 1024));

}  // namespace
}  // namespace deepcam::hash
