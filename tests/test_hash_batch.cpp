// Property tests for the batched SimHash path: sign_hash_batch (the fused
// sign_hash_cols codelet, dispatched) must be bitwise identical to the
// per-vector oracle (hash_oracle.hpp: scalar project_cols + pack_signs)
// across awkward input dimensions, patch counts on both sides of the
// codelet's pack threshold, partial-word hash lengths, and IEEE-754
// edge-case inputs (zeros, negative zero, denormals).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hash/random_projection.hpp"
#include "hash_oracle.hpp"

namespace deepcam::hash {
namespace {

/// Deterministic input matrix salted with FP edge cases: exact zeros (the
/// kernel's skip path), negative zeros (sign of 0·C must not flip bits),
/// denormals, and large-magnitude values.
std::vector<float> edge_case_matrix(std::size_t count, std::size_t dim,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> xs(count * dim);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    switch (i % 7) {
      case 0: xs[i] = 0.0f; break;
      case 1: xs[i] = -0.0f; break;
      case 2: xs[i] = 1e-41f; break;   // denormal
      case 3: xs[i] = -1e-41f; break;  // negative denormal
      case 4: xs[i] = 3.0e8f; break;
      default: xs[i] = static_cast<float>(rng.gaussian()); break;
    }
  }
  return xs;
}

TEST(SignHashBatch, BitwiseIdenticalToPerVectorAcrossDimsAndCounts) {
  const std::size_t dims[] = {1, 63, 64, 65, 150, 1024};
  // Either side of the pack threshold (dim 1024 packs or streams).
  constexpr std::size_t kPack = codelet::kPackMinCount;
  const std::size_t counts[] = {0, 1, 7, kPack - 1, kPack, kPack + 1};
  for (std::size_t dim : dims) {
    RandomProjection proj(dim, kMaxHashBits, 1000 + dim);
    const std::size_t wps = proj.words_per_sig();
    for (std::size_t count : counts) {
      const auto xs = edge_case_matrix(count, dim, 77 * dim + count);
      std::vector<std::uint64_t> sigs(count * wps, 0xDEADBEEFDEADBEEFULL);
      proj.sign_hash_batch(xs.data(), count, kMaxHashBits, sigs.data());
      for (std::size_t p = 0; p < count; ++p) {
        const BitVec ref = oracle::sign_hash(
            proj, std::span<const float>(&xs[p * dim], dim));
        for (std::size_t w = 0; w < wps; ++w)
          ASSERT_EQ(sigs[p * wps + w], ref.data()[w])
              << "dim=" << dim << " count=" << count << " p=" << p
              << " word=" << w;
      }
    }
  }
}

TEST(SignHashBatch, PrefixLengthsMatchPerVectorPrefixHash) {
  const std::size_t dim = 65;
  RandomProjection proj(dim, kMaxHashBits, 9);
  for (std::size_t count : {std::size_t{7}, codelet::kPackMinCount + 3}) {
    const auto xs = edge_case_matrix(count, dim, 5);
    for (std::size_t k : {1, 63, 64, 65, 256, 768, 1000}) {
      const std::size_t wps = (k + 63) / 64;
      std::vector<std::uint64_t> sigs(count * wps);
      proj.sign_hash_batch(xs.data(), count, k, sigs.data());
      for (std::size_t p = 0; p < count; ++p) {
        const BitVec ref = oracle::sign_hash(
            proj, std::span<const float>(&xs[p * dim], dim), k);
        for (std::size_t w = 0; w < wps; ++w)
          ASSERT_EQ(sigs[p * wps + w], ref.data()[w])
              << "count=" << count << " k=" << k << " p=" << p
              << " word=" << w;
      }
    }
  }
}

TEST(SignHashBatch, ConsecutiveCallsAcrossShapesAreClean) {
  // Calls on projections of different widths and batch sizes (packed and
  // unpacked) must not leak state into each other.
  RandomProjection big(150, kMaxHashBits, 3);
  RandomProjection small(5, kMaxHashBits, 4);
  const auto xs_big = edge_case_matrix(33, 150, 1);
  const auto xs_small = edge_case_matrix(2, 5, 2);
  std::vector<std::uint64_t> sig_big(33 * big.words_per_sig());
  std::vector<std::uint64_t> sig_small(2 * small.words_per_sig());
  big.sign_hash_batch(xs_big.data(), 33, kMaxHashBits, sig_big.data());
  small.sign_hash_batch(xs_small.data(), 2, kMaxHashBits, sig_small.data());
  for (std::size_t p = 0; p < 2; ++p) {
    const BitVec ref = oracle::sign_hash(
        small, std::span<const float>(&xs_small[p * 5], 5));
    for (std::size_t w = 0; w < small.words_per_sig(); ++w)
      EXPECT_EQ(sig_small[p * small.words_per_sig() + w], ref.data()[w]);
  }
}

TEST(SignHashBatch, HashLengthWiderThanTheMatrixThrows) {
  const RandomProjection proj = RandomProjection::prefix(8, 256, 6);
  const auto xs = edge_case_matrix(3, 8, 7);
  std::vector<std::uint64_t> sigs(3 * 5);  // room for 257 bits each
  proj.sign_hash_batch(xs.data(), 3, 256, sigs.data());  // full width: fine
  EXPECT_THROW(proj.sign_hash_batch(xs.data(), 3, 257, sigs.data()),
               deepcam::Error);
}

}  // namespace
}  // namespace deepcam::hash
