#include "hash/random_projection.hpp"

#include <algorithm>
#include <cstdint>

#include "codelet/codelet.hpp"
#include "common/error.hpp"

namespace deepcam::hash {

RandomProjection::RandomProjection(std::size_t input_dim,
                                   std::size_t hash_bits)
    : input_dim_(input_dim), hash_bits_(hash_bits) {
  DEEPCAM_CHECK(input_dim > 0);
  DEEPCAM_CHECK(hash_bits > 0);
  constexpr std::size_t kAlignFloats = 64 / sizeof(float);
  storage_.resize(input_dim * hash_bits + kAlignFloats - 1);
  // malloc aligns to at least sizeof(float), so whole floats reach the
  // boundary.
  const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
  offset_ = (kAlignFloats - addr / sizeof(float) % kAlignFloats) % kAlignFloats;
}

RandomProjection::RandomProjection(std::size_t input_dim,
                                   std::size_t hash_bits, std::uint64_t seed)
    : RandomProjection(input_dim, hash_bits) {
  Rng rng(seed);
  rng.fill_gaussian(mutable_data(), input_dim * hash_bits);
}

RandomProjection RandomProjection::prefix(std::size_t input_dim,
                                          std::size_t width,
                                          std::uint64_t seed) {
  // fill_gaussian_rows pairs a row's draws, so the full row must be even.
  static_assert(kMaxHashBits % 2 == 0);
  DEEPCAM_CHECK_MSG(width <= static_cast<std::size_t>(kMaxHashBits),
                    "a prefix is at most kMaxHashBits wide");
  if (width == static_cast<std::size_t>(kMaxHashBits))
    return RandomProjection(input_dim, width, seed);
  RandomProjection p(input_dim, width);
  Rng rng(seed);
  rng.fill_gaussian_rows(p.mutable_data(), input_dim, kMaxHashBits, width);
  return p;
}

RandomProjection::RandomProjection(const RandomProjection& other)
    : RandomProjection(other.input_dim_, other.hash_bits_) {
  std::copy_n(other.data(), input_dim_ * hash_bits_, mutable_data());
}

RandomProjection& RandomProjection::operator=(const RandomProjection& other) {
  if (this != &other) *this = RandomProjection(other);
  return *this;
}

void RandomProjection::sign_hash_batch(const float* xs, std::size_t count,
                                       std::size_t k,
                                       std::uint64_t* sig_words) const {
  DEEPCAM_CHECK_MSG(k <= hash_bits_, "hash length wider than the projection");
  codelet::kernels().sign_hash_cols(xs, data(), count, input_dim_,
                                    hash_bits_, k, sig_words);
}

}  // namespace deepcam::hash
