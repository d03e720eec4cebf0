#include "hash/random_projection.hpp"

#include <algorithm>
#include <cstdint>

#include "codelet/codelet.hpp"
#include "common/error.hpp"

namespace deepcam::hash {

namespace {

/// Packs `nbits` sign bits (proj[j] >= 0, so +0/-0 both hash to 1 and NaN to
/// 0 on every ISA) into words via the dispatched sign-packing codelet.
void pack_signs(const float* proj, std::size_t nbits, std::uint64_t* words) {
  codelet::kernels().pack_signs(proj, nbits, words);
}

}  // namespace

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

void RandomProjection::project_cols(const float* xs, std::size_t count,
                                    std::size_t ncols, float* out) const {
  // Dispatched GEMM codelet (scalar / AVX2 / AVX-512). For any fixed output
  // (p, j) every ISA runs the adds over i in ascending order, unfused, with
  // the same zero-skip as the original scalar GEMV — so every entry point
  // built on this kernel is bitwise identical to the per-vector path,
  // regardless of which ISA dispatch selected.
  codelet::kernels().project_cols(xs, data(), count, input_dim_,
                                  hash_bits_, ncols, out);
}

void RandomProjection::project(std::span<const float> x,
                               std::span<float> out) const {
  DEEPCAM_CHECK_MSG(x.size() == input_dim_, "projection input dim mismatch");
  DEEPCAM_CHECK(out.size() == hash_bits_);
  project_cols(x.data(), 1, hash_bits_, out.data());
}

void RandomProjection::project_prefix(std::span<const float> x,
                                      std::span<float> out) const {
  DEEPCAM_CHECK_MSG(x.size() == input_dim_, "projection input dim mismatch");
  DEEPCAM_CHECK(out.size() <= hash_bits_);
  project_cols(x.data(), 1, out.size(), out.data());
}

void RandomProjection::project_batch(const float* xs, std::size_t count,
                                     float* out) const {
  project_cols(xs, count, hash_bits_, out);
}

void RandomProjection::sign_hash_batch(const float* xs, std::size_t count,
                                       std::size_t k,
                                       std::uint64_t* sig_words) const {
  DEEPCAM_CHECK(k <= hash_bits_);
  codelet::kernels().sign_hash_cols(xs, data(), count, input_dim_,
                                    hash_bits_, k, sig_words);
}

BitVec RandomProjection::sign_hash(std::span<const float> x) const {
  std::vector<float> proj(hash_bits_);
  project(x, proj);
  BitVec bits(hash_bits_);
  pack_signs(proj.data(), hash_bits_, bits.data());
  return bits;
}

BitVec RandomProjection::sign_hash_prefix(std::span<const float> x,
                                          std::size_t k) const {
  DEEPCAM_CHECK(k <= hash_bits_);
  std::vector<float> proj(k);
  project_prefix(x, proj);
  BitVec bits(k);
  pack_signs(proj.data(), k, bits.data());
  return bits;
}

}  // namespace deepcam::hash
