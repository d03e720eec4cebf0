#include "hash/simhash.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "hash/cosine_approx.hpp"

namespace deepcam::hash {

double l2_norm(std::span<const float> x) {
  double s = 0.0;
  for (float v : x) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

SimHasher::SimHasher(std::size_t input_dim, std::uint64_t seed,
                     std::size_t hash_bits)
    : proj_(input_dim, hash_bits, seed) {}

SimHasher::SimHasher(RandomProjection proj) : proj_(std::move(proj)) {}

Signature SimHasher::hash(std::span<const float> x) const {
  Signature sig;
  sig.bits = proj_.sign_hash(x);
  sig.norm = l2_norm(x);
  return sig;
}

double SimHasher::estimate_angle(const Signature& a, const Signature& b,
                                 std::size_t k) const {
  DEEPCAM_CHECK(k <= proj_.hash_bits());
  const std::size_t hd = a.bits.hamming_prefix(b.bits, k);
  return angle_from_hamming(hd, k);
}

double SimHasher::approx_dot(const Signature& a, const Signature& b,
                             std::size_t k, bool use_pwl) const {
  DEEPCAM_CHECK(k <= proj_.hash_bits());
  const std::size_t hd = a.bits.hamming_prefix(b.bits, k);
  return hash::approx_dot(a.norm, b.norm, hd, k, use_pwl);
}

}  // namespace deepcam::hash
