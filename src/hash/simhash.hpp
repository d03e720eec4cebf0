// SimHash signature convenience layer over RandomProjection.
//
// A Signature bundles the packed sign bits with the L2 norm of the source
// vector — exactly the "context" the DeepCAM hardware stores (the norm is
// quantized to 8-bit minifloat at the core/context layer, not here; this
// layer keeps full precision so the quantization is an explicit, testable
// step).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "hash/random_projection.hpp"

namespace deepcam::hash {

/// Full-precision signature of one vector.
struct Signature {
  BitVec bits;    ///< hash_bits() sign bits (prefix gives shorter hashes)
  double norm;    ///< exact L2 norm of the source vector
};

/// Computes the L2 norm of a vector.
double l2_norm(std::span<const float> x);

/// Hashes a batch of equal-length vectors with a shared projection matrix.
class SimHasher {
 public:
  /// `input_dim`: vector length; `seed`: projection matrix seed.
  SimHasher(std::size_t input_dim, std::uint64_t seed,
            std::size_t hash_bits = kMaxHashBits);
  /// Hashes with `proj` (e.g. a RandomProjection::prefix).
  explicit SimHasher(RandomProjection proj);

  const RandomProjection& projection() const { return proj_; }
  std::size_t input_dim() const { return proj_.input_dim(); }
  std::size_t hash_bits() const { return proj_.hash_bits(); }

  /// Signature (full hash_bits) plus exact norm of `x`.
  Signature hash(std::span<const float> x) const;

  /// Estimated angle between two previously hashed vectors at hash length k.
  double estimate_angle(const Signature& a, const Signature& b,
                        std::size_t k) const;

  /// Approximate geometric dot-product at hash length k (paper eq. 4).
  double approx_dot(const Signature& a, const Signature& b, std::size_t k,
                    bool use_pwl = true) const;

 private:
  RandomProjection proj_;
};

}  // namespace deepcam::hash
