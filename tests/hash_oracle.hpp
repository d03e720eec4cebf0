// Per-vector reference for the batched hashing path.
//
// The library hashes through one call, RandomProjection::sign_hash_batch
// (the fused sign_hash_cols codelet, dispatched to the host's ISA), and
// ContextGenerator adds norms around it. This oracle recomputes the same
// results one vector at a time from their definition, on the scalar
// codelets: the float projection x·C over the first k columns
// (project_cols), its signs packed 64 per word (pack_signs), the L2 norm
// summed in double, and that norm's minifloat code. Tests compare the
// batched path against it bitwise.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/minifloat.hpp"
#include "hash/random_projection.hpp"

namespace deepcam::oracle {

/// The first k sign bits of x·C: bit j = (Σ_i x_i C_ij >= 0).
inline BitVec sign_hash(const hash::RandomProjection& c,
                        std::span<const float> x, std::size_t k) {
  DEEPCAM_CHECK(x.size() == c.input_dim() && k <= c.hash_bits());
  const codelet::Kernels& scalar =
      *codelet::kernels_for(codelet::Isa::kScalar);
  std::vector<float> proj(k);
  scalar.project_cols(x.data(), c.data(), 1, c.input_dim(), c.hash_bits(), k,
                      proj.data());
  BitVec bits(k);
  scalar.pack_signs(proj.data(), k, bits.data());
  return bits;
}

/// The full-width signature.
inline BitVec sign_hash(const hash::RandomProjection& c,
                        std::span<const float> x) {
  return sign_hash(c, x, c.hash_bits());
}

/// ‖x‖₂, summed in double in index order.
inline double l2_norm(std::span<const float> x) {
  double s = 0.0;
  for (float v : x) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

/// One context: what a ContextBatch holds per entry.
struct Context {
  BitVec bits;
  std::uint8_t norm_code;
  double exact_norm;

  /// The norm as the hardware decodes it.
  double norm() const { return MiniFloat::decode(norm_code); }
};

inline Context context(const hash::RandomProjection& c,
                       std::span<const float> x, std::size_t k) {
  const double norm = l2_norm(x);
  return {sign_hash(c, x, k), MiniFloat::encode(static_cast<float>(norm)),
          norm};
}

}  // namespace deepcam::oracle
