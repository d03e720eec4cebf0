// Gaussian random-projection matrix for SimHash signature generation.
//
// Section II-B of the paper: a vector x ∈ R^n is hashed to k bits by
// hash(x) = sign(x·C) with C ∈ R^{n×k}, C_ij ~ N(0,1). The Hamming distance
// between two hashes estimates the angle between the vectors
// (Goemans–Williamson):  θ ≈ π/k · HD(hash(x), hash(y)).
//
// Key implementation property (DESIGN.md §5.1, the "prefix-hash" trick):
// the columns of C are i.i.d., so the first k columns of a 1024-column C are
// themselves a valid n×k Gaussian matrix. Every layer's C is therefore the
// first columns of one n×kMaxHashBits draw, and any hash length k realizes
// as a prefix of the full signature, which makes variable-hash-length
// sweeps essentially free. A consumer that reads at most w bits stores only
// the first w columns (RandomProjection::prefix): bitwise the same entries,
// at w/1024 of the memory and of the Box–Muller work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace deepcam::hash {

/// Hash lengths supported by the dynamic-size CAM (256-bit chunks).
inline constexpr int kChunkBits = 256;
inline constexpr int kMaxHashBits = 1024;
inline constexpr int kNumHashLengths = 4;
/// The four realizable hash lengths: 256, 512, 768, 1024.
inline constexpr int kHashLengths[kNumHashLengths] = {256, 512, 768, 1024};

/// A dense n×k Gaussian projection matrix, stored row-major (k = columns),
/// row 0 on a 64-byte boundary.
class RandomProjection {
 public:
  /// Generates an `input_dim × hash_bits` matrix from `seed`.
  RandomProjection(std::size_t input_dim, std::size_t hash_bits,
                   std::uint64_t seed);
  /// The first `width` columns of RandomProjection(input_dim, kMaxHashBits,
  /// seed), bitwise, drawn without generating the others: the full matrix's
  /// uniforms are all drawn in stream order, but Box–Muller runs only on the
  /// pairs that overlap the kept columns. `width` is at most kMaxHashBits;
  /// hash_bits() of the result is `width`.
  static RandomProjection prefix(std::size_t input_dim, std::size_t width,
                                 std::uint64_t seed);

  // Copies re-align their own storage; moves keep the buffer.
  RandomProjection(const RandomProjection& other);
  RandomProjection& operator=(const RandomProjection& other);
  RandomProjection(RandomProjection&&) noexcept = default;
  RandomProjection& operator=(RandomProjection&&) noexcept = default;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hash_bits() const { return hash_bits_; }
  /// Words of one packed signature (64 sign bits per word).
  std::size_t words_per_sig() const { return (hash_bits_ + 63) / 64; }

  /// Raw matrix element C[row][col].
  float at(std::size_t row, std::size_t col) const {
    return data()[row * hash_bits_ + col];
  }
  /// C itself: input_dim rows of hash_bits floats, 64-byte aligned.
  const float* data() const { return storage_.data() + offset_; }

  /// Projects x (length input_dim) onto all columns: out[j] = Σ_i x_i C_ij.
  /// `out` must have hash_bits elements.
  void project(std::span<const float> x, std::span<float> out) const;

  /// Projects x onto the first out.size() columns only. Each column's sum is
  /// independent, so this equals the first out.size() entries of project()
  /// bitwise, at a proportional fraction of the cost.
  void project_prefix(std::span<const float> x, std::span<float> out) const;

  /// Batched projection of `count` row-major vectors (xs = count×input_dim,
  /// contiguous): out[p*hash_bits + j] = Σ_i xs[p][i]·C_ij. Runs the
  /// dispatched project_cols codelet (register tiles over column panels of
  /// C, packed contiguous for larger batches); for every output the
  /// accumulation order over i matches project(), so results are bitwise
  /// identical to `count` individual project() calls.
  void project_batch(const float* xs, std::size_t count, float* out) const;

  /// Batched SimHash: hashes `count` row-major vectors to `k` bits
  /// (projecting only the first k columns) into `sig_words` (count ×
  /// ceil(k/64) words). One call of the fused sign_hash_cols codelet for the
  /// whole batch: each column panel of C is read once per call, and the
  /// signs are packed straight from registers with no float projection in
  /// between. Bitwise identical to `count` sign_hash_prefix() calls — and,
  /// for k == hash_bits(), to `count` sign_hash() calls. Needs no caller
  /// scratch and keeps nothing allocated between calls.
  void sign_hash_batch(const float* xs, std::size_t count, std::size_t k,
                       std::uint64_t* sig_words) const;

  /// Full SimHash signature: bit j = (x·C_col_j >= 0).
  BitVec sign_hash(std::span<const float> x) const;

  /// SimHash signature truncated to the first `k` bits. Projects only the
  /// first k columns — bitwise identical to sign_hash(x).prefix(k) (prefix
  /// of i.i.d. columns) at k/hash_bits of the work.
  BitVec sign_hash_prefix(std::span<const float> x, std::size_t k) const;

 private:
  /// The float projection behind project / project_prefix / project_batch:
  /// computes the first `ncols` columns for `count` vectors into `out`
  /// (count × ncols row-major).
  void project_cols(const float* xs, std::size_t count, std::size_t ncols,
                    float* out) const;

  /// Uninitialized input_dim × hash_bits storage.
  RandomProjection(std::size_t input_dim, std::size_t hash_bits);
  float* mutable_data() { return storage_.data() + offset_; }

  std::size_t input_dim_;
  std::size_t hash_bits_;
  // Row-major [input_dim][hash_bits] from storage_[offset_] on. The vector
  // holds up to 15 spare floats in front, so row 0 starts on a 64-byte
  // boundary wherever malloc puts the buffer (an aligned allocator would
  // keep freed matrices from being reused).
  std::vector<float> storage_;
  std::size_t offset_ = 0;
};

}  // namespace deepcam::hash
