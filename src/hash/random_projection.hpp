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
#include <memory>

#include "common/rng.hpp"

namespace deepcam::hash {

/// Hash lengths supported by the dynamic-size CAM (256-bit chunks).
inline constexpr int kChunkBits = 256;
inline constexpr int kMaxHashBits = 1024;
inline constexpr int kNumHashLengths = 4;
/// The four realizable hash lengths: 256, 512, 768, 1024.
inline constexpr int kHashLengths[kNumHashLengths] = {256, 512, 768, 1024};

/// A dense n×k Gaussian projection matrix, stored row-major (k = columns)
/// in its own page-aligned anonymous mapping (huge-page aligned, with
/// transparent huge pages asked for, from 2 MB up).
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

  // Copies map their own storage; moves keep the mapping.
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
  /// C itself: input_dim rows of hash_bits floats, page-aligned.
  const float* data() const { return storage_.get(); }

  /// Batched SimHash, the one hashing call: hashes `count` row-major
  /// vectors (xs = count × input_dim, contiguous) to `k` <= hash_bits() bits
  /// into `sig_words` (count × ceil(k/64) words), bit j of vector p being
  /// (Σ_i xs[p][i]·C_ij >= 0). Only the first k columns are projected, so
  /// by the prefix trick the result is bitwise the first k bits of the
  /// full-width hash. One call of the fused sign_hash_cols codelet for the
  /// whole batch: each column panel of C is read once per call, and the
  /// signs are packed straight from registers with no float projection in
  /// between — bitwise project_cols followed by pack_signs per vector (the
  /// scalar codelets are the test oracle). Needs no caller scratch and
  /// keeps nothing allocated between calls.
  void sign_hash_batch(const float* xs, std::size_t count, std::size_t k,
                       std::uint64_t* sig_words) const;

 private:
  /// Zeroed input_dim × hash_bits storage.
  RandomProjection(std::size_t input_dim, std::size_t hash_bits);
  float* mutable_data() { return storage_.get(); }

  /// Unmaps `bytes` bytes of storage.
  struct Unmap {
    std::size_t bytes;
    void operator()(float* p) const;
  };

  std::size_t input_dim_;
  std::size_t hash_bits_;
  // Row-major [input_dim][hash_bits]. The matrix is mapped, not malloc'd:
  // a freed C goes straight back to the kernel, where malloc would raise
  // its mmap threshold past C's size after the first free and then serve
  // later matrices from per-thread arenas that keep their pages.
  std::unique_ptr<float[], Unmap> storage_;
};

}  // namespace deepcam::hash
