// Context generation (paper §III-A, Fig. 4).
//
// A "context" is what DeepCAM stores/searches: the SimHash signature of a
// reshaped weight kernel or activation patch, plus its L2 norm in 8-bit
// minifloat. One ContextGenerator exists per CAM-mapped layer and owns that
// layer's random projection matrix C (weights and activations MUST be hashed
// with the same C, or the Hamming distance is meaningless).
//
// Weight contexts are generated offline (pre-processing software); the first
// layer's activation contexts likewise. Intermediate activations are hashed
// by the online transformation unit, whose costs the accelerator charges.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hash/random_projection.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/tensor.hpp"

namespace deepcam::core {

/// Derives the projection-matrix seed of the CAM layer at graph node
/// `node_index`. Called only by hash_cam_layer (below), the single recipe
/// every consumer (CompiledModel, the planner, the tuner) hashes through,
/// so all of them use identical projection matrices.
std::uint64_t layer_hash_seed(std::uint64_t base, std::size_t node_index);

/// A run of contexts as the CAM pass loop reads them: `count` packed
/// signatures of `wps` words each and the norms the post-processing unit
/// multiplies. Borrowed from a ContextBatch (ContextBatch::slice), e.g. one
/// sample's contexts out of a group hashed together.
struct ContextSlice {
  const std::uint64_t* words = nullptr;  // count × wps
  std::size_t wps = 0;
  std::size_t count = 0;
  const double* norms = nullptr;  // count

  std::size_t size() const { return count; }
  std::span<const std::uint64_t> sig_span(std::size_t i) const {
    return {words + i * wps, wps};
  }
};

/// Structure-of-arrays arena of contexts: one contiguous word buffer for all
/// signatures plus flat norm-code / decoded-norm / exact-norm arrays (the
/// minifloat code is decoded once per context, not once per dot product
/// that uses it). reset() never shrinks capacity, so a Worker that reuses
/// one batch across layers and samples performs no steady-state heap
/// allocation of its own (the scratch for the im2col patch matrix lives
/// here too, for the same reason; the hash kernel's packed C panel is a
/// per-call buffer of the codelet). Accessors are unchecked.
class ContextBatch {
 public:
  /// Prepares the arena for `count` contexts of `sig_bits` signature bits.
  /// Contents become unspecified; capacity only grows.
  void reset(std::size_t count, std::size_t sig_bits) {
    count_ = count;
    sig_bits_ = sig_bits;
    wps_ = (sig_bits + 63) / 64;
    if (words_.size() < count * wps_) words_.resize(count * wps_);
    if (norm_code_.size() < count) norm_code_.resize(count);
    if (norm_.size() < count) norm_.resize(count);
    if (exact_norm_.size() < count) exact_norm_.resize(count);
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t sig_bits() const { return sig_bits_; }
  std::size_t words_per_sig() const { return wps_; }

  const std::uint64_t* sig(std::size_t i) const {
    return words_.data() + i * wps_;
  }
  std::uint64_t* sig(std::size_t i) { return words_.data() + i * wps_; }
  std::span<const std::uint64_t> sig_span(std::size_t i) const {
    return {sig(i), wps_};
  }

  std::uint8_t norm_code(std::size_t i) const { return norm_code_[i]; }
  double exact_norm(std::size_t i) const { return exact_norm_[i]; }

  /// All size() norms as the post-processing unit multiplies them: the
  /// decoded minifloat norms (MiniFloat::decode of each code), or the exact
  /// norms when `minifloat` is false (the fp32-norm ablation).
  const double* norms(bool minifloat) const {
    return minifloat ? norm_.data() : exact_norm_.data();
  }

  /// Contexts first .. first + count, with norms(minifloat).
  ContextSlice slice(std::size_t first, std::size_t count,
                     bool minifloat) const {
    return {sig(first), wps_, count, norms(minifloat) + first};
  }

  /// Frees the scratch (the im2col matrix) while keeping the contexts. Call
  /// on batches that outlive their construction (pre-hashed weight
  /// contexts, tuner probe caches) — a Worker's reused arena should keep its
  /// scratch, that is the point of the arena.
  void release_scratch() {
    patch_scratch_ = {};
  }

 private:
  friend class ContextGenerator;  // builders fill the arrays + use scratch

  std::size_t count_ = 0;
  std::size_t sig_bits_ = 0;
  std::size_t wps_ = 0;
  std::vector<std::uint64_t> words_;      // count × wps_
  std::vector<std::uint8_t> norm_code_;   // count
  std::vector<double> norm_;              // count, decoded norm_code_
  std::vector<double> exact_norm_;        // count
  std::vector<float> patch_scratch_;      // im2col patch matrix (P × n)
};

class ContextGenerator {
 public:
  /// `input_dim` = context vector length n (C·kh·kw for conv, in_features
  /// for linear); `seed` determines the projection matrix, of which the
  /// generator keeps the first `width` columns (RandomProjection::prefix),
  /// so it hashes to at most `width` bits.
  ContextGenerator(std::size_t input_dim, std::uint64_t seed,
                   std::size_t width = hash::kMaxHashBits);

  std::size_t input_dim() const { return proj_.input_dim(); }

  // ---- allocation-free SoA batch pipeline -------------------------------
  // Every form below is one fused batch hash
  // (RandomProjection::sign_hash_batch) over a contiguous matrix of context
  // vectors, plus their norms. Each call names its hash length `hash_bits`
  // (at most the generator's width): signatures are prefixes of i.i.d.
  // columns, so hashing straight to a layer's resolved length k is bitwise
  // identical to hashing full-width and reading the first k bits, at
  // k/1024 of the GEMM work.

  /// Hashes `count` contiguous row-major vectors (count × input_dim) into
  /// `out`: per vector, `hash_bits` signature bits, its exact L2 norm and
  /// that norm's minifloat code.
  void contexts_into(const float* xs, std::size_t count, ContextBatch& out,
                     std::size_t hash_bits) const;

  /// The contexts of every im2col patch of image 0 of every tensor in
  /// `inputs`, input after input, each input's patches in (oy, ox)
  /// row-major order — the dot-product order the output map needs. The
  /// patch matrix is assembled in `out`'s reusable scratch and hashed in
  /// one batch, so C is read once for the whole group rather than once per
  /// input.
  void activation_contexts_into(std::span<const nn::Tensor* const> inputs,
                                const nn::ConvSpec& spec, ContextBatch& out,
                                std::size_t hash_bits) const;

  /// The contexts of image 0 of every tensor in `inputs`, flattened (for
  /// linear layers): one context per input, hashed in one batch.
  void activation_context_flat_into(std::span<const nn::Tensor* const> inputs,
                                    ContextBatch& out,
                                    std::size_t hash_bits) const;

  /// Contexts of a layer's kernels, stored as contiguous rows of
  /// input_dim weights: a convolution's weights (one row per output
  /// channel) or a linear layer's weight matrix.
  ContextBatch weight_context_batch(std::span<const float> kernels,
                                    std::size_t hash_bits) const;

 private:
  hash::RandomProjection proj_;
};

/// CAM-mapped (Conv2D/Linear) graph nodes of `model`, in execution order.
std::vector<std::size_t> cam_nodes(const nn::Model& model);

/// One CAM layer's offline hashing: its generator (projection matrix C, as
/// wide as the weight contexts), its kernels' weight contexts — every hash
/// length up to their width reads their prefix — and a copy of its bias.
struct HashedLayer {
  std::size_t node_index;  // in the model graph
  ContextGenerator ctxgen;
  ContextBatch weights;
  std::vector<float> bias;
};

/// The single recipe for hashing CAM layer `node` of `model`: C is seeded
/// by layer_hash_seed from `hash_seed` and `node`, so activations hashed
/// with the returned generator are comparable with the returned weight
/// contexts. Both are `hash_bits` wide (default: full width): the generator
/// keeps only the first `hash_bits` columns of C.
/// Throws an Error if `node` is not a Conv2D/Linear node.
HashedLayer hash_cam_layer(const nn::Model& model, std::size_t node,
                           std::uint64_t hash_seed,
                           std::size_t hash_bits = hash::kMaxHashBits);

/// Every CAM layer of one model hashed at one seed, in cam_nodes order.
/// Immutable once built and shared (shared_ptr) by every CompiledModel
/// compiled from it, e.g. one per hash tier. Like CompiledModel it
/// snapshots the weights; the model must outlive it.
struct HashedWeights {
  const nn::Model* model;
  std::uint64_t hash_seed;
  std::vector<HashedLayer> layers;
};

std::shared_ptr<const HashedWeights> hash_weights(
    const nn::Model& model, std::uint64_t hash_seed,
    std::size_t hash_bits = hash::kMaxHashBits);
/// Only a pointer to the model is stored: reject a temporary.
std::shared_ptr<const HashedWeights> hash_weights(nn::Model&&, std::uint64_t,
                                                  std::size_t = 0) = delete;

}  // namespace deepcam::core
