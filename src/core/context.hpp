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
#include <vector>

#include "common/bitvec.hpp"
#include "common/minifloat.hpp"
#include "hash/simhash.hpp"
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

/// One CAM-resident entry: signature bits + minifloat-coded L2 norm.
struct Context {
  BitVec bits;             ///< full-length (1024-bit) signature
  std::uint8_t norm_code;  ///< L2 norm, 8-bit minifloat (paper's format)
  double exact_norm;       ///< reference value kept for ablations/tests

  /// The norm as hardware would decode it.
  double norm() const { return MiniFloat::decode(norm_code); }
};

/// Structure-of-arrays arena of contexts: one contiguous word buffer for all
/// signatures plus flat norm-code / decoded-norm / exact-norm arrays (the
/// minifloat code is decoded once per context, not once per dot product
/// that uses it). This replaces
/// std::vector<Context> on the execution hot path — reset() never shrinks
/// capacity, so a Worker that reuses one batch across layers and samples
/// performs no steady-state heap allocation of its own (the scratch for the
/// im2col patch matrix lives here too, for the same reason; the hash
/// kernel's packed C panel is a per-call buffer of the codelet).
/// Accessors are unchecked, like indexing the vector they replace.
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
  /// for linear); `seed` determines the projection matrix.
  ContextGenerator(std::size_t input_dim, std::uint64_t seed);

  std::size_t input_dim() const { return hasher_.input_dim(); }

  /// Context of a single raw vector: the per-vector reference path
  /// (SimHasher::hash) the batch pipeline below must match bitwise.
  Context make_context(std::span<const float> v) const;

  // ---- allocation-free SoA batch pipeline -------------------------------
  // The *_into functions are the execution hot path: one fused batch hash
  // (RandomProjection::sign_hash_batch) over a contiguous patch matrix
  // instead of a GEMV + BitVec per patch. Outputs are bitwise identical to
  // make_context() per vector.

  /// Hashes `count` contiguous row-major vectors (count × input_dim) into
  /// `out`, with `hash_bits` signature bits (0 = full width). Signatures are
  /// prefixes of i.i.d. columns, so hashing straight to a layer's resolved
  /// hash length k is bitwise identical to hashing full-width and reading
  /// the first k bits — at k/1024 of the GEMM work. Bitwise identical to
  /// `count` make_context() calls (truncated to hash_bits).
  void contexts_into(const float* xs, std::size_t count, ContextBatch& out,
                     std::size_t hash_bits = 0) const;

  /// Contexts of every im2col patch of `input` (batch image `n`) in (oy, ox)
  /// row-major order — the dot-product order the output map needs — built
  /// from a patch matrix assembled once per layer in `out`'s reusable
  /// scratch.
  void activation_contexts_into(const nn::Tensor& input,
                                const nn::ConvSpec& spec, ContextBatch& out,
                                std::size_t n = 0,
                                std::size_t hash_bits = 0) const;

  /// The context of a flattened activation vector (for linear layers): a
  /// one-context batch.
  void activation_context_flat_into(const nn::Tensor& input, ContextBatch& out,
                                    std::size_t n = 0,
                                    std::size_t hash_bits = 0) const;

  /// Contexts of a layer's kernels, stored as contiguous rows of
  /// input_dim weights: a convolution's weights (one row per output
  /// channel) or a linear layer's weight matrix. `hash_bits` as in
  /// contexts_into.
  ContextBatch weight_context_batch(std::span<const float> kernels,
                                    std::size_t hash_bits = 0) const;

 private:
  hash::SimHasher hasher_;
};

/// CAM-mapped (Conv2D/Linear) graph nodes of `model`, in execution order.
std::vector<std::size_t> cam_nodes(const nn::Model& model);

/// One CAM layer's offline hashing: its generator (projection matrix C),
/// its kernels' weight contexts — every hash length up to their width
/// reads their prefix — and a copy of its bias.
struct HashedLayer {
  std::size_t node_index;  // in the model graph
  ContextGenerator ctxgen;
  ContextBatch weights;
  std::vector<float> bias;
};

/// The single recipe for hashing CAM layer `node` of `model`: C is seeded
/// by layer_hash_seed from `hash_seed` and `node`, so activations hashed
/// with the returned generator are comparable with the returned weight
/// contexts, which are `hash_bits` wide (default: full width).
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
