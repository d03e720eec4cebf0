// Post-processing & transformation unit model (paper §III-C, Fig. 7).
//
// Two sub-modules:
//  1. Post-processing: converts a CAM Hamming distance into the final
//     approximate dot-product — PWL cosine (eq. 5), two minifloat-norm
//     multiplies, bias add — and applies the digital peripheral ops
//     (ReLU / pooling / batchnorm).
//  2. Online activation-context generation: adder-tree + digital-sqrt L2
//     norm, and the NVM crossbar hasher (random matrix C as synaptic
//     weights, sign sensed by SAs instead of ADCs).
//
// The functional math lives in hash/; this class applies it with the
// configured ablation options. What the unit costs is priced per layer by
// core::price_cam_layer (core/compiled_model.hpp).
#pragma once

#include <cstddef>

#include "core/context.hpp"
#include "hash/cosine_approx.hpp"

namespace deepcam::core {

class PostProcessingUnit {
 public:
  struct Options {
    bool use_pwl_cosine = true;   // eq. 5 vs exact cosf (ablation)
    bool minifloat_norms = true;  // 8-bit minifloat vs fp32 norms (ablation)
  };

  PostProcessingUnit() = default;
  explicit PostProcessingUnit(const Options& opts) : opts_(opts) {}

  const Options& options() const { return opts_; }

  /// Final approximate dot-product from a measured Hamming distance:
  /// cosine unit + 2 minifloat multiplies + bias add.
  double finish_dot_product(const Context& weight, const Context& activation,
                            std::size_t hamming, std::size_t hash_len,
                            float bias) const;

  /// ContextBatch-view overload for the allocation-free engine path; same
  /// math as the Context overload.
  double finish_dot_product(const ContextRef& weight,
                            const ContextRef& activation, std::size_t hamming,
                            std::size_t hash_len, float bias) const;

 private:
  Options opts_ = {};
};

}  // namespace deepcam::core
