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
// The cosine depends only on (HD, k), and k is fixed per layer, so this
// unit only builds each layer's cosine table; the codelet finish_dots
// (codelet/codelet.hpp) applies it, the norms and the bias row by row. The
// functional math lives in hash/. What the unit costs is priced per layer
// by core::price_cam_layer (core/compiled_model.hpp).
#pragma once

#include <cstddef>
#include <vector>

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

  /// The cosine of every Hamming distance h in [0, max_hd] at hash length
  /// k: entry h is hash::approx_dot(1, 1, h, k, use_pwl_cosine). max_hd is
  /// the largest distance the sense amp can report (SenseAmp::max_reported).
  std::vector<double> cosine_table(std::size_t k, std::size_t max_hd) const;

 private:
  Options opts_ = {};
};

}  // namespace deepcam::core
