// Variable hash length (VHL) tuner (paper §III-A, Fig. 5).
//
// "Each CNN layer requires a certain minimum hash length to maintain the
// overall classification accuracy... Some layers are sensitive to a smaller
// hash length, while others are very robust." The tuner finds, per CAM
// layer, the smallest k in {256, 512, 768, 1024} whose approximation error
// is acceptable. Two modes:
//
//  * kLayerLocal — sensitivity measured as the relative L2 error between the
//    layer's approximate and exact outputs on probe inputs (cheap; one hash
//    pass per layer per probe — signatures are hashed once at 1024 bits and
//    every k is evaluated from prefixes).
//  * kEndToEnd — sensitivity measured as Top-1 agreement with the FP32 model
//    when ONLY this layer is approximated (the paper's criterion; costs a
//    model forward per (layer, k, probe), so use it on LeNet-scale nets).
//
// The result is the per-layer hash map consumed by DeepCamConfig.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "nn/model.hpp"

namespace deepcam::core {

enum class TunerMode { kLayerLocal, kEndToEnd };

struct TunerConfig {
  TunerMode mode = TunerMode::kLayerLocal;
  /// Max acceptable relative L2 output error (kLayerLocal mode).
  double max_rel_error = 0.25;
  /// Min acceptable Top-1 agreement with FP32 (kEndToEnd mode).
  double min_agreement = 0.95;
  /// Greedy joint refinement: per-layer criteria ignore error compounding
  /// across layers, so after the per-layer pass the full VHL configuration
  /// is validated end-to-end on the probes; while agreement stays below
  /// `min_agreement`, the most sensitive non-maxed layer is bumped one hash
  /// level. Costs a few full DeepCAM runs; recommended for kEndToEnd.
  bool joint_refine = false;
  std::uint64_t hash_seed = 42;
  bool use_pwl_cosine = true;
  bool minifloat_norms = true;
};

struct LayerSensitivity {
  std::string layer_name;
  std::size_t context_len = 0;
  /// Metric per candidate hash length (rel. error or agreement).
  std::vector<double> metric;
  std::size_t chosen_bits = hash::kMaxHashBits;
};

struct TuneResult {
  std::vector<LayerSensitivity> layers;
  /// Per-CAM-layer hash lengths, ready for DeepCamConfig::layer_hash_bits.
  std::vector<std::size_t> hash_bits;

  double mean_hash_bits() const;
};

/// Approximate outputs [K][P] of one CAM layer from pre-hashed weight and
/// activation contexts at hash length k, with the post-processing unit's
/// options: the hardware's math in software (hamming_many, then
/// finish_dots over the layer's cosine table, per weight context). The
/// tuner's and the planner's error metrics compare it with the exact
/// outputs.
std::vector<double> approx_layer_out(const ContextBatch& w_ctx,
                                     const ContextBatch& a_ctx,
                                     const std::vector<float>& bias,
                                     std::size_t k,
                                     const PostProcessingUnit::Options& pp);

/// Relative L2 error of one probe's approximate layer outputs against the
/// exact ones: sqrt(Σ(approx - ref)² / (Σ ref² + 1e-30)), summed in double
/// in index order. The tuner's kLayerLocal metric, and the planner's
/// estimate of it on sampled patches, are the mean of this over probes.
double rel_l2_error(std::span<const double> approx,
                    std::span<const double> ref);

/// Runs the tuner over `probes` (each a {1,C,H,W} input). The model is only
/// read (const inference + weight hashing): planning never perturbs weights.
TuneResult tune_hash_lengths(const nn::Model& model,
                             const std::vector<nn::Tensor>& probes,
                             const TunerConfig& cfg);

/// Top-1 agreement between the FP32 model and its DeepCAM execution over
/// `probes` — the Fig. 5 "BL vs DC" fidelity metric for untrained nets.
double deepcam_agreement(const nn::Model& model,
                         const std::vector<nn::Tensor>& probes,
                         const DeepCamConfig& cfg);

}  // namespace deepcam::core
