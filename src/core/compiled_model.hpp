// CompiledModel: the shared-immutable half of the DeepCAM execution engine.
//
// The engine splits the simulator state the way poplibs-style
// estimator/engine designs do:
//
//   CompiledModel  — everything derivable from (model, config) alone: the
//                    model's HashedWeights (core/context.hpp: per CAM layer
//                    the generator, the pre-hashed weight contexts — the
//                    paper's offline software step — and a bias copy, all
//                    built by hash_weights, the single hashing recipe,
//                    and shareable across configs at one hash_seed), plus
//                    the config-dependent part: resolved hash lengths and
//                    the post-processing unit's per-layer cosine tables.
//                    Compiling (and planning) hashes the layers on up to
//                    min(CAM layers, hardware threads) threads of its own,
//                    whatever the engine's thread count. Built once,
//                    immutable afterwards, shareable across any number of
//                    threads without synchronization.
//
//   Worker         — the per-run mutable state (a DynamicCam instance and
//                    reusable scratch buffers). One per thread. See
//                    core/engine.hpp.
//
//   InferenceEngine— a std::thread pool of Workers executing batches
//                    against one CompiledModel. See core/engine.hpp.
//
// DeepCamAccelerator (core/accelerator.hpp) remains as a thin single-sample
// facade over CompiledModel + one Worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cam/config.hpp"
#include "cam/sense_amp.hpp"
#include "core/context.hpp"
#include "core/mapping.hpp"
#include "core/postproc.hpp"
#include "nn/model.hpp"

namespace deepcam::core {

enum class CyclePreset { kConservative, kIdealized };

struct DeepCamConfig {
  std::size_t cam_rows = 64;
  Dataflow dataflow = Dataflow::kActivationStationary;
  CyclePreset preset = CyclePreset::kConservative;
  cam::CellTech tech = cam::CellTech::kFeFET;
  cam::SenseAmpConfig sense = {};
  PostProcessingUnit::Options postproc = {};
  /// Hash length per CAM layer (bits, multiples of 256 up to 1024). Empty =
  /// homogeneous `default_hash_bits`.
  std::vector<std::size_t> layer_hash_bits = {};
  std::size_t default_hash_bits = hash::kMaxHashBits;
  std::uint64_t hash_seed = 42;
};

/// Geometry of the CAM array a config runs on: `cfg.cam_rows` rows of up to
/// four 256-bit chunks in `cfg.tech` cells.
cam::CamConfig cam_config(const DeepCamConfig& cfg);

/// Per-CAM-layer simulation report.
struct LayerReport {
  std::string name;
  std::size_t patches = 0;       // P
  std::size_t kernels = 0;       // K
  std::size_t context_len = 0;   // n
  std::size_t hash_bits = 0;     // k
  MappingPlan plan;
  std::size_t cycles = 0;        // per chosen preset
  double cam_energy = 0.0;       // joules (search + write)
  double postproc_energy = 0.0;  // joules (cosine/mult/bias per dot product)
  double ctxgen_energy = 0.0;    // joules (online context generation)

  double total_energy() const {
    return cam_energy + postproc_energy + ctxgen_energy;
  }
};

struct RunReport {
  std::vector<LayerReport> layers;
  std::size_t peripheral_cycles = 0;  // non-CAM layers (pool/ReLU/BN)

  std::size_t total_cycles() const;
  double total_energy() const;
  std::size_t total_searches() const;
  std::size_t total_dot_products() const;
  double mean_utilization() const;
  double time_seconds() const;  // at the 300 MHz system clock
  double cam_area_um2 = 0.0;
};

/// Prices one CAM layer: the single home of every DeepCAM cycle and energy
/// rule (constants in common/tech.hpp and cam/energy_model.hpp). A layer's
/// cost depends only on its event counts and hash length, never on
/// activation values, so the engine (which counts the events of the pass
/// loop it runs) and plan::CostModel (which derives them in closed form) get
/// bitwise-identical reports from the same counts.
///
///   cycles, conservative: searches x (base + per-chunk search latency)
///                         + a program latency per row written
///                         + a pipeline drain per pass
///                         + the bit-serial crossbar input per patch, if
///                           `online_ctxgen`
///   cycles, idealized:    one per search (the paper's O(1) search)
///   cam_energy:           EvaCAM search and write energy at the active word
///   postproc_energy:      cosine + 2 minifloat muls + bias add per dot
///   ctxgen_energy:        per patch, if `online_ctxgen`: L2-norm adder tree
///                         + digital sqrt + n*k crossbar cells + k sign SAs
///
/// `counts` (passes, searches, rows_written, dot_products, utilization) is
/// copied into the report's `plan`.
LayerReport price_cam_layer(std::string name, std::size_t patches,
                            std::size_t kernels, std::size_t context_len,
                            std::size_t hash_bits, const MappingPlan& counts,
                            bool online_ctxgen, const DeepCamConfig& cfg);

/// Cycles the digital peripherals (pool/ReLU/BN/flatten/softmax) spend on a
/// layer of `elems` output elements: ceil(elems/16) on 16 lanes under the
/// conservative preset, hidden (0) under the idealized one.
std::size_t peripheral_cycles(std::size_t elems, CyclePreset preset);

/// Immutable compilation of a model for DeepCAM execution. Holds the
/// pre-hashed weight contexts and per-layer geometry; never mutated after
/// construction, so one instance can back any number of concurrent Workers.
/// The model must outlive the CompiledModel; it is only read (const) here
/// and at run time.
class CompiledModel {
 public:
  /// One CAM-mapped (Conv2D/Linear) layer, fully prepared for execution.
  struct CamLayer {
    const HashedLayer* hashed;  // generator, weight contexts, bias
    std::size_t hash_bits = 0;  // resolved hash length k
    /// PostProcessingUnit::cosine_table at k, covering every HD the
    /// configured sense amp can report (SenseAmp::max_reported).
    std::vector<double> cos_table;
  };

  /// Hashes the model's weights at cfg.hash_seed, to the widest hash length
  /// the config reads, and compiles from them.
  CompiledModel(const nn::Model& model, DeepCamConfig cfg);
  /// Compiles from already hashed weights, which any number of configs of
  /// the same model at the same hash_seed can share (a server's hash
  /// tiers). Throws an Error if `weights` was hashed from another model, at
  /// a seed other than cfg.hash_seed, or narrower than a length cfg reads.
  CompiledModel(const nn::Model& model,
                std::shared_ptr<const HashedWeights> weights,
                DeepCamConfig cfg);
  /// A temporary Model would dangle (only a pointer is stored) — reject it
  /// at compile time.
  CompiledModel(nn::Model&&, DeepCamConfig) = delete;

  const nn::Model& model() const { return *model_; }
  const DeepCamConfig& config() const { return cfg_; }

  /// Number of CAM-mapped (Conv2D/Linear) layers.
  std::size_t cam_layer_count() const { return cam_layers_.size(); }
  const CamLayer& cam_layer(std::size_t i) const {
    DEEPCAM_CHECK(i < cam_layers_.size());
    return cam_layers_[i];
  }
  /// Names of the CAM-mapped layers, in execution order.
  std::vector<std::string> cam_layer_names() const;
  /// Context length n of CAM layer `i`.
  std::size_t context_len(std::size_t i) const;
 private:
  const nn::Model* model_;
  DeepCamConfig cfg_;
  std::shared_ptr<const HashedWeights> weights_;
  std::vector<CamLayer> cam_layers_;
};

}  // namespace deepcam::core
