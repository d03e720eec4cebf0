// DeepCAM accelerator: full functional + cycle + energy simulation.
//
// Executes a CNN by replacing every Conv2D/Linear dot-product with the
// CAM-based approximate geometric dot-product pipeline:
//
//   contexts -> DynamicCam search (Hamming distances, O(1) per search)
//            -> post-processing (PWL cosine x minifloat norms + bias: the
//               layer's cosine table through the finish_dots codelet)
//            -> digital peripherals (ReLU/pool/BN run exactly, costs charged)
//            -> online activation-context generation for the next CAM layer
//
// The simulation is *functional*: the tensor it returns is what the hardware
// would compute (including minifloat norm quantization, PWL cosine error and
// sense-amp quantization if enabled), so classification accuracy can be
// measured directly. Cycle/energy reports come from the same run.
//
// Two cycle presets (DESIGN.md §5, EXPERIMENTS.md):
//  * kConservative — engineering-estimate latencies from tech.hpp
//    (multi-cycle search window, FeFET write, pipeline drains, bit-serial
//    context generation);
//  * kIdealized — the paper's abstraction: 1-cycle O(1) search, writes and
//    context generation fully hidden behind the search pipeline.
//
// Since the engine split (see core/compiled_model.hpp), this class is a thin
// single-sample facade: it compiles the model into an immutable CompiledModel
// and runs every call through one embedded Worker. Batched / multi-threaded
// execution lives in core/engine.hpp (InferenceEngine) and can share the
// facade's CompiledModel via compiled().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "core/engine.hpp"

namespace deepcam::core {

class DeepCamAccelerator {
 public:
  /// Prepares the accelerator for `model`: hashes every CAM-mapped layer's
  /// weights (hash_weights, the paper's offline software step) and compiles
  /// them. `model` must outlive the accelerator; it is only ever read.
  DeepCamAccelerator(const nn::Model& model, DeepCamConfig cfg);
  /// A temporary Model would dangle (the compilation stores a pointer to
  /// it) — reject it at compile time.
  DeepCamAccelerator(nn::Model&&, DeepCamConfig) = delete;

  const DeepCamConfig& config() const { return compiled_->config(); }

  /// The shared-immutable compilation backing this facade. Hand it to an
  /// InferenceEngine to run the same model batched across threads.
  const std::shared_ptr<const CompiledModel>& compiled() const {
    return compiled_;
  }

  /// Number of CAM-mapped (Conv2D/Linear) layers.
  std::size_t cam_layer_count() const { return compiled_->cam_layer_count(); }
  /// Names of the CAM-mapped layers, in execution order.
  std::vector<std::string> cam_layer_names() const {
    return compiled_->cam_layer_names();
  }
  /// Context length n of CAM layer `i`.
  std::size_t context_len(std::size_t i) const {
    return compiled_->context_len(i);
  }

  /// Runs one input (batch size must be 1). Returns the hardware-functional
  /// output logits; fills `report` if non-null.
  nn::Tensor run(const nn::Tensor& input, RunReport* report = nullptr) {
    return worker_.run(input, report);
  }

 private:
  std::shared_ptr<const CompiledModel> compiled_;
  Worker worker_;
};

}  // namespace deepcam::core
