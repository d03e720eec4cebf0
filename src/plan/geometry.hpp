// Static geometry extraction for the plan subsystem.
//
// Every cycle and every reported joule in the DeepCAM engine is a pure
// function of (model geometry, DeepCamConfig) — the cost paths never look at
// activation values — so a planner can cost a configuration without running
// a single forward pass. extract_geometry() propagates output shapes through
// the layer DAG symbolically (the same closed forms the layers implement)
// and records, per CAM-mapped layer, the (P, K, n) triple that drives the
// mapping arithmetic, plus the element counts of the digital peripheral
// layers.
//
// The geometry also yields a stable FNV-1a digest over (name, topology,
// every geometry number), which is the plan-cache key component identifying
// "the same network" across processes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "nn/model.hpp"

namespace deepcam::plan {

/// One CAM-mapped (Conv2D/Linear) layer's static workload shape.
struct CamLayerGeometry {
  std::string name;
  std::size_t node_index = 0;
  bool is_conv = false;
  std::size_t patches = 0;      // P: activation contexts per sample
  std::size_t kernels = 0;      // K: weight contexts (CAM occupancy)
  std::size_t context_len = 0;  // n: patch vector length
};

/// Whole-model static geometry at a fixed input shape.
struct ModelGeometry {
  std::string model_name;
  nn::Shape input;
  std::vector<CamLayerGeometry> cam_layers;
  /// Output element counts of the single-input non-CAM layers, in node
  /// order, each priced by core::peripheral_cycles. Residual Adds cost no
  /// cycles and are deliberately absent.
  std::vector<std::size_t> peripheral_elems;

  /// Peripheral cycles per sample under `preset`.
  std::size_t peripheral_cycles(core::CyclePreset preset) const;

  /// FNV-1a digest over every field above.
  std::uint64_t digest() const;
};

/// Propagates `input` through the graph without executing it.
ModelGeometry extract_geometry(const nn::Model& model, nn::Shape input);

}  // namespace deepcam::plan
