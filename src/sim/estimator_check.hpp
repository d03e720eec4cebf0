// Estimator validation hook: CostModel predictions vs the DeepCAM sim
// backend's measured cycles/energy on the same (model, config, batch).
//
// This is the plan subsystem's ground-truth gate. The engine and CostModel
// price every CAM layer with the same function (core::price_cam_layer), the
// engine from the events it counts and CostModel from closed-form counts,
// so estimated cycles equal measured cycles exactly. Batch energy can
// differ by rounding only: the backend sums per-sample energies where the
// estimate multiplies one sample's by the batch size.
#pragma once

#include "core/compiled_model.hpp"
#include "nn/model.hpp"
#include "plan/cost_model.hpp"

namespace deepcam::sim {

/// Measured-vs-estimated totals for one configuration.
struct EstimatorCheck {
  double measured_cycles = 0.0;   // DeepCamBackend batch total
  double measured_energy_j = 0.0;
  std::size_t estimated_cycles = 0;  // CostModel batch total
  double estimated_energy_j = 0.0;
  double cycle_rel_error = 0.0;   // |est - meas| / meas
  double energy_rel_error = 0.0;
};

/// Runs the DeepCamBackend on `batch` probe inputs and the analytical
/// CostModel on the extracted geometry, under the same `cfg`.
EstimatorCheck check_estimator(const nn::Model& model, nn::Shape input,
                               const core::DeepCamConfig& cfg,
                               std::size_t batch);

}  // namespace deepcam::sim
