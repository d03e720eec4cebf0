// Analytical per-stage cost model (the poplibs PerformanceEstimation.hpp
// role for DeepCAM).
//
// CostModel::estimate() derives each CAM layer's event counts (passes,
// searches, row writes, dot products) in closed form from the mapping
// arithmetic and prices them with core::price_cam_layer, the same function
// the engine prices its counted events with; peripheral cycles come from
// core::peripheral_cycles likewise. Online context generation is charged
// for every CAM layer after the first, as in the engine. The estimate is
// therefore exact: tests/test_plan.cpp asserts every per-sample field equal
// to the engine's, on the paper topologies and on random geometries.
//
// Batching/threading extends the per-sample cost to wall-clock: samples are
// data-parallel across engine workers, so a batch B executed in micro-
// batches of m on t threads has makespan ceil(B/m)·ceil(min(m,B)/t) sample
// latencies, matching BatchReport::simulated_throughput's pipeline count.
#pragma once

#include <vector>

#include "core/compiled_model.hpp"
#include "core/mapping.hpp"
#include "plan/geometry.hpp"

namespace deepcam::plan {

/// Whole-run analytical estimate for (geometry, config, batch, threads).
struct CostEstimate {
  std::vector<core::LayerReport> layers;  // one sample
  std::size_t peripheral_cycles = 0;      // per sample
  std::size_t batch = 1;
  std::size_t micro_batch = 1;
  std::size_t threads = 1;

  /// Latency of one sample through the whole network (the engine's
  /// RunReport::total_cycles for that sample).
  std::size_t sample_cycles() const;
  /// Energy of one sample (the engine's RunReport::total_energy for that
  /// sample).
  double sample_energy() const;

  /// Aggregate simulated work over the batch — what the engine's merged
  /// BatchReport aggregate counts (exactly linear in batch).
  std::size_t total_cycles() const { return sample_cycles() * batch; }
  double total_energy() const { return sample_energy() * batch; }

  /// Wall-clock cycles with `threads` data-parallel workers draining the
  /// batch in micro-batches of `micro_batch` samples.
  std::size_t makespan_cycles() const;
  double time_seconds() const;  // makespan at the 300 MHz system clock
  double edp() const { return total_energy() * time_seconds(); }
  double throughput_samples_per_s() const;
};

/// Stateless estimator over one extracted ModelGeometry.
class CostModel {
 public:
  explicit CostModel(ModelGeometry geometry) : geo_(std::move(geometry)) {}

  const ModelGeometry& geometry() const { return geo_; }

  /// Full-network estimate. `cfg.layer_hash_bits` (or default_hash_bits)
  /// resolves per-layer k exactly as CompiledModel does. micro_batch = 0
  /// means one micro-batch covering the whole batch; threads = 0 means one
  /// worker.
  CostEstimate estimate(const core::DeepCamConfig& cfg, std::size_t batch = 1,
                        std::size_t threads = 1,
                        std::size_t micro_batch = 0) const;

 private:
  ModelGeometry geo_;
};

}  // namespace deepcam::plan
