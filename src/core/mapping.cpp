#include "core/mapping.hpp"

#include "common/error.hpp"

namespace deepcam::core {

const char* dataflow_name(Dataflow df) {
  return df == Dataflow::kWeightStationary ? "weight-stationary"
                                           : "activation-stationary";
}

namespace {

/// ceil(a/b) for positive integers.
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

MappingPlan plan_mapping(const LayerWork& work, std::size_t rows,
                         Dataflow df) {
  DEEPCAM_CHECK(rows > 0);
  DEEPCAM_CHECK(work.patches > 0 && work.kernels > 0);
  const std::size_t stationary =
      (df == Dataflow::kWeightStationary) ? work.kernels : work.patches;
  const std::size_t streamed =
      (df == Dataflow::kWeightStationary) ? work.patches : work.kernels;

  MappingPlan plan;
  plan.passes = ceil_div(stationary, rows);
  plan.rows_written = stationary;  // each stationary context programmed once
  plan.dot_products = work.patches * work.kernels;

  // Per-pass searches: every streamed context is searched once per pass.
  plan.searches = plan.passes * streamed;

  // Utilization: rows occupied per pass / rows, averaged over passes. The
  // last pass may be partially filled.
  double util_sum = 0.0;
  std::size_t remaining = stationary;
  for (std::size_t p = 0; p < plan.passes; ++p) {
    const std::size_t used = remaining >= rows ? rows : remaining;
    util_sum += static_cast<double>(used) / static_cast<double>(rows);
    remaining -= used;
  }
  plan.utilization = plan.passes == 0 ? 0.0 : util_sum / double(plan.passes);
  return plan;
}

}  // namespace deepcam::core
