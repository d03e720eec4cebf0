#include "sim/comparison.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "nn/topologies.hpp"
#include "sim/backends.hpp"

namespace deepcam::sim {

namespace {

std::vector<const PlatformResult*> cell_rows(
    const std::vector<PlatformResult>& rows, const std::string& model,
    std::size_t batch) {
  std::vector<const PlatformResult*> out;
  for (const auto& r : rows)
    if (r.model == model && r.batch == batch) out.push_back(&r);
  return out;
}

}  // namespace

std::vector<const PlatformResult*> ComparisonReport::ranked_by_cycles(
    const std::string& model, std::size_t batch) const {
  auto cell = cell_rows(rows, model, batch);
  std::stable_sort(cell.begin(), cell.end(),
                   [](const PlatformResult* a, const PlatformResult* b) {
                     return a->total_cycles < b->total_cycles;
                   });
  return cell;
}

std::vector<const PlatformResult*> ComparisonReport::ranked_by_energy(
    const std::string& model, std::size_t batch) const {
  auto cell = cell_rows(rows, model, batch);
  std::stable_sort(cell.begin(), cell.end(),
                   [](const PlatformResult* a, const PlatformResult* b) {
                     if (a->energy_modeled != b->energy_modeled)
                       return a->energy_modeled;  // unmodeled sorts last
                     return a->total_energy_j < b->total_energy_j;
                   });
  return cell;
}

std::vector<std::pair<std::string, std::size_t>> ComparisonReport::cells()
    const {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& r : rows) {
    const auto cell = std::make_pair(r.model, r.batch);
    if (std::find(out.begin(), out.end(), cell) == out.end())
      out.push_back(cell);
  }
  return out;
}

ComparisonRunner::ComparisonRunner(const BackendRegistry& registry,
                                   ComparisonOptions opts)
    : registry_(&registry), opts_(std::move(opts)) {
  DEEPCAM_CHECK_MSG(
      !opts_.include_vhl_deepcam ||
          opts_.tuner.hash_seed == opts_.deepcam_config.hash_seed,
      "deepcam-vhl would be tuned at hash_seed " +
          std::to_string(opts_.tuner.hash_seed) + " but run at hash_seed " +
          std::to_string(opts_.deepcam_config.hash_seed));
}

ComparisonReport ComparisonRunner::run(
    const std::vector<WorkloadSpec>& workloads) const {
  ComparisonReport report;
  for (const auto& spec : workloads) {
    DEEPCAM_CHECK_MSG(!spec.batch_sizes.empty(),
                      "workload has no batch sizes");
    auto model = nn::make_model(spec.model_name, spec.seed);
    const nn::Shape shape = nn::input_spec_for(spec.model_name).shape();

    // Tune once per workload, reused across its batch sizes.
    std::unique_ptr<DeepCamBackend> vhl;
    if (opts_.include_vhl_deepcam) {
      report.vhl_tuning.push_back(core::tune_hash_lengths(
          *model, make_probe_batch(shape, opts_.vhl_probes, kProbeSeed),
          opts_.tuner));
      const core::TuneResult& tuned = report.vhl_tuning.back();
      DeepCamBackend::Options dc;
      dc.config = opts_.deepcam_config;
      dc.config.layer_hash_bits = tuned.hash_bits;
      dc.threads = opts_.deepcam_threads;
      dc.name = "deepcam-vhl";
      vhl = std::make_unique<DeepCamBackend>(dc);
    }

    for (const std::size_t batch : spec.batch_sizes) {
      DEEPCAM_CHECK_MSG(batch > 0, "batch size must be positive");
      for (const auto& backend : *registry_)
        report.rows.push_back(backend->simulate(*model, shape, batch));
      if (vhl) report.rows.push_back(vhl->simulate(*model, shape, batch));
    }
  }
  return report;
}

}  // namespace deepcam::sim
