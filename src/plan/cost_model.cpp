#include "plan/cost_model.hpp"

#include "common/error.hpp"
#include "common/tech.hpp"

namespace deepcam::plan {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

std::size_t CostEstimate::sample_cycles() const {
  std::size_t cycles = peripheral_cycles;
  for (const auto& l : layers) cycles += l.cycles;
  return cycles;
}

double CostEstimate::sample_energy() const {
  double e = 0.0;
  for (const auto& l : layers) e += l.total_energy();
  return e;
}

std::size_t CostEstimate::makespan_cycles() const {
  if (batch == 0) return 0;
  const std::size_t m = micro_batch == 0 ? batch : std::min(micro_batch, batch);
  const std::size_t t = threads == 0 ? 1 : threads;
  const std::size_t rounds = ceil_div(batch, m);
  const std::size_t waves = ceil_div(std::min(m, batch), t);
  return rounds * waves * sample_cycles();
}

double CostEstimate::time_seconds() const {
  return static_cast<double>(makespan_cycles()) * tech::kCycleSeconds;
}

double CostEstimate::throughput_samples_per_s() const {
  const double t = time_seconds();
  return t > 0.0 ? static_cast<double>(batch) / t : 0.0;
}

CostEstimate CostModel::estimate(const core::DeepCamConfig& cfg,
                                 std::size_t batch, std::size_t threads,
                                 std::size_t micro_batch) const {
  DEEPCAM_CHECK_MSG(cfg.layer_hash_bits.empty() ||
                        cfg.layer_hash_bits.size() == geo_.cam_layers.size(),
                    "layer_hash_bits arity mismatch");
  CostEstimate est;
  est.batch = batch;
  est.micro_batch = micro_batch == 0 ? batch : micro_batch;
  est.threads = threads == 0 ? 1 : threads;
  est.peripheral_cycles = geo_.peripheral_cycles(cfg.preset);
  est.layers.reserve(geo_.cam_layers.size());
  for (std::size_t i = 0; i < geo_.cam_layers.size(); ++i) {
    const CamLayerGeometry& l = geo_.cam_layers[i];
    const std::size_t k = cfg.layer_hash_bits.empty()
                              ? cfg.default_hash_bits
                              : cfg.layer_hash_bits[i];
    // Every CAM layer but the first generates its activation contexts
    // online, as in the engine.
    est.layers.push_back(core::price_cam_layer(
        l.name, l.patches, l.kernels, l.context_len, k,
        core::plan_mapping({l.patches, l.kernels}, cfg.cam_rows, cfg.dataflow),
        i > 0, cfg));
  }
  return est;
}

}  // namespace deepcam::plan
