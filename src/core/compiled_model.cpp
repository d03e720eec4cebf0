#include "core/compiled_model.hpp"

#include <algorithm>

#include "cam/energy_model.hpp"
#include "common/digital_sqrt.hpp"
#include "common/tech.hpp"

namespace deepcam::core {

cam::CamConfig cam_config(const DeepCamConfig& cfg) {
  return cam::CamConfig{cfg.cam_rows, 256, 4, cfg.tech};
}

LayerReport price_cam_layer(std::string name, std::size_t patches,
                            std::size_t kernels, std::size_t context_len,
                            std::size_t hash_bits, const MappingPlan& counts,
                            bool online_ctxgen, const DeepCamConfig& cfg) {
  LayerReport rep;
  rep.name = std::move(name);
  rep.patches = patches;
  rep.kernels = kernels;
  rep.context_len = context_len;
  rep.hash_bits = hash_bits;
  rep.plan = counts;

  // The transmission gates enable whole 256-bit chunks: searches and row
  // programs run over the active word, not just the k hash bits.
  const cam::CamConfig cam = cam_config(cfg);
  const std::size_t chunks = (hash_bits + cam.chunk_bits - 1) / cam.chunk_bits;
  const std::size_t word_bits = chunks * cam.chunk_bits;

  if (cfg.preset == CyclePreset::kIdealized) {
    rep.cycles = counts.searches;
  } else {
    const std::size_t t_search =
        static_cast<std::size_t>(tech::kCamSearchBaseCycles) +
        static_cast<std::size_t>(tech::kCamSearchCyclesPerChunk) * chunks;
    rep.cycles =
        counts.searches * t_search +
        counts.rows_written *
            static_cast<std::size_t>(tech::kCamWriteCyclesPerRow) +
        counts.passes * static_cast<std::size_t>(tech::kCamPassDrainCycles);
    if (online_ctxgen)
      rep.cycles += patches * static_cast<std::size_t>(tech::kXbarInputBits);
  }

  // Search energy scales with the full row count, not occupancy: every
  // row's match line discharges.
  rep.cam_energy = static_cast<double>(counts.searches) *
                       cam::CamCostModel::search_energy(cam, word_bits) +
                   static_cast<double>(counts.rows_written) *
                       cam::CamCostModel::write_energy(cam, word_bits);
  rep.postproc_energy =
      static_cast<double>(counts.dot_products) *
      (tech::kCosineUnitEnergy + 2.0 * tech::kMiniFloatMulEnergy +
       tech::kAdd8Energy + tech::kPipeRegEnergy);

  if (online_ctxgen) {
    // L2 norm: n squarings (int8 multiplies) + (n-1) adder-tree adds + sqrt.
    const double n = static_cast<double>(context_len);
    const double k = static_cast<double>(hash_bits);
    const double norm_energy =
        n * tech::kMul8Energy +
        static_cast<double>(context_len > 0 ? context_len - 1 : 0) *
            tech::kAdd16Energy +
        static_cast<double>(kCyclesPerSqrt32) * tech::kSqrtIterEnergy;
    // Crossbar hash: n*k cells active over the bit-serial input, plus one
    // sign sense amp per output column.
    const double hash_energy =
        n * k * tech::kXbarCellEnergy + k * tech::kXbarSenseAmpEnergy;
    rep.ctxgen_energy =
        static_cast<double>(patches) * (norm_energy + hash_energy);
  }
  return rep;
}

std::size_t peripheral_cycles(std::size_t elems, CyclePreset preset) {
  return preset == CyclePreset::kConservative ? (elems + 15) / 16 : 0;
}

std::size_t RunReport::total_cycles() const {
  std::size_t c = peripheral_cycles;
  for (const auto& l : layers) c += l.cycles;
  return c;
}

double RunReport::total_energy() const {
  double e = 0.0;
  for (const auto& l : layers) e += l.total_energy();
  return e;
}

std::size_t RunReport::total_searches() const {
  std::size_t s = 0;
  for (const auto& l : layers) s += l.plan.searches;
  return s;
}

std::size_t RunReport::total_dot_products() const {
  std::size_t s = 0;
  for (const auto& l : layers) s += l.plan.dot_products;
  return s;
}

double RunReport::mean_utilization() const {
  if (layers.empty()) return 0.0;
  // Weight utilization by passes so reload-heavy layers dominate, matching
  // how hardware occupancy over time would be measured.
  double util = 0.0, weight = 0.0;
  for (const auto& l : layers) {
    util += l.plan.utilization * static_cast<double>(l.plan.passes);
    weight += static_cast<double>(l.plan.passes);
  }
  return weight == 0.0 ? 0.0 : util / weight;
}

double RunReport::time_seconds() const {
  return static_cast<double>(total_cycles()) * tech::kCycleSeconds;
}

namespace {

/// The widest hash length `cfg` reads, clamped into [1, 1024]; the
/// compiling constructor rejects out-of-range lengths.
std::size_t widest_hash_bits(const DeepCamConfig& cfg) {
  const std::vector<std::size_t>& ks = cfg.layer_hash_bits;
  const std::size_t k = ks.empty() ? cfg.default_hash_bits
                                   : *std::max_element(ks.begin(), ks.end());
  return std::clamp<std::size_t>(k, 1, hash::kMaxHashBits);
}

}  // namespace

// Weights hashed for one config need only the bits it reads: a prefix.
CompiledModel::CompiledModel(const nn::Model& model, DeepCamConfig cfg)
    : CompiledModel(model,
                    hash_weights(model, cfg.hash_seed, widest_hash_bits(cfg)),
                    cfg) {}

CompiledModel::CompiledModel(const nn::Model& model,
                             std::shared_ptr<const HashedWeights> weights,
                             DeepCamConfig cfg)
    : model_(&model), cfg_(std::move(cfg)), weights_(std::move(weights)) {
  DEEPCAM_CHECK_MSG(cfg_.cam_rows > 0, "CAM needs rows");
  DEEPCAM_CHECK(weights_ != nullptr);
  DEEPCAM_CHECK_MSG(weights_->model == model_,
                    "HashedWeights were hashed from another model");
  DEEPCAM_CHECK_MSG(weights_->hash_seed == cfg_.hash_seed,
                    "HashedWeights were hashed at hash_seed " +
                        std::to_string(weights_->hash_seed) +
                        ", the config asks for hash_seed " +
                        std::to_string(cfg_.hash_seed));
  const std::vector<HashedLayer>& layers = weights_->layers;
  if (!cfg_.layer_hash_bits.empty()) {
    DEEPCAM_CHECK_MSG(cfg_.layer_hash_bits.size() == layers.size(),
                      "layer_hash_bits arity != CAM layer count");
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::size_t k = cfg_.layer_hash_bits.empty()
                              ? cfg_.default_hash_bits
                              : cfg_.layer_hash_bits[i];
    DEEPCAM_CHECK_MSG(k >= 1 && k <= layers[i].weights.sig_bits(),
                      "hash length " + std::to_string(k) +
                          " out of range: weights hashed to " +
                          std::to_string(layers[i].weights.sig_bits()) +
                          " bits");
    cam_layers_.push_back(
        {&layers[i], k,
         PostProcessingUnit(cfg_.postproc).cosine_table(
             k, cam::SenseAmp(cfg_.sense).max_reported(k))});
  }
}

std::vector<std::string> CompiledModel::cam_layer_names() const {
  std::vector<std::string> names;
  names.reserve(cam_layers_.size());
  for (const auto& cl : cam_layers_)
    names.push_back(model_->layer(cl.hashed->node_index).name());
  return names;
}

std::size_t CompiledModel::context_len(std::size_t i) const {
  return cam_layer(i).hashed->ctxgen.input_dim();
}

}  // namespace deepcam::core
