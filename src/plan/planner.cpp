#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "sim/backend.hpp"

namespace deepcam::plan {

const char* objective_name(Objective obj) {
  switch (obj) {
    case Objective::kCycles: return "cycles";
    case Objective::kEnergy: return "energy";
    case Objective::kEdp: return "edp";
  }
  return "?";
}

Objective objective_from_name(const std::string& name) {
  if (name == "cycles") return Objective::kCycles;
  if (name == "energy") return Objective::kEnergy;
  if (name == "edp") return Objective::kEdp;
  throw Error("unknown plan objective \"" + name +
              "\" (cycles|energy|edp)");
}

core::DeepCamConfig Plan::config(const core::DeepCamConfig& base) const {
  core::DeepCamConfig cfg = base;
  cfg.cam_rows = cam_rows;
  cfg.dataflow = dataflow;
  cfg.layer_hash_bits = hash_bits;
  return cfg;
}

namespace {

/// Sampled sensitivity data of one CAM layer: its hashed weights plus
/// activation contexts hashed once at the full 1024 bits (every shorter k
/// is a bit prefix) and the exact outputs they approximate.
struct LayerSamples {
  const core::HashedLayer& layer;
  std::vector<core::ContextBatch> acts;       // per probe
  std::vector<std::vector<double>> refs;      // per probe, [K][m] row-major
};

/// Mean-over-probes relative L2 error of the approximate dot products at
/// hash length `k` — the HashTuner's kLayerLocal metric on the sampled
/// patches.
double rel_error_at(const LayerSamples& s, std::size_t k,
                    const core::PostProcessingUnit::Options& pp) {
  double err_sum = 0.0;
  for (std::size_t pi = 0; pi < s.acts.size(); ++pi) {
    err_sum += core::rel_l2_error(
        core::approx_layer_out(s.layer.weights, s.acts[pi], s.layer.bias, k,
                               pp),
        s.refs[pi]);
  }
  return s.acts.empty() ? 0.0 : err_sum / static_cast<double>(s.acts.size());
}

std::size_t level_of(std::size_t k) { return k / 256 - 1; }

}  // namespace

Planner::Planner(const nn::Model& model, nn::Shape input)
    : model_(&model), cost_(extract_geometry(model, input)) {}

std::vector<LayerFloor> Planner::accuracy_floors(
    const PlannerConfig& cfg,
    std::vector<std::vector<double>>* metrics) const {
  const ModelGeometry& geo = cost_.geometry();
  std::vector<LayerFloor> floors(geo.cam_layers.size());
  if (metrics != nullptr)
    metrics->assign(geo.cam_layers.size(),
                    std::vector<double>(hash::kNumHashLengths, 0.0));
  if (cfg.probes == 0) {
    for (std::size_t li = 0; li < geo.cam_layers.size(); ++li) {
      floors[li].name = geo.cam_layers[li].name;
      floors[li].hash_bits = cfg.base.default_hash_bits;
    }
    return floors;
  }

  const std::vector<nn::Tensor> probes =
      sim::make_probe_batch(geo.input, cfg.probes, sim::kProbeSeed);
  std::vector<std::vector<nn::Tensor>> exact;
  exact.reserve(probes.size());
  for (const auto& p : probes) exact.push_back(model_->infer_all(p));
  const auto hashed = core::hash_weights(*model_, cfg.base.hash_seed);

  for (std::size_t li = 0; li < geo.cam_layers.size(); ++li) {
    const CamLayerGeometry& cl = geo.cam_layers[li];
    const int in_node = model_->inputs_of(cl.node_index)[0];

    // Gather sampled contexts (hashed once, at the maximum length) and
    // their exact reference outputs.
    LayerSamples samples{hashed->layers[li], {}, {}};
    DEEPCAM_CHECK(samples.layer.node_index == cl.node_index);
    // A conv samples m of its P patches; a linear layer's one context is
    // its whole input (P = m = 1).
    const std::size_t P = cl.patches;
    const std::size_t m =
        std::min(P, std::max<std::size_t>(1, cfg.max_sample_patches));
    std::vector<float> mat(cl.is_conv ? m * cl.context_len : 0);
    for (std::size_t pi = 0; pi < probes.size(); ++pi) {
      const nn::Tensor& in =
          in_node == nn::kModelInput
              ? probes[pi]
              : exact[pi][static_cast<std::size_t>(in_node)];
      if (cl.is_conv) {
        const nn::ConvSpec& spec =
            static_cast<const nn::Conv2D&>(model_->layer(cl.node_index))
                .spec();
        const std::size_t ow = spec.out_w(in.shape().w);
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t idx = j * P / m;  // strictly increasing: m <= P
          nn::extract_patch(in, 0, idx / ow, idx % ow, spec.kernel_h,
                            spec.kernel_w, spec.stride, spec.pad,
                            {mat.data() + j * cl.context_len,
                             cl.context_len});
        }
      } else {
        DEEPCAM_CHECK(in.numel() == cl.context_len);
      }
      core::ContextBatch acts;
      samples.layer.ctxgen.contexts_into(cl.is_conv ? mat.data() : in.data(),
                                         m, acts, hash::kMaxHashBits);
      acts.release_scratch();
      const nn::Tensor& out = exact[pi][cl.node_index];
      std::vector<double> ref(cl.kernels * m);
      for (std::size_t kk = 0; kk < cl.kernels; ++kk)
        for (std::size_t j = 0; j < m; ++j)
          ref[kk * m + j] = static_cast<double>(out[kk * P + j * P / m]);
      samples.acts.push_back(std::move(acts));
      samples.refs.push_back(std::move(ref));
    }

    // Calibrate at the shortest hash, extrapolate with the SimHash
    // concentration law err ∝ 1/sqrt(k), verify the predicted choice.
    const double err256 = rel_error_at(samples, 256, cfg.base.postproc);
    std::vector<double> metric(hash::kNumHashLengths);
    std::vector<bool> measured(hash::kNumHashLengths, false);
    metric[0] = err256;
    measured[0] = true;
    for (int ki = 1; ki < hash::kNumHashLengths; ++ki)
      metric[ki] =
          err256 * std::sqrt(256.0 /
                             static_cast<double>(hash::kHashLengths[ki]));

    std::size_t chosen = hash::kMaxHashBits;
    for (int ki = 0; ki < hash::kNumHashLengths; ++ki) {
      if (metric[ki] <= cfg.max_rel_error) {
        chosen = static_cast<std::size_t>(hash::kHashLengths[ki]);
        break;
      }
    }
    double predicted = metric[level_of(chosen)];
    if (!measured[level_of(chosen)]) {
      metric[level_of(chosen)] =
          rel_error_at(samples, chosen, cfg.base.postproc);
      measured[level_of(chosen)] = true;
    }
    // The extrapolation can undershoot; climb one level at a time until the
    // measurement agrees (or the ladder tops out).
    while (metric[level_of(chosen)] > cfg.max_rel_error &&
           chosen < hash::kMaxHashBits) {
      chosen += 256;
      predicted = metric[level_of(chosen)];
      if (!measured[level_of(chosen)]) {
        metric[level_of(chosen)] =
            rel_error_at(samples, chosen, cfg.base.postproc);
        measured[level_of(chosen)] = true;
      }
    }

    floors[li].name = cl.name;
    floors[li].hash_bits = chosen;
    floors[li].predicted_rel_error = predicted;
    floors[li].measured_rel_error = metric[level_of(chosen)];
    if (metrics != nullptr) (*metrics)[li] = std::move(metric);
  }
  return floors;
}

Plan Planner::plan(const PlannerConfig& cfg) const {
  const ModelGeometry& geo = cost_.geometry();
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch);

  Plan best;
  best.model_name = geo.model_name;
  best.geometry_digest = geo.digest();
  best.objective = cfg.objective;
  best.batch = batch;
  best.floors = accuracy_floors(cfg, nullptr);
  best.hash_bits.reserve(best.floors.size());
  for (const auto& f : best.floors) best.hash_bits.push_back(f.hash_bits);

  // Candidate axes, deterministic order. Search runs strictly-better
  // replacement, so ties resolve to the earliest candidate (smallest rows,
  // AS dataflow, smallest micro-batch/threads).
  std::vector<std::size_t> rows = cfg.row_candidates;
  if (rows.empty()) rows = {cfg.base.cam_rows};
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  std::vector<core::Dataflow> dataflows;
  if (cfg.search_dataflow)
    dataflows = {core::Dataflow::kActivationStationary,
                 core::Dataflow::kWeightStationary};
  else
    dataflows = {cfg.base.dataflow};

  std::vector<std::size_t> micro = cfg.micro_batch_candidates;
  for (auto& m : micro) m = std::min(std::max<std::size_t>(1, m), batch);
  if (micro.empty()) micro = {batch};
  std::sort(micro.begin(), micro.end());
  micro.erase(std::unique(micro.begin(), micro.end()), micro.end());

  std::vector<std::size_t> threads = cfg.thread_candidates;
  for (auto& t : threads) t = std::max<std::size_t>(1, t);
  if (threads.empty()) threads = {1};
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());

  bool have_best = false;
  for (const std::size_t r : rows) {
    for (const core::Dataflow df : dataflows) {
      core::DeepCamConfig hw = cfg.base;
      hw.cam_rows = r;
      hw.dataflow = df;
      hw.layer_hash_bits = best.hash_bits;
      // Layer costs depend only on (rows, dataflow, hash bits); micro-batch
      // and threads only reshape the makespan, so estimate once per
      // hardware point and sweep the schedule axes on the same estimate.
      CostEstimate est = cost_.estimate(hw, batch);
      for (const std::size_t m : micro) {
        for (const std::size_t t : threads) {
          est.micro_batch = m;
          est.threads = t;
          double value = 0.0;
          switch (cfg.objective) {
            case Objective::kCycles:
              value = static_cast<double>(est.makespan_cycles());
              break;
            case Objective::kEnergy:
              value = est.total_energy();
              break;
            case Objective::kEdp:
              value = est.edp();
              break;
          }
          ++best.configs_evaluated;
          if (!have_best || value < best.objective_value) {
            have_best = true;
            best.cam_rows = r;
            best.dataflow = df;
            best.micro_batch = m;
            best.threads = t;
            best.cost = est;
            best.objective_value = value;
          }
        }
      }
    }
  }
  DEEPCAM_CHECK(have_best);
  return best;
}

core::TuneResult Planner::guided_tune(const PlannerConfig& cfg) const {
  std::vector<std::vector<double>> metrics;
  const std::vector<LayerFloor> floors = accuracy_floors(cfg, &metrics);
  core::TuneResult result;
  const ModelGeometry& geo = cost_.geometry();
  for (std::size_t li = 0; li < floors.size(); ++li) {
    core::LayerSensitivity sens;
    sens.layer_name = floors[li].name;
    sens.context_len = geo.cam_layers[li].context_len;
    sens.metric = metrics[li];
    sens.chosen_bits = floors[li].hash_bits;
    result.layers.push_back(std::move(sens));
    result.hash_bits.push_back(floors[li].hash_bits);
  }
  return result;
}

}  // namespace deepcam::plan
