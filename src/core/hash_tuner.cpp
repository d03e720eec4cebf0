#include "core/hash_tuner.hpp"

#include <cmath>

#include "codelet/codelet.hpp"
#include "nn/pointwise.hpp"

namespace deepcam::core {

namespace {

/// CAM-mapped node indices of a model, in execution order.
std::vector<std::size_t> cam_nodes(const nn::Model& model) {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const auto kind = model.layer(i).kind();
    if (kind == nn::LayerKind::kConv2D || kind == nn::LayerKind::kLinear)
      nodes.push_back(i);
  }
  return nodes;
}

/// Re-evaluates graph nodes (from+1 .. end) after outs[from] was replaced.
nn::Tensor recompute_suffix(const nn::Model& model, const nn::Tensor& input,
                            std::vector<nn::Tensor>& outs, std::size_t from) {
  for (std::size_t i = from + 1; i < model.node_count(); ++i) {
    const auto& inputs = model.inputs_of(i);
    auto fetch = [&](int idx) -> const nn::Tensor& {
      return idx == nn::kModelInput ? input
                                    : outs[static_cast<std::size_t>(idx)];
    };
    if (inputs.size() == 2) {
      const auto* add = dynamic_cast<const nn::Add*>(&model.layer(i));
      DEEPCAM_CHECK(add != nullptr);
      outs[i] = add->forward2(fetch(inputs[0]), fetch(inputs[1]));
    } else {
      outs[i] = model.layer(i).infer(fetch(inputs[0]));
    }
  }
  return outs.back();
}

struct LayerContexts {
  ContextBatch weights;
  std::vector<ContextBatch> activations;  // per probe
  std::vector<float> bias;
  std::vector<const nn::Tensor*> exact_out;  // per probe (borrowed)
  nn::Shape out_shape;
};

}  // namespace

std::vector<double> approx_layer_out(const ContextBatch& w_ctx,
                                     const ContextBatch& a_ctx,
                                     const std::vector<float>& bias,
                                     std::size_t k,
                                     const PostProcessingUnit::Options& pp) {
  const std::size_t K = w_ctx.size();
  const std::size_t P = a_ctx.size();
  const codelet::Kernels& kern = codelet::kernels();
  const std::vector<double> cos_table =
      PostProcessingUnit(pp).cosine_table(k, k);
  const double* w_norm = w_ctx.norms(pp.minifloat_norms);
  const double* a_norm = a_ctx.norms(pp.minifloat_norms);
  std::vector<double> out(K * P);
  // Row-blocked Hamming codelet over the activation batch's contiguous
  // signature arena, then one finish_dots call per weight context.
  std::vector<std::uint16_t> hd(P);
  for (std::size_t kk = 0; kk < K; ++kk) {
    if (P > 0)
      kern.hamming_many(w_ctx.sig(kk), a_ctx.sig(0), a_ctx.words_per_sig(), P,
                        k, hd.data());
    kern.finish_dots(hd.data(), cos_table.data(), w_norm[kk], a_norm,
                     static_cast<double>(bias[kk]), P, out.data() + kk * P);
  }
  return out;
}

double TuneResult::mean_hash_bits() const {
  if (hash_bits.empty()) return 0.0;
  double s = 0.0;
  for (auto k : hash_bits) s += static_cast<double>(k);
  return s / static_cast<double>(hash_bits.size());
}

TuneResult tune_hash_lengths(const nn::Model& model,
                             const std::vector<nn::Tensor>& probes,
                             const TunerConfig& cfg) {
  DEEPCAM_CHECK_MSG(!probes.empty(), "tuner needs probe inputs");
  const auto nodes = cam_nodes(model);

  // Exact forward activations per probe (shared by all layers/modes).
  std::vector<std::vector<nn::Tensor>> exact;
  exact.reserve(probes.size());
  for (const auto& p : probes) exact.push_back(model.infer_all(p));

  const PostProcessingUnit::Options pp{cfg.use_pwl_cosine,
                                       cfg.minifloat_norms};
  TuneResult result;
  for (std::size_t li = 0; li < nodes.size(); ++li) {
    const std::size_t node = nodes[li];
    const nn::Layer& layer = model.layer(node);
    const int in_node = model.inputs_of(node)[0];

    // Build contexts once per probe; every candidate k reuses the prefixes.
    LayerContexts lc;
    std::unique_ptr<ContextGenerator> gen;
    if (layer.kind() == nn::LayerKind::kConv2D) {
      const auto& conv = static_cast<const nn::Conv2D&>(layer);
      gen = std::make_unique<ContextGenerator>(
          conv.spec().patch_len(), layer_hash_seed(cfg.hash_seed, node));
      lc.weights = gen->weight_context_batch(conv);
      lc.bias = conv.bias();
      for (std::size_t pi = 0; pi < probes.size(); ++pi) {
        const nn::Tensor& in = in_node == nn::kModelInput
                                   ? probes[pi]
                                   : exact[pi][static_cast<std::size_t>(in_node)];
        ContextBatch acts;
        gen->activation_contexts_into(in, conv.spec(), acts);
        acts.release_scratch();  // cached for the whole k sweep
        lc.activations.push_back(std::move(acts));
        lc.exact_out.push_back(&exact[pi][node]);
      }
    } else {
      const auto& fc = static_cast<const nn::Linear&>(layer);
      gen = std::make_unique<ContextGenerator>(
          fc.in_features(), layer_hash_seed(cfg.hash_seed, node));
      lc.weights = gen->weight_context_batch(fc);
      lc.bias = fc.bias();
      for (std::size_t pi = 0; pi < probes.size(); ++pi) {
        const nn::Tensor& in = in_node == nn::kModelInput
                                   ? probes[pi]
                                   : exact[pi][static_cast<std::size_t>(in_node)];
        ContextBatch acts;
        gen->activation_context_flat_into(in, acts);
        acts.release_scratch();
        lc.activations.push_back(std::move(acts));
        lc.exact_out.push_back(&exact[pi][node]);
      }
    }

    LayerSensitivity sens;
    sens.layer_name = layer.name();
    sens.context_len = gen->input_dim();
    sens.chosen_bits = hash::kMaxHashBits;

    bool chosen = false;
    for (int ki = 0; ki < hash::kNumHashLengths; ++ki) {
      const std::size_t k = static_cast<std::size_t>(hash::kHashLengths[ki]);
      double metric;
      if (cfg.mode == TunerMode::kLayerLocal) {
        // Mean relative L2 error over probes.
        double err_sum = 0.0;
        for (std::size_t pi = 0; pi < probes.size(); ++pi) {
          const auto approx = approx_layer_out(lc.weights, lc.activations[pi],
                                               lc.bias, k, pp);
          const nn::Tensor& ref = *lc.exact_out[pi];
          DEEPCAM_CHECK(ref.numel() == approx.size());
          double num = 0.0, den = 0.0;
          for (std::size_t i = 0; i < approx.size(); ++i) {
            const double d = approx[i] - static_cast<double>(ref[i]);
            num += d * d;
            den += static_cast<double>(ref[i]) * ref[i];
          }
          err_sum += std::sqrt(num / (den + 1e-30));
        }
        metric = err_sum / static_cast<double>(probes.size());
        if (!chosen && metric <= cfg.max_rel_error) {
          sens.chosen_bits = k;
          chosen = true;
        }
      } else {
        // End-to-end Top-1 agreement with only this layer approximated.
        std::size_t agree = 0;
        for (std::size_t pi = 0; pi < probes.size(); ++pi) {
          const auto approx = approx_layer_out(lc.weights, lc.activations[pi],
                                               lc.bias, k, pp);
          std::vector<nn::Tensor> outs = exact[pi];
          nn::Tensor spliced(lc.exact_out[pi]->shape());
          for (std::size_t i = 0; i < spliced.numel(); ++i)
            spliced[i] = static_cast<float>(approx[i]);
          outs[node] = std::move(spliced);
          const nn::Tensor final_out =
              recompute_suffix(model, probes[pi], outs, node);
          if (nn::argmax_class(final_out) ==
              nn::argmax_class(exact[pi].back()))
            ++agree;
        }
        metric = static_cast<double>(agree) /
                 static_cast<double>(probes.size());
        if (!chosen && metric >= cfg.min_agreement) {
          sens.chosen_bits = k;
          chosen = true;
        }
      }
      sens.metric.push_back(metric);
    }
    result.hash_bits.push_back(sens.chosen_bits);
    result.layers.push_back(std::move(sens));
  }

  if (cfg.joint_refine) {
    // Greedy repair: per-layer choices compound, so validate the joint
    // configuration and lengthen the weakest layer until the end-to-end
    // agreement target is met (or everything is maxed out).
    DeepCamConfig dc;
    dc.hash_seed = cfg.hash_seed;
    dc.postproc.use_pwl_cosine = cfg.use_pwl_cosine;
    dc.postproc.minifloat_norms = cfg.minifloat_norms;
    for (int iter = 0; iter < 4 * static_cast<int>(nodes.size()); ++iter) {
      dc.layer_hash_bits = result.hash_bits;
      if (deepcam_agreement(model, probes, dc) >= cfg.min_agreement) break;
      // Most sensitive layer = worst metric at its current hash level,
      // among layers that can still grow.
      std::size_t worst = result.hash_bits.size();
      double worst_metric = 0.0;
      for (std::size_t i = 0; i < result.hash_bits.size(); ++i) {
        if (result.hash_bits[i] >= hash::kMaxHashBits) continue;
        const std::size_t level = result.hash_bits[i] / 256 - 1;
        const double m = result.layers[i].metric[level];
        // kLayerLocal: high error = sensitive. kEndToEnd: low agreement =
        // sensitive. Normalize to "badness".
        const double badness =
            cfg.mode == TunerMode::kLayerLocal ? m : 1.0 - m;
        if (worst == result.hash_bits.size() || badness > worst_metric) {
          worst = i;
          worst_metric = badness;
        }
      }
      if (worst == result.hash_bits.size()) break;  // all maxed
      result.hash_bits[worst] += 256;
      result.layers[worst].chosen_bits = result.hash_bits[worst];
    }
  }
  return result;
}

double deepcam_agreement(const nn::Model& model,
                         const std::vector<nn::Tensor>& probes,
                         const DeepCamConfig& cfg) {
  DEEPCAM_CHECK(!probes.empty());
  DeepCamAccelerator acc(model, cfg);
  std::size_t agree = 0;
  for (const auto& p : probes) {
    const nn::Tensor ref = model.infer(p);
    const nn::Tensor dc = acc.run(p);
    if (nn::argmax_class(ref) == nn::argmax_class(dc)) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(probes.size());
}

}  // namespace deepcam::core
