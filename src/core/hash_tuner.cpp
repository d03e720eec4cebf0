#include "core/hash_tuner.hpp"

#include <cmath>

#include "codelet/codelet.hpp"
#include "nn/pointwise.hpp"

namespace deepcam::core {

namespace {

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

double rel_l2_error(std::span<const double> approx,
                    std::span<const double> ref) {
  DEEPCAM_CHECK(approx.size() == ref.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    const double d = approx[i] - ref[i];
    num += d * d;
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / (den + 1e-30));
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
  auto hashed = hash_weights(model, cfg.hash_seed);
  TuneResult result;
  for (std::size_t li = 0; li < nodes.size(); ++li) {
    const std::size_t node = nodes[li];
    const nn::Layer& layer = model.layer(node);
    const int in_node = model.inputs_of(node)[0];

    // Build contexts once per probe; every candidate k reuses the prefixes.
    const HashedLayer& hl = hashed->layers[li];
    std::vector<ContextBatch> acts(probes.size());
    for (std::size_t pi = 0; pi < probes.size(); ++pi) {
      const nn::Tensor& in = in_node == nn::kModelInput
                                 ? probes[pi]
                                 : exact[pi][static_cast<std::size_t>(in_node)];
      const nn::Tensor* const one[] = {&in};
      if (layer.kind() == nn::LayerKind::kConv2D)
        hl.ctxgen.activation_contexts_into(
            one, static_cast<const nn::Conv2D&>(layer).spec(), acts[pi],
            hash::kMaxHashBits);
      else
        hl.ctxgen.activation_context_flat_into(one, acts[pi],
                                               hash::kMaxHashBits);
      acts[pi].release_scratch();  // cached for the whole k sweep
    }

    LayerSensitivity sens;
    sens.layer_name = layer.name();
    sens.context_len = hl.ctxgen.input_dim();

    const bool local = cfg.mode == TunerMode::kLayerLocal;
    bool chosen = false;
    for (int ki = 0; ki < hash::kNumHashLengths; ++ki) {
      const std::size_t k = static_cast<std::size_t>(hash::kHashLengths[ki]);
      // kLayerLocal: mean relative L2 error over probes. kEndToEnd: Top-1
      // agreement with only this layer approximated.
      double sum = 0.0;
      for (std::size_t pi = 0; pi < probes.size(); ++pi) {
        const auto approx =
            approx_layer_out(hl.weights, acts[pi], hl.bias, k, pp);
        const nn::Tensor& ref = exact[pi][node];
        DEEPCAM_CHECK(ref.numel() == approx.size());
        if (local) {
          sum += rel_l2_error(
              approx, std::vector<double>(ref.data(), ref.data() + ref.numel()));
        } else {
          std::vector<nn::Tensor> outs = exact[pi];
          for (std::size_t i = 0; i < approx.size(); ++i)
            outs[node][i] = static_cast<float>(approx[i]);
          if (nn::argmax_class(recompute_suffix(model, probes[pi], outs,
                                                node)) ==
              nn::argmax_class(exact[pi].back()))
            sum += 1.0;
        }
      }
      const double metric = sum / static_cast<double>(probes.size());
      if (!chosen && (local ? metric <= cfg.max_rel_error
                            : metric >= cfg.min_agreement)) {
        sens.chosen_bits = k;
        chosen = true;
      }
      sens.metric.push_back(metric);
    }
    result.hash_bits.push_back(sens.chosen_bits);
    result.layers.push_back(std::move(sens));
  }
  hashed.reset();  // the joint refinement compiles its own

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
