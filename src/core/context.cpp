#include "core/context.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <numeric>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/minifloat.hpp"

namespace deepcam::core {

std::uint64_t layer_hash_seed(std::uint64_t base, std::size_t node_index) {
  return base * 0x9E3779B97F4A7C15ULL +
         node_index * 0xD1B54A32D192ED03ULL + 1;
}

ContextGenerator::ContextGenerator(std::size_t input_dim, std::uint64_t seed,
                                   std::size_t width)
    : proj_(hash::RandomProjection::prefix(input_dim, width, seed)) {}

namespace {

double l2_norm(const float* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return std::sqrt(s);
}

/// Appends the im2col patches of image 0 of `input` to `mat` from row
/// `row0` on, in (oy, ox) row-major order; returns the patch count.
std::size_t append_patches(const nn::Tensor& input, const nn::ConvSpec& spec,
                           std::vector<float>& mat, std::size_t row0) {
  const nn::Shape& s = input.shape();
  DEEPCAM_CHECK_MSG(s.c == spec.in_channels,
                    "activation channels differ from the conv's");
  const std::size_t oh = spec.out_h(s.h);
  const std::size_t ow = spec.out_w(s.w);
  const std::size_t plen = spec.patch_len();
  const std::size_t end = (row0 + oh * ow) * plen;
  if (mat.size() < end) mat.resize(end);
  float* row = mat.data() + row0 * plen;
  for (std::size_t oy = 0; oy < oh; ++oy)
    for (std::size_t ox = 0; ox < ow; ++ox, row += plen)
      nn::extract_patch(input, 0, oy, ox, spec.kernel_h, spec.kernel_w,
                        spec.stride, spec.pad, std::span<float>(row, plen));
  return oh * ow;
}

}  // namespace

void ContextGenerator::contexts_into(const float* xs, std::size_t count,
                                     ContextBatch& out,
                                     std::size_t hash_bits) const {
  const std::size_t dim = proj_.input_dim();
  out.reset(count, hash_bits);
  proj_.sign_hash_batch(xs, count, hash_bits, out.words_.data());
  for (std::size_t p = 0; p < count; ++p) {
    const double norm = l2_norm(xs + p * dim, dim);
    const std::uint8_t code = MiniFloat::encode(static_cast<float>(norm));
    out.exact_norm_[p] = norm;
    out.norm_code_[p] = code;
    out.norm_[p] = MiniFloat::decode(code);
  }
}

void ContextGenerator::activation_contexts_into(
    std::span<const nn::Tensor* const> inputs, const nn::ConvSpec& spec,
    ContextBatch& out, std::size_t hash_bits) const {
  DEEPCAM_CHECK_MSG(spec.patch_len() == proj_.input_dim(),
                    "conv patch length differs from the context length");
  std::size_t patches = 0;
  for (const nn::Tensor* in : inputs)
    patches += append_patches(*in, spec, out.patch_scratch_, patches);
  contexts_into(out.patch_scratch_.data(), patches, out, hash_bits);
}

void ContextGenerator::activation_context_flat_into(
    std::span<const nn::Tensor* const> inputs, ContextBatch& out,
    std::size_t hash_bits) const {
  const std::size_t dim = proj_.input_dim();
  std::vector<float>& mat = out.patch_scratch_;
  if (mat.size() < inputs.size() * dim) mat.resize(inputs.size() * dim);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const nn::Shape& s = inputs[i]->shape();
    DEEPCAM_CHECK_MSG(s.c * s.h * s.w == dim,
                      "flattened activation length differs from the "
                      "context length");
    std::copy_n(inputs[i]->data(), dim, mat.data() + i * dim);
  }
  contexts_into(mat.data(), inputs.size(), out, hash_bits);
}

ContextBatch ContextGenerator::weight_context_batch(
    std::span<const float> kernels, std::size_t hash_bits) const {
  DEEPCAM_CHECK(kernels.size() % proj_.input_dim() == 0);
  ContextBatch out;
  contexts_into(kernels.data(), kernels.size() / proj_.input_dim(), out,
                hash_bits);
  out.release_scratch();  // weight batches live as long as the model
  return out;
}

std::vector<std::size_t> cam_nodes(const nn::Model& model) {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const auto kind = model.layer(i).kind();
    if (kind == nn::LayerKind::kConv2D || kind == nn::LayerKind::kLinear)
      nodes.push_back(i);
  }
  return nodes;
}

namespace {

/// A CAM layer as hashing reads it: its kernels, rows of n weights each,
/// and its bias. The layer kinds differ only in their context length n.
struct CamLayerView {
  const std::vector<float>& weights;
  std::size_t n;
  const std::vector<float>& bias;
};

CamLayerView cam_layer_view(const nn::Model& model, std::size_t node) {
  const nn::Layer& layer = model.layer(node);
  if (layer.kind() == nn::LayerKind::kConv2D) {
    const auto& conv = static_cast<const nn::Conv2D&>(layer);
    return {conv.weights(), conv.spec().patch_len(), conv.bias()};
  }
  const auto& fc = static_cast<const nn::Linear&>(layer);
  return {fc.weights(), fc.in_features(), fc.bias()};
}

/// Hashes CAM layer `node` of `model` as hash_weights describes.
HashedLayer hash_cam_layer(const nn::Model& model, std::size_t node,
                           std::uint64_t hash_seed, std::size_t hash_bits) {
  const CamLayerView view = cam_layer_view(model, node);
  HashedLayer hl{node,
                 ContextGenerator(view.n, layer_hash_seed(hash_seed, node),
                                  hash_bits),
                 {}, view.bias};
  hl.weights = hl.ctxgen.weight_context_batch(view.weights, hash_bits);
  return hl;
}

}  // namespace

std::shared_ptr<const HashedWeights> hash_weights(const nn::Model& model,
                                                  std::uint64_t hash_seed,
                                                  std::size_t hash_bits) {
  // Each layer draws C from its own seed into its own slot, so the layers
  // hash independently and the result is bitwise the layer-by-layer one.
  // Threads take layers largest K·n first, so the last to finish is small.
  const std::vector<std::size_t> nodes = cam_nodes(model);
  std::vector<std::size_t> order(nodes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto work = [&](std::size_t li) {
    return cam_layer_view(model, nodes[li]).weights.size();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return work(a) > work(b);
                   });
  std::vector<std::optional<HashedLayer>> slots(nodes.size());
  std::vector<std::exception_ptr> errors(nodes.size());
  const auto hash_slot = [&](std::size_t li) {
    try {
      slots[li].emplace(hash_cam_layer(model, nodes[li], hash_seed,
                                       hash_bits));
    } catch (...) {
      errors[li] = std::current_exception();
    }
  };
  // This thread hashes the largest layer itself, so a helper that starts
  // late delays at most the smaller layers, which this thread also takes.
  std::atomic<std::size_t> next{1};
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < order.size();)
      hash_slot(order[i]);
  };
  const std::size_t threads = std::min<std::size_t>(
      nodes.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  try {
    while (helpers.size() + 1 < threads) helpers.emplace_back(drain);
  } catch (...) {
    // A thread that cannot start only slows hashing down: the threads
    // running, this one included, drain every layer.
  }
  if (!order.empty()) hash_slot(order[0]);
  drain();
  for (std::thread& t : helpers) t.join();
  // The error a caller sees is the one the layer-by-layer loop would throw.
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  auto hw =
      std::make_shared<HashedWeights>(HashedWeights{&model, hash_seed, {}});
  hw->layers.reserve(slots.size());
  for (std::optional<HashedLayer>& slot : slots)
    hw->layers.push_back(std::move(*slot));
  return hw;
}

}  // namespace deepcam::core
