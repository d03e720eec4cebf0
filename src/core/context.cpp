#include "core/context.hpp"

#include "common/error.hpp"

namespace deepcam::core {

std::uint64_t layer_hash_seed(std::uint64_t base, std::size_t node_index) {
  return base * 0x9E3779B97F4A7C15ULL +
         node_index * 0xD1B54A32D192ED03ULL + 1;
}

ContextGenerator::ContextGenerator(std::size_t input_dim, std::uint64_t seed)
    : hasher_(input_dim, seed) {}

Context ContextGenerator::make_context(std::span<const float> v) const {
  DEEPCAM_CHECK(v.size() == hasher_.input_dim());
  hash::Signature sig = hasher_.hash(v);
  Context ctx;
  ctx.bits = std::move(sig.bits);
  ctx.exact_norm = sig.norm;
  ctx.norm_code = MiniFloat::encode(static_cast<float>(sig.norm));
  return ctx;
}

void ContextGenerator::contexts_into(const float* xs, std::size_t count,
                                     ContextBatch& out,
                                     std::size_t hash_bits) const {
  const std::size_t dim = hasher_.input_dim();
  const hash::RandomProjection& proj = hasher_.projection();
  const std::size_t k = hash_bits == 0 ? proj.hash_bits() : hash_bits;
  out.reset(count, k);
  proj.sign_hash_batch(xs, count, k, out.words_.data());
  for (std::size_t p = 0; p < count; ++p) {
    const double norm = hash::l2_norm(std::span<const float>(xs + p * dim, dim));
    const std::uint8_t code = MiniFloat::encode(static_cast<float>(norm));
    out.exact_norm_[p] = norm;
    out.norm_code_[p] = code;
    out.norm_[p] = MiniFloat::decode(code);
  }
}

void ContextGenerator::activation_contexts_into(const nn::Tensor& input,
                                                const nn::ConvSpec& spec,
                                                ContextBatch& out,
                                                std::size_t n,
                                                std::size_t hash_bits) const {
  const nn::Shape& s = input.shape();
  DEEPCAM_CHECK(s.c == spec.in_channels);
  const std::size_t oh = spec.out_h(s.h);
  const std::size_t ow = spec.out_w(s.w);
  const std::size_t plen = spec.patch_len();
  DEEPCAM_CHECK(plen == hasher_.input_dim());
  const std::size_t patches = oh * ow;
  std::vector<float>& mat = out.patch_scratch_;
  if (mat.size() < patches * plen) mat.resize(patches * plen);
  std::size_t p = 0;
  for (std::size_t oy = 0; oy < oh; ++oy)
    for (std::size_t ox = 0; ox < ow; ++ox, ++p)
      nn::extract_patch(input, n, oy, ox, spec.kernel_h, spec.kernel_w,
                        spec.stride, spec.pad,
                        std::span<float>(&mat[p * plen], plen));
  contexts_into(mat.data(), patches, out, hash_bits);
}

void ContextGenerator::activation_context_flat_into(const nn::Tensor& input,
                                                    ContextBatch& out,
                                                    std::size_t n,
                                                    std::size_t hash_bits) const {
  const nn::Shape& s = input.shape();
  const std::size_t feat = s.c * s.h * s.w;
  DEEPCAM_CHECK(feat == hasher_.input_dim());
  contexts_into(input.data() + n * feat, 1, out, hash_bits);
}

ContextBatch ContextGenerator::weight_context_batch(
    const nn::Conv2D& conv) const {
  const nn::ConvSpec& spec = conv.spec();
  DEEPCAM_CHECK(spec.patch_len() == hasher_.input_dim());
  ContextBatch out;
  contexts_into(conv.weights().data(), spec.out_channels, out);
  out.release_scratch();  // weight batches live as long as the model
  return out;
}

ContextBatch ContextGenerator::weight_context_batch(
    const nn::Linear& fc) const {
  DEEPCAM_CHECK(fc.in_features() == hasher_.input_dim());
  ContextBatch out;
  contexts_into(fc.weights().data(), fc.out_features(), out);
  out.release_scratch();
  return out;
}

}  // namespace deepcam::core
