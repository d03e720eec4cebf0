#include "core/context.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace deepcam::core {
namespace {

// Array-of-structs oracles: one make_context() (the per-vector SimHasher
// path) per kernel, patch or flattened input. The ContextBatch pipeline
// must reproduce them bitwise.

std::vector<Context> weight_contexts(const ContextGenerator& gen,
                                     const nn::Conv2D& conv) {
  const std::size_t plen = conv.spec().patch_len();
  std::vector<Context> out;
  for (std::size_t oc = 0; oc < conv.spec().out_channels; ++oc)
    out.push_back(gen.make_context(
        std::span<const float>(&conv.weights()[oc * plen], plen)));
  return out;
}

std::vector<Context> weight_contexts(const ContextGenerator& gen,
                                     const nn::Linear& fc) {
  const std::size_t in = fc.in_features();
  std::vector<Context> out;
  for (std::size_t o = 0; o < fc.out_features(); ++o)
    out.push_back(gen.make_context(
        std::span<const float>(&fc.weights()[o * in], in)));
  return out;
}

/// Contexts of every im2col patch of image 0, in (oy, ox) row-major order.
std::vector<Context> activation_contexts(const ContextGenerator& gen,
                                         const nn::Tensor& input,
                                         const nn::ConvSpec& spec) {
  const std::size_t oh = spec.out_h(input.shape().h);
  const std::size_t ow = spec.out_w(input.shape().w);
  std::vector<float> patch(spec.patch_len());
  std::vector<Context> out;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      nn::extract_patch(input, 0, oy, ox, spec.kernel_h, spec.kernel_w,
                        spec.stride, spec.pad, patch);
      out.push_back(gen.make_context(patch));
    }
  }
  return out;
}

Context activation_context_flat(const ContextGenerator& gen,
                                const nn::Tensor& input) {
  const nn::Shape& s = input.shape();
  return gen.make_context(
      std::span<const float>(input.data(), s.c * s.h * s.w));
}

TEST(Context, NormQuantizedToMiniFloat) {
  ContextGenerator gen(4, 1);
  std::vector<float> v = {3.0f, 4.0f, 0.0f, 0.0f};
  const Context c = gen.make_context(v);
  EXPECT_DOUBLE_EQ(c.exact_norm, 5.0);
  EXPECT_EQ(c.norm(), 5.0);  // 5.0 is exactly representable in E4M3
  EXPECT_EQ(c.bits.size(), hash::kMaxHashBits);
}

TEST(Context, NormQuantizationErrorBounded) {
  ContextGenerator gen(16, 2);
  deepcam::Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    std::vector<float> v(16);
    for (auto& x : v) x = static_cast<float>(rng.gaussian());
    const Context c = gen.make_context(v);
    EXPECT_NEAR(c.norm(), c.exact_norm, c.exact_norm * 0.0625 + 1e-6);
  }
}

TEST(Context, WeightContextsOnePerKernel) {
  nn::Conv2D conv("c", nn::ConvSpec{2, 5, 3, 3, 1, 1}, 4);
  ContextGenerator gen(conv.spec().patch_len(), 5);
  const auto ctxs = weight_contexts(gen, conv);
  ASSERT_EQ(ctxs.size(), 5u);
  // Each context's norm equals the L2 norm of that kernel.
  for (std::size_t oc = 0; oc < 5; ++oc) {
    double s = 0.0;
    for (std::size_t i = 0; i < 18; ++i) {
      const float w = conv.weights()[oc * 18 + i];
      s += double(w) * w;
    }
    EXPECT_NEAR(ctxs[oc].exact_norm, std::sqrt(s), 1e-6);
  }
}

TEST(Context, LinearWeightContexts) {
  nn::Linear fc("f", 8, 3, 6);
  ContextGenerator gen(8, 7);
  const auto ctxs = weight_contexts(gen, fc);
  EXPECT_EQ(ctxs.size(), 3u);
}

TEST(Context, ActivationContextsPatchOrder) {
  // Patch (oy, ox) order must match the conv output layout.
  nn::ConvSpec spec{1, 1, 2, 2, 1, 0};
  ContextGenerator gen(spec.patch_len(), 8);
  nn::Tensor in({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) in[i] = static_cast<float>(i + 1);
  const auto ctxs = activation_contexts(gen, in, spec);
  ASSERT_EQ(ctxs.size(), 4u);  // 2x2 output positions
  // Patch (0,0) = {1,2,4,5}: norm sqrt(1+4+16+25).
  EXPECT_NEAR(ctxs[0].exact_norm, std::sqrt(46.0), 1e-5);
  // Patch (1,1) = {5,6,8,9}.
  EXPECT_NEAR(ctxs[3].exact_norm, std::sqrt(25.0 + 36 + 64 + 81), 1e-5);
}

TEST(Context, FlatActivationContext) {
  ContextGenerator gen(12, 9);
  nn::Tensor in({1, 3, 2, 2});
  in.fill(2.0f);
  const Context c = activation_context_flat(gen, in);
  EXPECT_NEAR(c.exact_norm, std::sqrt(12.0 * 4.0), 1e-5);
}

TEST(Context, DimensionMismatchThrows) {
  ContextGenerator gen(4, 10);
  std::vector<float> wrong(5, 0.0f);
  EXPECT_THROW(gen.make_context(wrong), deepcam::Error);
  nn::Tensor in({1, 2, 2, 2});
  ContextBatch batch;
  EXPECT_THROW(gen.activation_context_flat_into(in, batch), deepcam::Error);
}

TEST(Context, LayerHashSeedDistinctPerNode) {
  const auto s0 = layer_hash_seed(42, 0);
  const auto s1 = layer_hash_seed(42, 1);
  const auto s0b = layer_hash_seed(42, 0);
  EXPECT_EQ(s0, s0b);
  EXPECT_NE(s0, s1);
  EXPECT_NE(layer_hash_seed(1, 0), layer_hash_seed(2, 0));
}

TEST(Context, SameSeedSameSignature) {
  ContextGenerator a(8, 77), b(8, 77);
  std::vector<float> v = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(a.make_context(v).bits == b.make_context(v).bits);
}

// ---- SoA ContextBatch pipeline: must match the per-Context reference ----

/// Full equivalence of one batch entry against a reference Context:
/// signature words, minifloat norm code, exact norm (bitwise).
void expect_ctx_equal(const ContextBatch& batch, std::size_t i,
                      const Context& ref) {
  ASSERT_EQ(batch.sig_bits(), ref.bits.size());
  for (std::size_t w = 0; w < batch.words_per_sig(); ++w)
    ASSERT_EQ(batch.sig(i)[w], ref.bits.data()[w]) << "ctx " << i;
  EXPECT_EQ(batch.norm_code(i), ref.norm_code);
  EXPECT_EQ(batch.exact_norm(i), ref.exact_norm);
  // The norms finish_dots multiplies: decoded once per context.
  EXPECT_EQ(batch.norms(true)[i], ref.norm());
  EXPECT_EQ(batch.norms(false)[i], ref.exact_norm);
}

TEST(ContextBatch, ActivationContextsMatchScalarPath) {
  nn::ConvSpec spec{2, 4, 3, 3, 1, 1};
  ContextGenerator gen(spec.patch_len(), 11);
  nn::Tensor in({1, 2, 5, 5});
  Rng rng(12);
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = (i % 4 == 0) ? 0.0f : static_cast<float>(rng.gaussian());
  const auto ref = activation_contexts(gen, in, spec);
  ContextBatch batch;
  gen.activation_contexts_into(in, spec, batch);
  ASSERT_EQ(batch.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_ctx_equal(batch, i, ref[i]);
}

TEST(ContextBatch, WeightContextsMatchScalarPath) {
  nn::Conv2D conv("c", nn::ConvSpec{2, 5, 3, 3, 1, 1}, 4);
  ContextGenerator gen(conv.spec().patch_len(), 5);
  const auto ref = weight_contexts(gen, conv);
  const ContextBatch batch = gen.weight_context_batch(conv.weights());
  ASSERT_EQ(batch.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_ctx_equal(batch, i, ref[i]);

  nn::Linear fc("f", 8, 3, 6);
  ContextGenerator fgen(8, 7);
  const auto fref = weight_contexts(fgen, fc);
  const ContextBatch fbatch = fgen.weight_context_batch(fc.weights());
  ASSERT_EQ(fbatch.size(), fref.size());
  for (std::size_t i = 0; i < fref.size(); ++i)
    expect_ctx_equal(fbatch, i, fref[i]);
}

TEST(ContextBatch, FlatActivationMatchesScalarPath) {
  ContextGenerator gen(12, 9);
  nn::Tensor in({1, 3, 2, 2});
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(i) - 5.5f;
  const Context ref = activation_context_flat(gen, in);
  ContextBatch batch;
  gen.activation_context_flat_into(in, batch);
  ASSERT_EQ(batch.size(), 1u);
  expect_ctx_equal(batch, 0, ref);
}

TEST(ContextBatch, PrefixHashLengthMatchesFullHashPrefix) {
  // Hashing straight to k bits (the engine's online path) must equal the
  // first k bits of the full-width signature.
  nn::ConvSpec spec{1, 1, 2, 2, 1, 0};
  ContextGenerator gen(spec.patch_len(), 31);
  nn::Tensor in({1, 1, 4, 4});
  Rng rng(13);
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(rng.gaussian());
  ContextBatch full, pre;
  gen.activation_contexts_into(in, spec, full);
  for (std::size_t k : {std::size_t{256}, std::size_t{512}}) {
    gen.activation_contexts_into(in, spec, pre, 0, k);
    ASSERT_EQ(pre.size(), full.size());
    ASSERT_EQ(pre.sig_bits(), k);
    for (std::size_t i = 0; i < pre.size(); ++i) {
      for (std::size_t w = 0; w < pre.words_per_sig(); ++w)
        ASSERT_EQ(pre.sig(i)[w], full.sig(i)[w]) << "k=" << k;
      EXPECT_EQ(pre.norm_code(i), full.norm_code(i));
      EXPECT_EQ(pre.exact_norm(i), full.exact_norm(i));
    }
  }
}

TEST(ContextBatch, ArenaReuseAcrossLayerShapes) {
  // One batch reused large -> small -> large (the Worker's usage pattern)
  // must stay correct; capacity may be retained but contents must match.
  ContextGenerator big(27, 41), small(4, 42);
  nn::ConvSpec big_spec{3, 1, 3, 3, 1, 0};
  nn::ConvSpec small_spec{1, 1, 2, 2, 1, 0};
  nn::Tensor big_in({1, 3, 6, 6}), small_in({1, 1, 3, 3});
  Rng rng(14);
  for (std::size_t i = 0; i < big_in.numel(); ++i)
    big_in[i] = static_cast<float>(rng.gaussian());
  for (std::size_t i = 0; i < small_in.numel(); ++i)
    small_in[i] = static_cast<float>(rng.gaussian());

  ContextBatch batch;
  big.activation_contexts_into(big_in, big_spec, batch);
  small.activation_contexts_into(small_in, small_spec, batch);
  const auto small_ref = activation_contexts(small, small_in, small_spec);
  ASSERT_EQ(batch.size(), small_ref.size());
  for (std::size_t i = 0; i < small_ref.size(); ++i)
    expect_ctx_equal(batch, i, small_ref[i]);

  big.activation_contexts_into(big_in, big_spec, batch);
  const auto big_ref = activation_contexts(big, big_in, big_spec);
  ASSERT_EQ(batch.size(), big_ref.size());
  for (std::size_t i = 0; i < big_ref.size(); ++i)
    expect_ctx_equal(batch, i, big_ref[i]);
}

}  // namespace
}  // namespace deepcam::core
