#include "core/context.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

#include "core/context.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hash_oracle.hpp"

namespace deepcam::core {
namespace {

using oracle::Context;

// The contexts every pipeline form must reproduce bitwise: one oracle
// context (hash_oracle.hpp, the scalar per-vector path) per kernel, patch
// or flattened input, under the projection matrix the generator draws.

/// A generator and its full-width C drawn from the same seed: the pipeline
/// under test hashes with `gen`, the oracle with `c`.
struct Hasher {
  Hasher(std::size_t n, std::uint64_t seed)
      : gen(n, seed), c(n, hash::kMaxHashBits, seed) {}
  ContextGenerator gen;
  hash::RandomProjection c;
};

constexpr std::size_t kFull = hash::kMaxHashBits;

std::vector<Context> weight_contexts(const Hasher& h, const nn::Conv2D& conv) {
  const std::size_t plen = conv.spec().patch_len();
  std::vector<Context> out;
  for (std::size_t oc = 0; oc < conv.spec().out_channels; ++oc)
    out.push_back(oracle::context(
        h.c, std::span<const float>(&conv.weights()[oc * plen], plen), kFull));
  return out;
}

std::vector<Context> weight_contexts(const Hasher& h, const nn::Linear& fc) {
  const std::size_t in = fc.in_features();
  std::vector<Context> out;
  for (std::size_t o = 0; o < fc.out_features(); ++o)
    out.push_back(oracle::context(
        h.c, std::span<const float>(&fc.weights()[o * in], in), kFull));
  return out;
}

/// Contexts of every im2col patch of image 0, in (oy, ox) row-major order,
/// at k bits.
std::vector<Context> activation_contexts(const Hasher& h,
                                         const nn::Tensor& input,
                                         const nn::ConvSpec& spec,
                                         std::size_t k = kFull) {
  const std::size_t oh = spec.out_h(input.shape().h);
  const std::size_t ow = spec.out_w(input.shape().w);
  std::vector<float> patch(spec.patch_len());
  std::vector<Context> out;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      nn::extract_patch(input, 0, oy, ox, spec.kernel_h, spec.kernel_w,
                        spec.stride, spec.pad, patch);
      out.push_back(oracle::context(h.c, patch, k));
    }
  }
  return out;
}

Context activation_context_flat(const Hasher& h, const nn::Tensor& input) {
  const nn::Shape& s = input.shape();
  return oracle::context(
      h.c, std::span<const float>(input.data(), s.c * s.h * s.w), kFull);
}

/// The group conv / flat forms over one input.
void conv_contexts(const ContextGenerator& gen, const nn::Tensor& in,
                   const nn::ConvSpec& spec, ContextBatch& out,
                   std::size_t k = kFull) {
  const nn::Tensor* const one[] = {&in};
  gen.activation_contexts_into(one, spec, out, k);
}

void flat_context(const ContextGenerator& gen, const nn::Tensor& in,
                  ContextBatch& out) {
  const nn::Tensor* const one[] = {&in};
  gen.activation_context_flat_into(one, out, kFull);
}

/// Full equivalence of one batch entry against an oracle context:
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

void expect_batch_equal(const ContextBatch& batch,
                        const std::vector<Context>& ref) {
  ASSERT_EQ(batch.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_ctx_equal(batch, i, ref[i]);
}

TEST(Context, NormQuantizedToMiniFloat) {
  ContextGenerator gen(4, 1);
  const std::vector<float> v = {3.0f, 4.0f, 0.0f, 0.0f};
  ContextBatch ctx;
  gen.contexts_into(v.data(), 1, ctx, kFull);
  EXPECT_DOUBLE_EQ(ctx.exact_norm(0), 5.0);
  EXPECT_EQ(ctx.norms(true)[0], 5.0);  // 5.0 is exactly representable in E4M3
  EXPECT_EQ(ctx.sig_bits(), hash::kMaxHashBits);
}

TEST(Context, NormQuantizationErrorBounded) {
  ContextGenerator gen(16, 2);
  deepcam::Rng rng(3);
  std::vector<float> vs(50 * 16);
  for (auto& x : vs) x = static_cast<float>(rng.gaussian());
  ContextBatch ctx;
  gen.contexts_into(vs.data(), 50, ctx, kFull);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_NEAR(ctx.norms(true)[i], ctx.exact_norm(i),
                ctx.exact_norm(i) * 0.0625 + 1e-6);
}

TEST(Context, WeightContextsOnePerKernel) {
  nn::Conv2D conv("c", nn::ConvSpec{2, 5, 3, 3, 1, 1}, 4);
  ContextGenerator gen(conv.spec().patch_len(), 5);
  const ContextBatch ctxs = gen.weight_context_batch(conv.weights(), kFull);
  ASSERT_EQ(ctxs.size(), 5u);
  // Each context's norm equals the L2 norm of that kernel.
  for (std::size_t oc = 0; oc < 5; ++oc) {
    double s = 0.0;
    for (std::size_t i = 0; i < 18; ++i) {
      const float w = conv.weights()[oc * 18 + i];
      s += double(w) * w;
    }
    EXPECT_NEAR(ctxs.exact_norm(oc), std::sqrt(s), 1e-6);
  }
}

TEST(Context, LinearWeightContexts) {
  nn::Linear fc("f", 8, 3, 6);
  ContextGenerator gen(8, 7);
  EXPECT_EQ(gen.weight_context_batch(fc.weights(), kFull).size(), 3u);
}

TEST(Context, ActivationContextsPatchOrder) {
  // Patch (oy, ox) order must match the conv output layout.
  nn::ConvSpec spec{1, 1, 2, 2, 1, 0};
  ContextGenerator gen(spec.patch_len(), 8);
  nn::Tensor in({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) in[i] = static_cast<float>(i + 1);
  ContextBatch ctxs;
  conv_contexts(gen, in, spec, ctxs);
  ASSERT_EQ(ctxs.size(), 4u);  // 2x2 output positions
  // Patch (0,0) = {1,2,4,5}: norm sqrt(1+4+16+25).
  EXPECT_NEAR(ctxs.exact_norm(0), std::sqrt(46.0), 1e-5);
  // Patch (1,1) = {5,6,8,9}.
  EXPECT_NEAR(ctxs.exact_norm(3), std::sqrt(25.0 + 36 + 64 + 81), 1e-5);
}

TEST(Context, FlatActivationContext) {
  ContextGenerator gen(12, 9);
  nn::Tensor in({1, 3, 2, 2});
  in.fill(2.0f);
  ContextBatch ctx;
  flat_context(gen, in, ctx);
  ASSERT_EQ(ctx.size(), 1u);
  EXPECT_NEAR(ctx.exact_norm(0), std::sqrt(12.0 * 4.0), 1e-5);
}

TEST(Context, DimensionMismatchThrows) {
  ContextGenerator gen(4, 10);
  ContextBatch batch;
  // A flattened input of the wrong length, alone or behind a good one.
  nn::Tensor wrong({1, 2, 2, 2}), good({1, 1, 2, 2});
  const nn::Tensor* const wrong_only[] = {&wrong};
  const nn::Tensor* const good_then_wrong[] = {&good, &wrong};
  EXPECT_THROW(gen.activation_context_flat_into(wrong_only, batch, kFull),
               deepcam::Error);
  EXPECT_THROW(gen.activation_context_flat_into(good_then_wrong, batch, kFull),
               deepcam::Error);
  // A conv input with the wrong channel count, and a conv whose patch
  // length is not the generator's context length.
  const nn::ConvSpec spec{1, 1, 2, 2, 1, 0};  // patch length 4
  nn::Tensor two_channels({1, 2, 3, 3});
  EXPECT_THROW(conv_contexts(gen, two_channels, spec, batch), deepcam::Error);
  const nn::ConvSpec wide{2, 1, 2, 2, 1, 0};  // patch length 8
  EXPECT_THROW(conv_contexts(gen, two_channels, wide, batch), deepcam::Error);
  // A hash length wider than the generator's C.
  const std::vector<float> v(4, 1.0f);
  EXPECT_THROW(gen.contexts_into(v.data(), 1, batch, kFull + 1),
               deepcam::Error);
  const ContextGenerator narrow(4, 10, 256);
  narrow.contexts_into(v.data(), 1, batch, 256);
  EXPECT_THROW(narrow.contexts_into(v.data(), 1, batch, 257), deepcam::Error);
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
  const std::vector<float> v = {1, 2, 3, 4, 5, 6, 7, 8};
  ContextBatch ca, cb;
  a.contexts_into(v.data(), 1, ca, kFull);
  b.contexts_into(v.data(), 1, cb, kFull);
  for (std::size_t w = 0; w < ca.words_per_sig(); ++w)
    EXPECT_EQ(ca.sig(0)[w], cb.sig(0)[w]);
}

// ---- SoA ContextBatch pipeline: must match the per-vector oracle --------

TEST(ContextBatch, ActivationContextsMatchScalarPath) {
  nn::ConvSpec spec{2, 4, 3, 3, 1, 1};
  const Hasher h(spec.patch_len(), 11);
  nn::Tensor in({1, 2, 5, 5});
  Rng rng(12);
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = (i % 4 == 0) ? 0.0f : static_cast<float>(rng.gaussian());
  ContextBatch batch;
  conv_contexts(h.gen, in, spec, batch);
  expect_batch_equal(batch, activation_contexts(h, in, spec));
}

TEST(ContextBatch, WeightContextsMatchScalarPath) {
  nn::Conv2D conv("c", nn::ConvSpec{2, 5, 3, 3, 1, 1}, 4);
  const Hasher h(conv.spec().patch_len(), 5);
  expect_batch_equal(h.gen.weight_context_batch(conv.weights(), kFull),
                     weight_contexts(h, conv));

  nn::Linear fc("f", 8, 3, 6);
  const Hasher fh(8, 7);
  expect_batch_equal(fh.gen.weight_context_batch(fc.weights(), kFull),
                     weight_contexts(fh, fc));
}

TEST(ContextBatch, FlatActivationMatchesScalarPath) {
  const Hasher h(12, 9);
  nn::Tensor in({1, 3, 2, 2});
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(i) - 5.5f;
  ContextBatch batch;
  flat_context(h.gen, in, batch);
  expect_batch_equal(batch, {activation_context_flat(h, in)});
}

TEST(ContextBatch, GroupFormsMatchScalarPathInputByInput) {
  // A group's contexts are its inputs' contexts, input after input, each
  // from image 0, whatever the inputs' spatial sizes.
  nn::ConvSpec spec{2, 3, 3, 3, 1, 1};
  const Hasher h(spec.patch_len(), 15);
  std::vector<nn::Tensor> ins;
  Rng rng(16);
  for (std::size_t hw : {5u, 4u, 6u}) {
    nn::Tensor t({1, 2, hw, hw});
    for (std::size_t i = 0; i < t.numel(); ++i)
      t[i] = static_cast<float>(rng.gaussian());
    ins.push_back(std::move(t));
  }
  const nn::Tensor* const group[] = {&ins[0], &ins[1], &ins[2]};
  for (const std::size_t k : {std::size_t{256}, kFull}) {
    std::vector<Context> ref;
    for (const nn::Tensor& t : ins)
      for (Context& c : activation_contexts(h, t, spec, k))
        ref.push_back(std::move(c));
    ContextBatch batch;
    h.gen.activation_contexts_into(group, spec, batch, k);
    expect_batch_equal(batch, ref);
  }

  const Hasher fh(2 * 5 * 5, 17);
  const nn::Tensor* const flat_group[] = {&ins[0], &ins[0]};
  ContextBatch batch;
  fh.gen.activation_context_flat_into(flat_group, batch, kFull);
  const Context one = activation_context_flat(fh, ins[0]);
  expect_batch_equal(batch, {one, one});
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
  conv_contexts(gen, in, spec, full);
  for (std::size_t k : {std::size_t{256}, std::size_t{512}}) {
    conv_contexts(gen, in, spec, pre, k);
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
  const Hasher big(27, 41), small(4, 42);
  nn::ConvSpec big_spec{3, 1, 3, 3, 1, 0};
  nn::ConvSpec small_spec{1, 1, 2, 2, 1, 0};
  nn::Tensor big_in({1, 3, 6, 6}), small_in({1, 1, 3, 3});
  Rng rng(14);
  for (std::size_t i = 0; i < big_in.numel(); ++i)
    big_in[i] = static_cast<float>(rng.gaussian());
  for (std::size_t i = 0; i < small_in.numel(); ++i)
    small_in[i] = static_cast<float>(rng.gaussian());

  ContextBatch batch;
  conv_contexts(big.gen, big_in, big_spec, batch);
  conv_contexts(small.gen, small_in, small_spec, batch);
  expect_batch_equal(batch, activation_contexts(small, small_in, small_spec));

  conv_contexts(big.gen, big_in, big_spec, batch);
  expect_batch_equal(batch, activation_contexts(big, big_in, big_spec));
}

}  // namespace
}  // namespace deepcam::core
