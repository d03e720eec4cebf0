#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"
#include "sim/backend.hpp"

namespace deepcam::nn {
namespace {

/// FNV-1a 64 over the little-endian bytes of each float, in order.
void fnv1a(std::uint64_t& h, const std::vector<float>& values) {
  for (float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

Tensor gaussian_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian());
  return t;
}

/// Two SGD steps (forward, backward, update), then the digest of the
/// layer's weights and bias.
template <class L>
std::uint64_t digest_after_two_steps(L& layer, const Shape& in_shape) {
  for (std::uint64_t step = 0; step < 2; ++step) {
    const Tensor out =
        layer.forward(gaussian_tensor(in_shape, 21 + step), true);
    layer.backward(gaussian_tensor(out.shape(), 31 + step));
    layer.update(0.05f);
  }
  std::uint64_t h = kFnvBasis;
  fnv1a(h, layer.weights());
  fnv1a(h, layer.bias());
  return h;
}

/// Digest of every Conv2D / Linear weight of a zoo model, in node order.
std::uint64_t model_weight_digest(const std::string& name) {
  const auto model = make_model(name, 1);
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < model->node_count(); ++i) {
    if (const auto* c = dynamic_cast<const Conv2D*>(&model->layer(i)))
      fnv1a(h, c->weights());
    else if (const auto* l = dynamic_cast<const Linear*>(&model->layer(i)))
      fnv1a(h, l->weights());
  }
  return h;
}

/// Digest of every node output of Model::infer_all over the zoo model's
/// first two probe inputs (sim::make_probe_batch, the planner's probes).
std::uint64_t infer_all_digest(const std::string& name) {
  const auto model = make_model(name, 1);
  std::uint64_t h = kFnvBasis;
  for (const Tensor& probe :
       sim::make_probe_batch(input_spec_for(name).shape(), 2))
    for (const Tensor& out : model->infer_all(probe))
      fnv1a(h, std::vector<float>(out.flat().begin(), out.flat().end()));
  return h;
}

/// Conv2D::infer as the per-patch loop it replaced: bias, then
/// acc += w[i]·patch[i] over the im2col patch, output by output.
Tensor per_patch_conv(const Conv2D& conv, const Tensor& in) {
  const ConvSpec& sp = conv.spec();
  const Shape& s = in.shape();
  const std::size_t oh = sp.out_h(s.h), ow = sp.out_w(s.w);
  const std::size_t plen = sp.patch_len();
  Tensor out({s.n, sp.out_channels, oh, ow});
  std::vector<float> patch(plen);
  for (std::size_t n = 0; n < s.n; ++n)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        extract_patch(in, n, oy, ox, sp.kernel_h, sp.kernel_w, sp.stride,
                      sp.pad, patch);
        for (std::size_t oc = 0; oc < sp.out_channels; ++oc) {
          const float* w = &conv.weights()[oc * plen];
          float acc = conv.bias()[oc];
          for (std::size_t i = 0; i < plen; ++i) acc += w[i] * patch[i];
          out.at(n, oc, oy, ox) = acc;
        }
      }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(Layers, UpdateBeforeBackwardLeavesWeightsBitwise) {
  // Gradients are allocated by the first backward(); until then update()
  // is a no-op, exactly like subtracting lr·0.
  Conv2D conv("c", ConvSpec{2, 3, 3, 3, 1, 1}, 7);
  Linear fc("f", 50, 10, 9);
  const auto conv_w = conv.weights();
  const auto fc_w = fc.weights();
  conv.update(0.5f);
  fc.update(0.5f);
  EXPECT_EQ(std::memcmp(conv.weights().data(), conv_w.data(),
                        conv_w.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(fc.weights().data(), fc_w.data(),
                        fc_w.size() * sizeof(float)),
            0);
}

TEST(Layers, TrainingStepsArePinned) {
  // Digests of the weights after two SGD steps, from the build that
  // allocated gradients in the constructor (g++ 12 / glibc 2.36, x86_64).
  Conv2D conv("c", ConvSpec{2, 3, 3, 3, 1, 1}, 7);
  EXPECT_EQ(digest_after_two_steps(conv, Shape{2, 2, 5, 5}),
            0xf085b01c489362e0ULL);
  Linear fc("f", 50, 10, 9);
  EXPECT_EQ(digest_after_two_steps(fc, Shape{3, 2, 5, 5}),
            0xbff25d003c3aab7dULL);
}

TEST(Layers, NoisyTrainingForwardIsPinned) {
  // Hash-noise-aware training adds its noise after the exact outputs, in
  // (n, oy, ox, oc) order; digest of three train-mode forwards from the
  // build that added it inside the per-patch loop (g++ 12 / glibc 2.36).
  Conv2D conv("c", ConvSpec{3, 5, 3, 2, 2, 1}, 7);
  conv.set_training_noise(0.1f, 99);
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t step = 0; step < 3; ++step) {
    const Tensor out =
        conv.forward(gaussian_tensor(Shape{2, 3, 9, 7}, 50 + step), true);
    fnv1a(h, std::vector<float>(out.flat().begin(), out.flat().end()));
  }
  EXPECT_EQ(h, 0x2d989a14278e77a1ULL);
}

TEST(Layers, ZooWeightsArePinned) {
  // Every Conv2D / Linear weight of the zoo models is a He-init Gaussian
  // draw; these digests (scalar Box–Muller loop, g++ 12 / glibc 2.36,
  // x86_64) pin them bitwise.
  EXPECT_EQ(model_weight_digest("lenet5"), 0x19bffcc4513f4522ULL);
  EXPECT_EQ(model_weight_digest("vgg11"), 0x32fcdf2d78604a9bULL);
}

TEST(Layers, InferAllDigestsArePinned) {
  // Every node output of the exact float forward on the planner's probes,
  // from the build whose Conv2D::infer was a per-patch scalar loop (g++ 12 /
  // glibc 2.36, x86_64). The affine_cols path must keep all of them.
  EXPECT_EQ(infer_all_digest("lenet5"), 0x70bfd478cb42d067ULL);
  EXPECT_EQ(infer_all_digest("vgg11"), 0x32efb2db56d52825ULL);
  EXPECT_EQ(infer_all_digest("resnet18"), 0x443e669cdbf0b760ULL);
}

// ---------------------------------------------------------------- Conv2D --

TEST(Conv2D, InferMatchesPerPatchLoopOnRandomSpecs) {
  // Seeded random geometries: rectangular kernels 1–5, stride 1–3, pad 0–2,
  // batch 1–3, inputs from the smallest that fits (1×1 outputs) up, with
  // ReLU-like zeros in the input and a random bias. Every reachable ISA's
  // table must give the per-patch loop's bits.
  std::mt19937 rng(57);
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  bool saw_1x1 = false;
  for (int trial = 0; trial < 60; ++trial) {
    ConvSpec sp;
    sp.in_channels = pick(1, 4);
    sp.out_channels = pick(1, 13);
    sp.kernel_h = pick(1, 5);
    sp.kernel_w = pick(1, 5);
    sp.stride = pick(1, 3);
    sp.pad = pick(0, 2);
    // The smallest input the kernel fits, plus 0..8 (0 gives a 1×1 output).
    const auto fit = [&](std::size_t k) {
      return std::max<std::size_t>(1, k > 2 * sp.pad ? k - 2 * sp.pad : 1) +
             (trial % 4 == 0 ? 0 : pick(0, 8));
    };
    const Shape shape{pick(1, 3), sp.in_channels, fit(sp.kernel_h),
                      fit(sp.kernel_w)};
    Conv2D conv("c", sp, 100 + static_cast<std::uint64_t>(trial));
    for (float& b : conv.bias())
      b = std::uniform_real_distribution<float>(-1.0f, 1.0f)(rng);
    Tensor in = gaussian_tensor(shape, 200 + static_cast<std::uint64_t>(trial));
    for (std::size_t i = 0; i < in.numel(); ++i)
      if (in[i] < 0.0f) in[i] = 0.0f;
    const Tensor want = per_patch_conv(conv, in);
    saw_1x1 |= want.shape().h == 1 && want.shape().w == 1;
    EXPECT_TRUE(same_bits(conv.infer(in), want)) << "trial " << trial;
    for (codelet::Isa isa :
         {codelet::Isa::kScalar, codelet::Isa::kAvx2, codelet::Isa::kAvx512}) {
      if (!codelet::isa_supported(isa)) continue;
      EXPECT_TRUE(same_bits(conv.infer(in, *codelet::kernels_for(isa)), want))
          << "trial " << trial << " " << codelet::isa_name(isa);
    }
  }
  EXPECT_TRUE(saw_1x1);
}

TEST(Conv2D, KernelLargerThanPaddedInputThrows) {
  // (in + 2·pad − kernel) would wrap in size_t: a 5×5 kernel on 3×3 used to
  // give a 2^64 − 1 extent.
  Conv2D conv("c", ConvSpec{1, 2, 5, 5, 1, 0}, 1);
  EXPECT_THROW(conv.infer(Tensor({1, 1, 3, 3})), Error);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3}), true), Error);
  EXPECT_THROW(conv.spec().out_h(3), Error);
  Conv2D wide("w", ConvSpec{1, 2, 1, 5, 1, 1}, 1);  // fits 3 + 2, not 2 + 2
  EXPECT_EQ(wide.infer(Tensor({1, 1, 2, 3})).shape(), (Shape{1, 2, 4, 1}));
  EXPECT_THROW(wide.infer(Tensor({1, 1, 3, 2})), Error);
}


TEST(Conv2D, KnownKernelConvolution) {
  Conv2D conv("c", ConvSpec{1, 1, 2, 2, 1, 0}, 1);
  conv.weights() = {1.0f, 0.0f, 0.0f, 1.0f};  // trace of 2x2 window
  conv.bias() = {0.5f};
  Tensor in({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) in[i] = static_cast<float>(i);
  Tensor out = conv.forward(in, false);
  EXPECT_TRUE((out.shape() == Shape{1, 1, 2, 2}));
  // Window at (0,0): 0 + 4 + bias.
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 4.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 4.0f + 8.0f + 0.5f);
}

TEST(Conv2D, PaddingKeepsSpatialSize) {
  Conv2D conv("c", ConvSpec{3, 8, 3, 3, 1, 1}, 2);
  Tensor in({1, 3, 5, 5});
  Tensor out = conv.forward(in, false);
  EXPECT_TRUE((out.shape() == Shape{1, 8, 5, 5}));
}

TEST(Conv2D, StrideDownsamples) {
  Conv2D conv("c", ConvSpec{1, 4, 1, 1, 2, 0}, 3);
  Tensor in({1, 1, 8, 8});
  Tensor out = conv.forward(in, false);
  EXPECT_TRUE((out.shape() == Shape{1, 4, 4, 4}));
}

TEST(Conv2D, ChannelMismatchThrows) {
  Conv2D conv("c", ConvSpec{2, 1, 3, 3, 1, 0}, 4);
  Tensor in({1, 3, 5, 5});
  EXPECT_THROW(conv.forward(in, false), Error);
}

TEST(Conv2D, GradientCheckWeights) {
  // Numerical gradient check on a tiny conv.
  Conv2D conv("c", ConvSpec{1, 2, 2, 2, 1, 0}, 5);
  Rng rng(6);
  Tensor in({1, 1, 3, 3});
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(rng.gaussian());
  // Loss = sum(out); dLoss/dout = 1.
  Tensor out = conv.forward(in, true);
  Tensor gout(out.shape());
  gout.fill(1.0f);
  conv.backward(gout);

  // Finite difference on weight[0] of kernel 0: perturb and re-run.
  const float eps = 1e-3f;
  auto loss_with_w0 = [&](float w0) {
    Conv2D c2("c", ConvSpec{1, 2, 2, 2, 1, 0}, 5);
    c2.weights() = conv.weights();
    c2.bias() = conv.bias();
    c2.weights()[0] = w0;
    Tensor o = c2.forward(in, false);
    double s = 0.0;
    for (std::size_t i = 0; i < o.numel(); ++i) s += o[i];
    return s;
  };
  const float w0 = conv.weights()[0];
  const double num_grad =
      (loss_with_w0(w0 + eps) - loss_with_w0(w0 - eps)) / (2.0 * eps);
  // Recover analytic grad: update with lr=1 changes w by -grad.
  Conv2D ref("c", ConvSpec{1, 2, 2, 2, 1, 0}, 5);
  const float before = conv.weights()[0];
  conv.update(1.0f);
  const double ana_grad = double(before) - conv.weights()[0];
  (void)ref;
  EXPECT_NEAR(ana_grad, num_grad, 1e-2);
}

TEST(Conv2D, BackwardInputGradientShape) {
  Conv2D conv("c", ConvSpec{2, 3, 3, 3, 1, 1}, 7);
  Tensor in({1, 2, 4, 4});
  Tensor out = conv.forward(in, true);
  Tensor gout(out.shape());
  gout.fill(0.1f);
  Tensor gin = conv.backward(gout);
  EXPECT_TRUE(gin.shape() == in.shape());
}

TEST(Conv2D, BackwardWithoutForwardThrows) {
  Conv2D conv("c", ConvSpec{1, 1, 2, 2, 1, 0}, 8);
  Tensor g({1, 1, 2, 2});
  EXPECT_THROW(conv.backward(g), Error);
}

// ---------------------------------------------------------------- Linear --

TEST(Linear, KnownMatrixVector) {
  Linear fc("f", 3, 2, 1);
  fc.weights() = {1, 2, 3, 4, 5, 6};  // row-major [2][3]
  fc.bias() = {0.0f, 1.0f};
  Tensor in({1, 3, 1, 1});
  in[0] = 1.0f;
  in[1] = 0.0f;
  in[2] = -1.0f;
  Tensor out = fc.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 1.0f - 3.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f - 6.0f + 1.0f);
}

TEST(Linear, AcceptsSpatialInputAsFlattened) {
  Linear fc("f", 8, 2, 2);
  Tensor in({1, 2, 2, 2});
  EXPECT_NO_THROW(fc.forward(in, false));
  Tensor wrong({1, 3, 2, 2});
  EXPECT_THROW(fc.forward(wrong, false), Error);
}

TEST(Linear, GradientCheck) {
  Linear fc("f", 4, 3, 3);
  Rng rng(9);
  Tensor in({1, 4, 1, 1});
  for (std::size_t i = 0; i < 4; ++i)
    in[i] = static_cast<float>(rng.gaussian());
  Tensor out = fc.forward(in, true);
  Tensor gout(out.shape());
  gout.fill(1.0f);
  Tensor gin = fc.backward(gout);
  // dLoss/dx_i = sum_o W[o][i].
  for (std::size_t i = 0; i < 4; ++i) {
    float expect = 0.0f;
    for (std::size_t o = 0; o < 3; ++o) expect += fc.weights()[o * 4 + i];
    EXPECT_NEAR(gin[i], expect, 1e-5);
  }
  // dLoss/dW[o][i] = x_i.
  const float w00 = fc.weights()[0];
  fc.update(1.0f);
  EXPECT_NEAR(w00 - fc.weights()[0], in[0], 1e-5);
}

TEST(Linear, BatchForward) {
  Linear fc("f", 2, 1, 4);
  fc.weights() = {1.0f, 1.0f};
  fc.bias() = {0.0f};
  Tensor in({3, 2, 1, 1});
  for (std::size_t i = 0; i < 6; ++i) in[i] = static_cast<float>(i);
  Tensor out = fc.forward(in, false);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0, 0, 0), 9.0f);
}

// ------------------------------------------------------------- Pointwise --

TEST(ReLU, ClampsNegatives) {
  ReLU r("r");
  Tensor in({1, 1, 1, 4});
  in[0] = -1.0f;
  in[1] = 0.0f;
  in[2] = 2.0f;
  in[3] = -0.5f;
  Tensor out = r.forward(in, false);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU r("r");
  Tensor in({1, 1, 1, 3});
  in[0] = -1.0f;
  in[1] = 3.0f;
  in[2] = 0.0f;
  r.forward(in, true);
  Tensor g({1, 1, 1, 3});
  g.fill(1.0f);
  Tensor gin = r.backward(g);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 1.0f);
  EXPECT_EQ(gin[2], 0.0f);  // ReLU'(0) = 0 convention
}

TEST(Flatten, RoundTrip) {
  Flatten f("f");
  Tensor in({2, 3, 4, 4});
  Tensor out = f.forward(in, true);
  EXPECT_TRUE((out.shape() == Shape{2, 48, 1, 1}));
  Tensor g(out.shape());
  Tensor gin = f.backward(g);
  EXPECT_TRUE(gin.shape() == in.shape());
}

TEST(Softmax, NormalizesToOne) {
  Softmax s("s");
  Tensor in({2, 4, 1, 1});
  for (std::size_t i = 0; i < 8; ++i) in[i] = static_cast<float>(i) * 0.3f;
  Tensor out = s.forward(in, false);
  for (std::size_t n = 0; n < 2; ++n) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 4; ++c) sum += out.at(n, c, 0, 0);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Softmax, LargeLogitsStable) {
  Softmax s("s");
  Tensor in({1, 2, 1, 1});
  in[0] = 1000.0f;
  in[1] = 999.0f;
  Tensor out = s.forward(in, false);
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_GT(out[0], out[1]);
}

TEST(BatchNorm, AffinePerChannel) {
  BatchNorm bn("bn", 2, 1);
  bn.gamma() = {2.0f, 0.5f};
  bn.beta() = {1.0f, -1.0f};
  Tensor in({1, 2, 1, 2});
  in.at(0, 0, 0, 0) = 3.0f;
  in.at(0, 1, 0, 1) = 4.0f;
  Tensor out = bn.forward(in, false);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 7.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 1), 1.0f);
}

TEST(Add, ElementwiseSumAndShapeCheck) {
  Add add("a");
  Tensor a({1, 1, 2, 2}), b({1, 1, 2, 2});
  a.fill(1.0f);
  b.fill(2.0f);
  Tensor out = add.forward2(a, b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], 3.0f);
  Tensor c({1, 1, 2, 3});
  EXPECT_THROW(add.forward2(a, c), Error);
  EXPECT_THROW(add.forward(a, false), Error);  // single-input use forbidden
}

// --------------------------------------------------------------- Pooling --

TEST(MaxPool, SelectsWindowMax) {
  MaxPool p("p", 2, 2);
  Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
  Tensor out = p.forward(in, false);
  EXPECT_TRUE((out.shape() == Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(out.at(0, 0, 1, 1), 15.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool p("p", 2, 2);
  Tensor in({1, 1, 2, 2});
  in[0] = 1.0f;
  in[1] = 5.0f;
  in[2] = 2.0f;
  in[3] = 0.0f;
  p.forward(in, true);
  Tensor g({1, 1, 1, 1});
  g[0] = 3.0f;
  Tensor gin = p.backward(g);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 3.0f);
  EXPECT_EQ(gin[2], 0.0f);
}

TEST(MaxPool, WindowLargerThanInputThrows) {
  MaxPool pool("p", 4, 4);
  EXPECT_THROW(pool.infer(Tensor({1, 1, 2, 2})), Error);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 2, 2}), true), Error);
  EXPECT_EQ(pool.infer(Tensor({1, 1, 4, 4})).shape(), (Shape{1, 1, 1, 1}));
}

TEST(AvgPool, WindowLargerThanInputThrows) {
  AvgPool pool("p", 4, 4);
  EXPECT_THROW(pool.infer(Tensor({1, 1, 2, 2})), Error);
  EXPECT_THROW(pool.infer(Tensor({1, 1, 4, 3})), Error);
  EXPECT_EQ(pool.infer(Tensor({1, 1, 4, 4})).shape(), (Shape{1, 1, 1, 1}));
}

TEST(AvgPool, Averages) {
  AvgPool p("p", 2, 2);
  Tensor in({1, 1, 2, 2});
  in[0] = 1.0f;
  in[1] = 2.0f;
  in[2] = 3.0f;
  in[3] = 6.0f;
  Tensor out = p.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(LayerKindNames, AllDistinct) {
  EXPECT_STREQ(layer_kind_name(LayerKind::kConv2D), "Conv2D");
  EXPECT_STREQ(layer_kind_name(LayerKind::kLinear), "Linear");
  EXPECT_STREQ(layer_kind_name(LayerKind::kAdd), "Add");
}

}  // namespace
}  // namespace deepcam::nn
