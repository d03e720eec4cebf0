// 2-D convolution layer with training support.
//
// Forward builds the transposed im2col matrix of each image (one column per
// output pixel) and runs it through the affine_cols codelet against the
// weights: per output, bias + Σ w[i]·patch[i] in ascending i, unfused — the
// plain per-patch dot-product loop, bit for bit, at GEMM speed. The patch
// layout is what the DeepCAM context generator hashes (paper Fig. 4
// reshapes a kernel of size C×kh×kw into one context vector).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace deepcam::nn {

/// Static geometry of a convolution, shared with the hardware simulators.
struct ConvSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel_h = 3;
  std::size_t kernel_w = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;

  /// Context/patch vector length n = C·kh·kw.
  std::size_t patch_len() const { return in_channels * kernel_h * kernel_w; }
  /// Output extent; throws when the kernel does not fit the padded input.
  std::size_t out_h(std::size_t in_h) const {
    return window_out_size(in_h, pad, kernel_h, stride);
  }
  std::size_t out_w(std::size_t in_w) const {
    return window_out_size(in_w, pad, kernel_w, stride);
  }
};

class Conv2D final : public Layer {
 public:
  /// Weights are He-initialized from `seed`; bias is zero.
  Conv2D(std::string name, ConvSpec spec, std::uint64_t seed);

  LayerKind kind() const override { return LayerKind::kConv2D; }
  std::string name() const override { return name_; }
  const ConvSpec& spec() const { return spec_; }

  Tensor forward(const Tensor& in, bool train) override;
  Tensor infer(const Tensor& in) const override;
  /// infer through one ISA's codelet table instead of the dispatched one
  /// (every table gives the same bits; benches compare their speed).
  Tensor infer(const Tensor& in, const codelet::Kernels& kernels) const;
  Tensor backward(const Tensor& grad_out) override;
  void update(float lr) override;
  std::size_t param_count() const override {
    return weights_.size() + bias_.size();
  }

  /// Enables hash-noise-aware training: during train-mode forward passes,
  /// every output gets additive Gaussian noise with std
  /// `scale * ||patch|| * ||kernel||` — the first-order error model of the
  /// approximate geometric dot-product (DESIGN.md: noise-aware fine-tuning
  /// extension). scale = 0 disables. Inference forwards stay exact.
  void set_training_noise(float scale, std::uint64_t seed) {
    noise_scale_ = scale;
    noise_rng_ = Rng(seed);
  }

  /// Kernel weights, row-major [out_channels][patch_len].
  std::vector<float>& weights() { return weights_; }
  const std::vector<float>& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  /// Adds the training noise to `out` = infer(in), output by output in
  /// (n, oy, ox, oc) order.
  void add_training_noise(const Tensor& in, Tensor& out);

  std::string name_;
  ConvSpec spec_;
  std::vector<float> weights_;  // [out_c][in_c*kh*kw]
  std::vector<float> bias_;     // [out_c]
  std::vector<float> grad_w_, grad_b_;  // empty until the first backward()
  Tensor cached_in_;
  bool has_cache_ = false;
  float noise_scale_ = 0.0f;
  Rng noise_rng_{0};
};

}  // namespace deepcam::nn
