// Fully-connected layer with training support.
//
// Accepts any input shape with matching element count (implicit flatten of
// C×H×W); output shape is {N, out_features, 1, 1}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace deepcam::nn {

class Linear final : public Layer {
 public:
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         std::uint64_t seed);

  LayerKind kind() const override { return LayerKind::kLinear; }
  std::string name() const override { return name_; }
  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Tensor forward(const Tensor& in, bool train) override;
  Tensor infer(const Tensor& in) const override;
  Tensor backward(const Tensor& grad_out) override;
  void update(float lr) override;
  std::size_t param_count() const override {
    return weights_.size() + bias_.size();
  }

  /// Hash-noise-aware training (see Conv2D::set_training_noise).
  void set_training_noise(float scale, std::uint64_t seed) {
    noise_scale_ = scale;
    noise_rng_ = Rng(seed);
  }

  /// Weights, row-major [out_features][in_features].
  std::vector<float>& weights() { return weights_; }
  const std::vector<float>& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  std::string name_;
  std::size_t in_, out_;
  std::vector<float> weights_, bias_;
  std::vector<float> grad_w_, grad_b_;  // empty until the first backward()
  Tensor cached_in_;
  bool has_cache_ = false;
  float noise_scale_ = 0.0f;
  Rng noise_rng_{0};
};

}  // namespace deepcam::nn
