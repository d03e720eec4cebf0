#include "nn/linear.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace deepcam::nn {

Linear::Linear(std::string name, std::size_t in_features,
               std::size_t out_features, std::uint64_t seed)
    : name_(std::move(name)), in_(in_features), out_(out_features) {
  weights_.resize(in_ * out_);
  bias_.assign(out_, 0.0f);
  Rng rng(seed);
  const double std = std::sqrt(2.0 / static_cast<double>(in_));
  rng.fill_gaussian(weights_.data(), weights_.size(), std);
}

Tensor Linear::infer(const Tensor& in) const {
  const Shape& s = in.shape();
  const std::size_t feat = s.c * s.h * s.w;
  DEEPCAM_CHECK_MSG(feat == in_, "linear input feature mismatch");
  Tensor out({s.n, out_, 1, 1});
  for (std::size_t n = 0; n < s.n; ++n) {
    const float* x = in.data() + n * feat;
    for (std::size_t o = 0; o < out_; ++o) {
      const float* w = &weights_[o * in_];
      float acc = bias_[o];
      for (std::size_t i = 0; i < in_; ++i) acc += w[i] * x[i];
      out.at(n, o, 0, 0) = acc;
    }
  }
  return out;
}

Tensor Linear::forward(const Tensor& in, bool train) {
  if (!train) return infer(in);
  const Shape& s = in.shape();
  const std::size_t feat = s.c * s.h * s.w;
  DEEPCAM_CHECK_MSG(feat == in_, "linear input feature mismatch");
  Tensor out({s.n, out_, 1, 1});
  const bool noisy = noise_scale_ > 0.0f;
  std::vector<float> w_norms;
  if (noisy) {
    w_norms.resize(out_);
    for (std::size_t o = 0; o < out_; ++o) {
      double ss = 0.0;
      for (std::size_t i = 0; i < in_; ++i) {
        const float w = weights_[o * in_ + i];
        ss += double(w) * w;
      }
      w_norms[o] = static_cast<float>(std::sqrt(ss));
    }
  }
  for (std::size_t n = 0; n < s.n; ++n) {
    const float* x = in.data() + n * feat;
    float x_norm = 0.0f;
    if (noisy) {
      double ss = 0.0;
      for (std::size_t i = 0; i < in_; ++i) ss += double(x[i]) * x[i];
      x_norm = static_cast<float>(std::sqrt(ss));
    }
    for (std::size_t o = 0; o < out_; ++o) {
      const float* w = &weights_[o * in_];
      float acc = bias_[o];
      for (std::size_t i = 0; i < in_; ++i) acc += w[i] * x[i];
      if (noisy)
        acc += noise_scale_ * x_norm * w_norms[o] *
               static_cast<float>(noise_rng_.gaussian());
      out.at(n, o, 0, 0) = acc;
    }
  }
  cached_in_ = in;
  has_cache_ = true;
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  DEEPCAM_CHECK_MSG(has_cache_, "Linear::backward without cached forward");
  if (grad_w_.empty()) {  // first backward: inference-only models never pay
    grad_w_.assign(weights_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
  }
  const Tensor& in = cached_in_;
  const Shape& s = in.shape();
  const std::size_t feat = s.c * s.h * s.w;
  Tensor grad_in(s);
  for (std::size_t n = 0; n < s.n; ++n) {
    const float* x = in.data() + n * feat;
    float* gi = grad_in.data() + n * feat;
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = grad_out.at(n, o, 0, 0);
      if (g == 0.0f) continue;
      grad_b_[o] += g;
      float* gw = &grad_w_[o * in_];
      const float* w = &weights_[o * in_];
      for (std::size_t i = 0; i < in_; ++i) {
        gw[i] += g * x[i];
        gi[i] += g * w[i];
      }
    }
  }
  return grad_in;
}

void Linear::update(float lr) {
  if (grad_w_.empty()) return;  // no backward yet: every gradient is zero
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] -= lr * grad_w_[i];
    grad_w_[i] = 0.0f;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= lr * grad_b_[i];
    grad_b_[i] = 0.0f;
  }
}

}  // namespace deepcam::nn
