#include "nn/pointwise.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace deepcam::nn {

Tensor ReLU::infer(const Tensor& in) const {
  Tensor out = in;
  for (std::size_t i = 0; i < out.numel(); ++i)
    if (out[i] < 0.0f) out[i] = 0.0f;
  return out;
}

Tensor ReLU::forward(const Tensor& in, bool train) {
  if (train) {
    cached_in_ = in;
    has_cache_ = true;
  }
  return infer(in);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  DEEPCAM_CHECK_MSG(has_cache_, "ReLU::backward without cached forward");
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.numel(); ++i)
    if (cached_in_[i] <= 0.0f) grad_in[i] = 0.0f;
  return grad_in;
}

Tensor Flatten::infer(const Tensor& in) const {
  const Shape& s = in.shape();
  return in.reshaped({s.n, s.c * s.h * s.w, 1, 1});
}

Tensor Flatten::forward(const Tensor& in, bool train) {
  if (train) {
    cached_shape_ = in.shape();
    has_cache_ = true;
  }
  return infer(in);
}

Tensor Flatten::backward(const Tensor& grad_out) {
  DEEPCAM_CHECK_MSG(has_cache_, "Flatten::backward without cached forward");
  return grad_out.reshaped(cached_shape_);
}

Tensor Softmax::forward(const Tensor& in, bool /*train*/) {
  return infer(in);
}

Tensor Softmax::infer(const Tensor& in) const {
  const Shape& s = in.shape();
  const std::size_t feat = s.c * s.h * s.w;
  Tensor out = in;
  for (std::size_t n = 0; n < s.n; ++n) {
    float* x = out.data() + n * feat;
    float mx = x[0];
    for (std::size_t i = 1; i < feat; ++i) mx = std::max(mx, x[i]);
    double sum = 0.0;
    for (std::size_t i = 0; i < feat; ++i) {
      x[i] = std::exp(x[i] - mx);
      sum += x[i];
    }
    for (std::size_t i = 0; i < feat; ++i)
      x[i] = static_cast<float>(x[i] / sum);
  }
  return out;
}

BatchNorm::BatchNorm(std::string name, std::size_t channels,
                     std::uint64_t seed)
    : name_(std::move(name)) {
  gamma_.resize(channels);
  beta_.resize(channels);
  Rng rng(seed);
  // Near-identity folded parameters: gamma in [0.8, 1.2], small beta.
  for (auto& g : gamma_) g = static_cast<float>(rng.uniform(0.8, 1.2));
  rng.fill_gaussian(beta_.data(), beta_.size(), 0.05);
}

Tensor BatchNorm::forward(const Tensor& in, bool /*train*/) {
  return infer(in);
}

Tensor BatchNorm::infer(const Tensor& in) const {
  const Shape& s = in.shape();
  DEEPCAM_CHECK_MSG(s.c == gamma_.size(), "batchnorm channel mismatch");
  Tensor out = in;
  for (std::size_t n = 0; n < s.n; ++n)
    for (std::size_t c = 0; c < s.c; ++c)
      for (std::size_t y = 0; y < s.h; ++y)
        for (std::size_t x = 0; x < s.w; ++x)
          out.at(n, c, y, x) = gamma_[c] * in.at(n, c, y, x) + beta_[c];
  return out;
}

Tensor Add::forward(const Tensor& /*in*/, bool /*train*/) {
  throw Error("Add is a two-input node; use forward2 via the graph Model");
}

Tensor Add::infer(const Tensor& /*in*/) const {
  throw Error("Add is a two-input node; use forward2 via the graph Model");
}

Tensor Add::forward2(const Tensor& a, const Tensor& b) const {
  DEEPCAM_CHECK_MSG(a.shape() == b.shape(), "residual add shape mismatch");
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] += b[i];
  return out;
}

}  // namespace deepcam::nn
