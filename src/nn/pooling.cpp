#include "nn/pooling.hpp"

#include <limits>

namespace deepcam::nn {

Tensor MaxPool::pool(const Tensor& in,
                     std::vector<std::size_t>* argmax) const {
  const Shape& s = in.shape();
  const std::size_t oh = window_out_size(s.h, 0, window_, stride_);
  const std::size_t ow = window_out_size(s.w, 0, window_, stride_);
  Tensor out({s.n, s.c, oh, ow});
  if (argmax != nullptr) argmax->assign(out.numel(), 0);
  std::size_t oidx = 0;
  for (std::size_t n = 0; n < s.n; ++n) {
    for (std::size_t c = 0; c < s.c; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = in.at(n, c, iy, ix);
              if (v > best) {
                best = v;
                best_idx = ((n * s.c + c) * s.h + iy) * s.w + ix;
              }
            }
          }
          out.at(n, c, oy, ox) = best;
          if (argmax != nullptr) (*argmax)[oidx] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool::infer(const Tensor& in) const { return pool(in, nullptr); }

Tensor MaxPool::forward(const Tensor& in, bool train) {
  if (!train) return infer(in);
  cached_in_shape_ = in.shape();
  has_cache_ = true;
  return pool(in, &argmax_);
}

Tensor MaxPool::backward(const Tensor& grad_out) {
  DEEPCAM_CHECK_MSG(has_cache_, "MaxPool::backward without cached forward");
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[i]] += grad_out[i];
  return grad_in;
}

Tensor AvgPool::forward(const Tensor& in, bool /*train*/) {
  return infer(in);
}

Tensor AvgPool::infer(const Tensor& in) const {
  const Shape& s = in.shape();
  const std::size_t oh = window_out_size(s.h, 0, window_, stride_);
  const std::size_t ow = window_out_size(s.w, 0, window_, stride_);
  Tensor out({s.n, s.c, oh, ow});
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t n = 0; n < s.n; ++n)
    for (std::size_t c = 0; c < s.c; ++c)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx)
              acc += in.at(n, c, oy * stride_ + ky, ox * stride_ + kx);
          out.at(n, c, oy, ox) = acc * inv;
        }
  return out;
}

}  // namespace deepcam::nn
