#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace deepcam::nn {

Conv2D::Conv2D(std::string name, ConvSpec spec, std::uint64_t seed)
    : name_(std::move(name)), spec_(spec) {
  const std::size_t fan_in = spec_.patch_len();
  weights_.resize(spec_.out_channels * fan_in);
  bias_.assign(spec_.out_channels, 0.0f);
  Rng rng(seed);
  const double std = std::sqrt(2.0 / static_cast<double>(fan_in));
  rng.fill_gaussian(weights_.data(), weights_.size(), std);
}

namespace {

/// Transposed im2col of image `n`: row (c·kh + ky)·kw + kx of `cols` holds
/// that patch element — the input pixel, or 0 in the padding — for every
/// output pixel oy·ow + ox. Column j is extract_patch's patch at pixel j.
void im2col_transposed(const Tensor& in, std::size_t n, const ConvSpec& spec,
                       std::size_t oh, std::size_t ow, float* cols) {
  const Shape& s = in.shape();
  const auto pad = static_cast<std::ptrdiff_t>(spec.pad);
  for (std::size_t c = 0; c < s.c; ++c) {
    const float* plane = in.data() + (n * s.c + c) * s.h * s.w;
    for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
      for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
        for (std::size_t oy = 0; oy < oh; ++oy, cols += ow) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) - pad;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h)) {
            std::fill_n(cols, ow, 0.0f);
            continue;
          }
          const float* row = plane + static_cast<std::size_t>(iy) * s.w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) - pad;
            cols[ox] = ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.w)
                           ? 0.0f
                           : row[ix];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2D::infer(const Tensor& in) const {
  return infer(in, codelet::kernels());
}

Tensor Conv2D::infer(const Tensor& in, const codelet::Kernels& kernels) const {
  const Shape& s = in.shape();
  DEEPCAM_CHECK_MSG(s.c == spec_.in_channels, "conv input channel mismatch");
  const std::size_t oh = spec_.out_h(s.h);
  const std::size_t ow = spec_.out_w(s.w);
  const std::size_t pixels = oh * ow;
  const std::size_t plen = spec_.patch_len();
  const std::size_t oc = spec_.out_channels;
  Tensor out({s.n, oc, oh, ow});
  // Local, not a member: infer is const and runs on engine workers at once.
  std::vector<float> cols(plen * pixels);
  for (std::size_t n = 0; n < s.n; ++n) {
    im2col_transposed(in, n, spec_, oh, ow, cols.data());
    kernels.affine_cols(weights_.data(), cols.data(), bias_.data(), oc, plen,
                        pixels, pixels, out.data() + n * oc * pixels);
  }
  return out;
}

Tensor Conv2D::forward(const Tensor& in, bool train) {
  Tensor out = infer(in);
  if (!train) return out;
  if (noise_scale_ > 0.0f) add_training_noise(in, out);
  cached_in_ = in;
  has_cache_ = true;
  return out;
}

void Conv2D::add_training_noise(const Tensor& in, Tensor& out) {
  const Shape& s = in.shape();
  const std::size_t oh = out.shape().h;
  const std::size_t ow = out.shape().w;
  const std::size_t plen = spec_.patch_len();
  std::vector<float> w_norms(spec_.out_channels);
  for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
    double ss = 0.0;
    for (std::size_t i = 0; i < plen; ++i) {
      const float w = weights_[oc * plen + i];
      ss += double(w) * w;
    }
    w_norms[oc] = static_cast<float>(std::sqrt(ss));
  }
  std::vector<float> patch(plen);
  for (std::size_t n = 0; n < s.n; ++n) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        extract_patch(in, n, oy, ox, spec_.kernel_h, spec_.kernel_w,
                      spec_.stride, spec_.pad, patch);
        double ss = 0.0;
        for (std::size_t i = 0; i < plen; ++i)
          ss += double(patch[i]) * patch[i];
        const float patch_norm = static_cast<float>(std::sqrt(ss));
        for (std::size_t oc = 0; oc < spec_.out_channels; ++oc)
          out.at(n, oc, oy, ox) += noise_scale_ * patch_norm * w_norms[oc] *
                                   static_cast<float>(noise_rng_.gaussian());
      }
    }
  }
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  DEEPCAM_CHECK_MSG(has_cache_, "Conv2D::backward without cached forward");
  if (grad_w_.empty()) {  // first backward: inference-only models never pay
    grad_w_.assign(weights_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
  }
  const Tensor& in = cached_in_;
  const Shape& s = in.shape();
  const std::size_t oh = spec_.out_h(s.h);
  const std::size_t ow = spec_.out_w(s.w);
  const std::size_t plen = spec_.patch_len();
  Tensor grad_in(s);
  std::vector<float> patch(plen);
  for (std::size_t n = 0; n < s.n; ++n) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        extract_patch(in, n, oy, ox, spec_.kernel_h, spec_.kernel_w,
                      spec_.stride, spec_.pad, patch);
        for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
          const float g = grad_out.at(n, oc, oy, ox);
          if (g == 0.0f) continue;
          grad_b_[oc] += g;
          float* gw = &grad_w_[oc * plen];
          const float* w = &weights_[oc * plen];
          // Accumulate weight grads and scatter input grads.
          std::size_t idx = 0;
          for (std::size_t c = 0; c < s.c; ++c) {
            for (std::size_t ky = 0; ky < spec_.kernel_h; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * spec_.stride + ky) -
                  static_cast<std::ptrdiff_t>(spec_.pad);
              for (std::size_t kx = 0; kx < spec_.kernel_w; ++kx, ++idx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * spec_.stride + kx) -
                    static_cast<std::ptrdiff_t>(spec_.pad);
                gw[idx] += g * patch[idx];
                if (iy >= 0 && ix >= 0 &&
                    iy < static_cast<std::ptrdiff_t>(s.h) &&
                    ix < static_cast<std::ptrdiff_t>(s.w)) {
                  grad_in.at(n, c, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix)) += g * w[idx];
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv2D::update(float lr) {
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
