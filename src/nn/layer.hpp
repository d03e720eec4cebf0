// Layer interface for the CNN framework.
//
// Layers implement forward(); trainable layers additionally implement
// backward()/update() (sufficient for the in-repo LeNet5 training used by
// the Fig. 5 reproduction). Layers that map onto the DeepCAM CAM array
// (Conv2D, Linear) expose their geometry through kind() so the accelerator
// and the baseline simulators can introspect the model.
#pragma once

#include <memory>
#include <string>

#include "nn/tensor.hpp"

namespace deepcam::nn {

enum class LayerKind {
  kConv2D,
  kLinear,
  kReLU,
  kMaxPool,
  kAvgPool,
  kBatchNorm,
  kFlatten,
  kAdd,       // residual addition (two inputs)
  kSoftmax,
};

/// Human-readable name of a LayerKind.
const char* layer_kind_name(LayerKind kind);

/// Output extent of a `window` sliding `stride` at a time over `in`
/// elements padded by `pad` on each side: (in + 2·pad − window) / stride + 1.
/// Throws when the window is empty or larger than the padded input (the
/// unsigned formula would wrap to a huge extent) or the stride is zero.
inline std::size_t window_out_size(std::size_t in, std::size_t pad,
                                   std::size_t window, std::size_t stride) {
  DEEPCAM_CHECK_MSG(stride > 0, "window stride must be positive");
  DEEPCAM_CHECK_MSG(window > 0 && window <= in + 2 * pad,
                    "window of " + std::to_string(window) +
                        " does not fit an input of " + std::to_string(in) +
                        " padded by " + std::to_string(pad));
  return (in + 2 * pad - window) / stride + 1;
}

class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Computes the output given one input. `train` requests caching of
  /// whatever backward() needs.
  virtual Tensor forward(const Tensor& in, bool train = false) = 0;

  /// Inference-only forward pass: no gradient caching, no training noise, no
  /// mutation of any member. Safe to call concurrently from many threads on
  /// a shared model — this is the path the batched InferenceEngine uses.
  virtual Tensor infer(const Tensor& in) const = 0;

  /// Propagates gradients; returns d(loss)/d(input). Only layers used by the
  /// trainer implement this; the default reports non-trainable.
  virtual Tensor backward(const Tensor& grad_out);

  /// Applies an SGD step with learning rate `lr` and zeroes the gradients.
  virtual void update(float lr) { (void)lr; }

  /// Number of trainable parameters.
  virtual std::size_t param_count() const { return 0; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace deepcam::nn
