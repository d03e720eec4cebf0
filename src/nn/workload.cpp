#include "nn/workload.hpp"

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace deepcam::nn {

std::vector<Shape> infer_shapes(const Model& model, Shape input_shape) {
  std::vector<Shape> shapes;
  shapes.reserve(model.node_count());
  auto shape_of = [&](int idx) -> const Shape& {
    return idx == kModelInput ? input_shape
                              : shapes[static_cast<std::size_t>(idx)];
  };
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const Layer& layer = model.layer(i);
    const Shape in = shape_of(model.inputs_of(i)[0]);
    Shape out = in;
    switch (layer.kind()) {
      case LayerKind::kConv2D: {
        const auto& conv = static_cast<const Conv2D&>(layer);
        const ConvSpec& sp = conv.spec();
        DEEPCAM_CHECK_MSG(in.c == sp.in_channels,
                          "shape inference: conv channel mismatch");
        out = {in.n, sp.out_channels, sp.out_h(in.h), sp.out_w(in.w)};
        break;
      }
      case LayerKind::kLinear: {
        const auto& fc = static_cast<const Linear&>(layer);
        DEEPCAM_CHECK_MSG(in.c * in.h * in.w == fc.in_features(),
                          "shape inference: linear feature mismatch");
        out = {in.n, fc.out_features(), 1, 1};
        break;
      }
      case LayerKind::kMaxPool: {
        const auto& p = static_cast<const MaxPool&>(layer);
        out = {in.n, in.c, window_out_size(in.h, 0, p.window(), p.stride()),
               window_out_size(in.w, 0, p.window(), p.stride())};
        break;
      }
      case LayerKind::kAvgPool: {
        const auto& p = static_cast<const AvgPool&>(layer);
        out = {in.n, in.c, window_out_size(in.h, 0, p.window(), p.stride()),
               window_out_size(in.w, 0, p.window(), p.stride())};
        break;
      }
      case LayerKind::kFlatten:
        out = {in.n, in.c * in.h * in.w, 1, 1};
        break;
      case LayerKind::kAdd: {
        const Shape other = shape_of(model.inputs_of(i)[1]);
        DEEPCAM_CHECK_MSG(in == other, "shape inference: add mismatch");
        out = in;
        break;
      }
      case LayerKind::kReLU:
      case LayerKind::kBatchNorm:
      case LayerKind::kSoftmax:
        out = in;
        break;
    }
    shapes.push_back(out);
  }
  return shapes;
}

std::vector<GemmDims> extract_gemm_workload(const Model& model,
                                            Shape input_shape) {
  const auto shapes = infer_shapes(model, input_shape);
  std::vector<GemmDims> work;
  auto shape_of = [&](int idx) -> const Shape& {
    return idx == kModelInput ? input_shape
                              : shapes[static_cast<std::size_t>(idx)];
  };
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const Layer& layer = model.layer(i);
    if (layer.kind() == LayerKind::kConv2D) {
      const auto& conv = static_cast<const Conv2D&>(layer);
      const Shape in = shape_of(model.inputs_of(i)[0]);
      const ConvSpec& sp = conv.spec();
      work.push_back({layer.name(), sp.out_h(in.h) * sp.out_w(in.w),
                      sp.out_channels, sp.patch_len()});
    } else if (layer.kind() == LayerKind::kLinear) {
      const auto& fc = static_cast<const Linear&>(layer);
      work.push_back({layer.name(), 1, fc.out_features(), fc.in_features()});
    }
  }
  return work;
}

std::size_t total_macs(const Model& model, Shape input_shape) {
  std::size_t total = 0;
  for (const auto& g : extract_gemm_workload(model, input_shape))
    total += g.macs();
  return total;
}

}  // namespace deepcam::nn
