#include "plan/geometry.hpp"

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace deepcam::plan {

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix_byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void mix(const std::string& s) {
    for (const char c : s) mix_byte(static_cast<std::uint8_t>(c));
    mix_byte(0);  // delimit, so {"ab","c"} != {"a","bc"}
  }
};

}  // namespace

std::size_t ModelGeometry::peripheral_cycles(core::CyclePreset preset) const {
  std::size_t cycles = 0;
  for (const std::size_t elems : peripheral_elems)
    cycles += core::peripheral_cycles(elems, preset);
  return cycles;
}

std::uint64_t ModelGeometry::digest() const {
  Fnv1a f;
  f.mix(model_name);
  f.mix(input.n);
  f.mix(input.c);
  f.mix(input.h);
  f.mix(input.w);
  for (const auto& l : cam_layers) {
    f.mix(l.name);
    f.mix(l.node_index);
    f.mix(static_cast<std::uint64_t>(l.is_conv));
    f.mix(l.patches);
    f.mix(l.kernels);
    f.mix(l.context_len);
  }
  for (const std::size_t elems : peripheral_elems) f.mix(elems);
  return f.h;
}

ModelGeometry extract_geometry(const nn::Model& model, nn::Shape input) {
  ModelGeometry geo;
  geo.model_name = model.name();
  geo.input = input;
  // Per-sample geometry: the engine simulates batch 1 per worker pass.
  input.n = 1;

  std::vector<nn::Shape> shapes(model.node_count());
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const auto& inputs = model.inputs_of(i);
    const nn::Shape in = inputs[0] == nn::kModelInput
                             ? input
                             : shapes[static_cast<std::size_t>(inputs[0])];
    nn::Shape out = in;
    switch (layer.kind()) {
      case nn::LayerKind::kConv2D: {
        const auto& conv = static_cast<const nn::Conv2D&>(layer);
        const nn::ConvSpec& spec = conv.spec();
        out = {1, spec.out_channels, spec.out_h(in.h), spec.out_w(in.w)};
        CamLayerGeometry cl;
        cl.name = layer.name();
        cl.node_index = i;
        cl.is_conv = true;
        cl.patches = out.h * out.w;
        cl.kernels = spec.out_channels;
        cl.context_len = spec.patch_len();
        geo.cam_layers.push_back(std::move(cl));
        break;
      }
      case nn::LayerKind::kLinear: {
        const auto& fc = static_cast<const nn::Linear&>(layer);
        out = {1, fc.out_features(), 1, 1};
        CamLayerGeometry cl;
        cl.name = layer.name();
        cl.node_index = i;
        cl.is_conv = false;
        cl.patches = 1;  // one flat context per sample
        cl.kernels = fc.out_features();
        cl.context_len = fc.in_features();
        geo.cam_layers.push_back(std::move(cl));
        break;
      }
      case nn::LayerKind::kMaxPool: {
        const auto& pool = static_cast<const nn::MaxPool&>(layer);
        out.h = nn::window_out_size(in.h, 0, pool.window(), pool.stride());
        out.w = nn::window_out_size(in.w, 0, pool.window(), pool.stride());
        geo.peripheral_elems.push_back(out.numel());
        break;
      }
      case nn::LayerKind::kAvgPool: {
        const auto& pool = static_cast<const nn::AvgPool&>(layer);
        out.h = nn::window_out_size(in.h, 0, pool.window(), pool.stride());
        out.w = nn::window_out_size(in.w, 0, pool.window(), pool.stride());
        geo.peripheral_elems.push_back(out.numel());
        break;
      }
      case nn::LayerKind::kFlatten:
        out = {1, in.c * in.h * in.w, 1, 1};
        geo.peripheral_elems.push_back(out.numel());
        break;
      case nn::LayerKind::kAdd:
        // Residual add: shape of the first input; the engine charges it no
        // cycles, so it stays out of peripheral_elems.
        break;
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kBatchNorm:
      case nn::LayerKind::kSoftmax:
        geo.peripheral_elems.push_back(out.numel());
        break;
    }
    shapes[i] = out;
  }
  DEEPCAM_CHECK_MSG(!geo.cam_layers.empty(),
                    "model has no CAM-mapped (Conv2D/Linear) layers");
  return geo;
}

}  // namespace deepcam::plan
