// Pinned digests of the CAM layer's numeric output: engine logits, the
// planner's accuracy-pass error metrics and the hash tuner's layer-local
// error metrics. Each digest is FNV-1a 64 over the bytes of the values, in
// order, taken from the build that finished every dot product one call at a
// time (PostProcessingUnit::finish_dot_product over hash::approx_dot; g++ 12
// / glibc 2.36, x86_64). The table-driven finish_dots codelet and the
// short-word Hamming path must keep every bit, on every ISA table. The
// hash_seed 7 and kEndToEnd rows come from the later build in which the
// engine, the planner and the tuner each built their own per-layer
// generators and weight contexts.
//
// Engine configs: a wide conv+fc net (conv 1->64 3x3 on 32x32, maxpool 4,
// fc 4096->10 — the offline benchmark's geometry) and LeNet-5, over
// {activation-, weight-stationary} x {PWL, exact cosine} x {minifloat, fp32
// norms} x k in {256, 1024}, plus a quantized sense amp whose HD can exceed
// k (tau_unit_bins = 1024 at k = 256). Three seeded inputs per config, the
// third with ReLU-style zeros. Rows with a non-default hash_seed (7) pin
// that the seed reaches the engine, the planner and the tuner unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/hash_tuner.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"
#include "plan/planner.hpp"
#include "sim/backend.hpp"

namespace deepcam {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over the little-endian bytes of each value, in order.
template <class T>
void fnv1a(std::uint64_t& h, const T* values, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::unique_ptr<nn::Model> make_wide() {
  auto m = std::make_unique<nn::Model>("wide");
  m->add(std::make_unique<nn::Conv2D>("conv1",
                                      nn::ConvSpec{1, 64, 3, 3, 1, 1}, 101));
  m->add(std::make_unique<nn::MaxPool>("pool1", 4, 4));
  m->add(std::make_unique<nn::Flatten>("flatten"));
  m->add(std::make_unique<nn::Linear>("fc1", 4096, 10, 102));
  return m;
}

/// Three seeded inputs; the third clamps negatives to zero.
std::vector<nn::Tensor> make_inputs(nn::Shape s) {
  std::vector<nn::Tensor> out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Rng rng(900 + i);
    nn::Tensor t(s);
    for (std::size_t j = 0; j < t.numel(); ++j) {
      const float x = static_cast<float>(rng.gaussian());
      t[j] = (i == 2 && x < 0.0f) ? 0.0f : x;
    }
    out.push_back(std::move(t));
  }
  return out;
}

struct EngineCase {
  bool lenet;
  core::Dataflow dataflow;
  bool pwl;
  bool minifloat;
  std::size_t k;
  bool quantized;
  std::uint64_t digest;
  std::uint64_t hash_seed = 42;
};

std::string case_name(const EngineCase& c) {
  std::string s = c.lenet ? "lenet5" : "wide";
  s += c.dataflow == core::Dataflow::kWeightStationary ? "/ws" : "/as";
  s += c.pwl ? "/pwl" : "/cos";
  s += c.minifloat ? "/mf" : "/fp32";
  s += "/k" + std::to_string(c.k);
  if (c.quantized) s += "/quantized";
  if (c.hash_seed != 42) s += "/seed" + std::to_string(c.hash_seed);
  return s;
}

std::uint64_t engine_digest(const EngineCase& c) {
  const std::unique_ptr<nn::Model> model =
      c.lenet ? nn::make_lenet5(7) : make_wide();
  const nn::Shape shape = c.lenet ? nn::input_spec_for("lenet5").shape()
                                  : nn::Shape{1, 1, 32, 32};
  core::DeepCamConfig cfg;
  cfg.dataflow = c.dataflow;
  cfg.postproc.use_pwl_cosine = c.pwl;
  cfg.postproc.minifloat_norms = c.minifloat;
  cfg.default_hash_bits = c.k;
  cfg.hash_seed = c.hash_seed;
  if (c.quantized) {
    cfg.sense.mode = cam::SenseMode::kQuantized;
    cfg.sense.tau_unit_bins = 1024;
  }
  auto compiled = std::make_shared<const core::CompiledModel>(*model, cfg);
  core::InferenceEngine engine(compiled, 2);
  const std::vector<nn::Tensor> logits = engine.run_batch(make_inputs(shape));
  std::uint64_t h = kFnvBasis;
  for (const nn::Tensor& t : logits) fnv1a(h, t.data(), t.numel());
  return h;
}

using core::Dataflow;
constexpr Dataflow kAs = Dataflow::kActivationStationary;
constexpr Dataflow kWs = Dataflow::kWeightStationary;

// {lenet, dataflow, pwl, minifloat, k, quantized, digest[, hash_seed]}
const EngineCase kEngineCases[] = {
    {false, kAs, true, true, 256, false, 0xeabfbcc7940b8dcaULL},
    {false, kAs, true, true, 1024, false, 0x7e3fbea2843c2d9eULL},
    {false, kAs, true, false, 256, false, 0xe91246482b76bc69ULL},
    {false, kAs, true, false, 1024, false, 0x3cc4ec4bb2bc3b33ULL},
    {false, kAs, false, true, 256, false, 0x290b32fe705ccb9bULL},
    {false, kAs, false, true, 1024, false, 0xdbc53f8020d7d990ULL},
    {false, kAs, false, false, 256, false, 0x6418eb6abb2b3d55ULL},
    {false, kAs, false, false, 1024, false, 0x0e6d4fc8d1aba2e1ULL},
    {false, kWs, true, true, 256, false, 0xeabfbcc7940b8dcaULL},
    {false, kWs, true, true, 1024, false, 0x7e3fbea2843c2d9eULL},
    {false, kWs, true, false, 256, false, 0xe91246482b76bc69ULL},
    {false, kWs, true, false, 1024, false, 0x3cc4ec4bb2bc3b33ULL},
    {false, kWs, false, true, 256, false, 0x290b32fe705ccb9bULL},
    {false, kWs, false, true, 1024, false, 0xdbc53f8020d7d990ULL},
    {false, kWs, false, false, 256, false, 0x6418eb6abb2b3d55ULL},
    {false, kWs, false, false, 1024, false, 0x0e6d4fc8d1aba2e1ULL},
    {true, kAs, true, true, 256, false, 0x36a7ba85bf1a3122ULL},
    {true, kAs, true, true, 1024, false, 0x51ff5530a82c4ae0ULL},
    {true, kAs, true, false, 256, false, 0x67d85bbb8d67d488ULL},
    {true, kAs, true, false, 1024, false, 0xf61b24ec588cfef0ULL},
    {true, kAs, false, true, 256, false, 0xecdc499f38569956ULL},
    {true, kAs, false, true, 1024, false, 0x9c460855c6212594ULL},
    {true, kAs, false, false, 256, false, 0x30535add0db145b3ULL},
    {true, kAs, false, false, 1024, false, 0xc056a1ec13a0b2daULL},
    {true, kWs, true, true, 256, false, 0x36a7ba85bf1a3122ULL},
    {true, kWs, true, true, 1024, false, 0x51ff5530a82c4ae0ULL},
    {true, kWs, true, false, 256, false, 0x67d85bbb8d67d488ULL},
    {true, kWs, true, false, 1024, false, 0xf61b24ec588cfef0ULL},
    {true, kWs, false, true, 256, false, 0xecdc499f38569956ULL},
    {true, kWs, false, true, 1024, false, 0x9c460855c6212594ULL},
    {true, kWs, false, false, 256, false, 0x30535add0db145b3ULL},
    {true, kWs, false, false, 1024, false, 0xc056a1ec13a0b2daULL},
    {false, kAs, true, true, 256, true, 0x404a3bee551987c0ULL},
    {false, kAs, true, true, 256, false, 0xfe6ae80a447c939aULL, 7},
    {false, kWs, true, true, 1024, false, 0x418cb2786339d542ULL, 7},
    {true, kAs, true, true, 256, false, 0x8e4395580cc10989ULL, 7},
    {true, kWs, false, false, 1024, false, 0xeb008148b19f8618ULL, 7},
};

TEST(CamDigests, EngineLogitsArePinned) {
  for (const EngineCase& c : kEngineCases)
    EXPECT_EQ(hex(engine_digest(c)), hex(c.digest)) << case_name(c);
}

/// Digest of every per-layer metric and chosen length of a TuneResult.
std::uint64_t tune_digest(const core::TuneResult& t) {
  std::uint64_t h = kFnvBasis;
  for (const core::LayerSensitivity& l : t.layers) {
    fnv1a(h, l.metric.data(), l.metric.size());
    fnv1a(h, &l.chosen_bits, 1);
  }
  return h;
}

struct MetricCase {
  bool pwl;
  bool minifloat;
  std::uint64_t planner;
  std::uint64_t tuner;
  std::uint64_t hash_seed = 42;
  core::TunerMode mode = core::TunerMode::kLayerLocal;  // tuner only
};

constexpr core::TunerMode kEndToEnd = core::TunerMode::kEndToEnd;

// {pwl, minifloat, planner digest, tuner digest[, hash_seed[, tuner mode]]}
const MetricCase kMetricCases[] = {
    {true, true, 0x2b2c26418ae01b14ULL, 0x63cbcba0500ffe1dULL},
    {true, false, 0x66c994fe9b3e6fbdULL, 0xd7916edb35d1e11eULL},
    {false, true, 0x0ab12ffd3375c48bULL, 0xe2a446fa569600e8ULL},
    {false, false, 0x01e82bc7e50ff4d6ULL, 0x58c3754941027228ULL},
    {true, true, 0xe8c9fc79b0868eb8ULL, 0x3272af4fed55d330ULL, 7},
    {false, false, 0x89b5f3cabc5abbb1ULL, 0x850fbb4eec62c87eULL, 7},
    {true, true, 0x2b2c26418ae01b14ULL, 0xacbde8ee48516c99ULL, 42, kEndToEnd},
    {false, false, 0x01e82bc7e50ff4d6ULL, 0xacbde8ee48516c99ULL, 42, kEndToEnd},
    {true, true, 0xe8c9fc79b0868eb8ULL, 0x0120a319857c98b8ULL, 7, kEndToEnd},
};

TEST(CamDigests, PlannerAccuracyMetricsArePinned) {
  // Planner::guided_tune reports accuracy_floors' per-layer error metrics
  // (rel_error_at on the sampled patches).
  const auto model = nn::make_lenet5(7);
  const plan::Planner planner(*model, nn::input_spec_for("lenet5").shape());
  for (const MetricCase& c : kMetricCases) {
    plan::PlannerConfig cfg;
    cfg.base.postproc.use_pwl_cosine = c.pwl;
    cfg.base.postproc.minifloat_norms = c.minifloat;
    cfg.base.hash_seed = c.hash_seed;
    cfg.max_rel_error = 0.05;  // forces measurements past k = 256
    EXPECT_EQ(hex(tune_digest(planner.guided_tune(cfg))), hex(c.planner))
        << "pwl=" << c.pwl << " minifloat=" << c.minifloat
        << " seed=" << c.hash_seed;
  }
}

TEST(CamDigests, TunerLayerLocalMetricsArePinned) {
  // kLayerLocal metrics are relative L2 errors of approx_layer_out against
  // the exact layer output, at every candidate k; the kEndToEnd rows pin
  // the Top-1 agreement with approx_layer_out spliced into the forward.
  const auto model = nn::make_lenet5(7);
  const std::vector<nn::Tensor> probes =
      sim::make_probe_batch(nn::input_spec_for("lenet5").shape(), 2);
  for (const MetricCase& c : kMetricCases) {
    core::TunerConfig cfg;
    cfg.use_pwl_cosine = c.pwl;
    cfg.minifloat_norms = c.minifloat;
    cfg.hash_seed = c.hash_seed;
    cfg.mode = c.mode;
    EXPECT_EQ(hex(tune_digest(core::tune_hash_lengths(*model, probes, cfg))),
              hex(c.tuner))
        << "pwl=" << c.pwl << " minifloat=" << c.minifloat
        << " seed=" << c.hash_seed << " mode=" << static_cast<int>(c.mode);
  }
}

}  // namespace
}  // namespace deepcam
