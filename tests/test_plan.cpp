// Plan subsystem tests: the estimator gate (CostModel vs the DeepCAM sim
// backend and the engine, exact), cost-model properties (linearity,
// monotonicity), planner determinism and quality, and the plan cache's
// determinism / hit / miss contract.
//
// The engine prices each CAM layer from the events its pass loop counts and
// CostModel from closed-form counts, both with core::price_cam_layer, so
// cycles and one sample's energy are equal exactly. A batch total sums b
// per-sample energies where the estimate multiplies one sample's by b, so
// batch energy is compared with EXPECT_DOUBLE_EQ.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "hash/random_projection.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"
#include "plan/cost_model.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "plan/report_io.hpp"
#include "sim/backend.hpp"
#include "sim/estimator_check.hpp"

namespace deepcam {
namespace {

const char* kTopologies[] = {"lenet5", "vgg11", "vgg16", "resnet18"};

core::DeepCamConfig default_config() { return core::DeepCamConfig{}; }

// --- estimator gate --------------------------------------------------------

void expect_exact(const sim::EstimatorCheck& chk, std::size_t batch,
                  const std::string& what) {
  EXPECT_EQ(static_cast<double>(chk.estimated_cycles), chk.measured_cycles)
      << what;
  EXPECT_EQ(chk.cycle_rel_error, 0.0) << what;
  if (batch == 1)
    EXPECT_EQ(chk.estimated_energy_j, chk.measured_energy_j) << what;
  else
    EXPECT_DOUBLE_EQ(chk.estimated_energy_j, chk.measured_energy_j) << what;
}

TEST(EstimatorGate, LeNetMeasuredAtEveryBatch) {
  const auto model = nn::make_model("lenet5", 1);
  const nn::Shape input = nn::input_spec_for("lenet5").shape();
  for (const std::size_t batch : {1u, 8u, 32u}) {
    expect_exact(sim::check_estimator(*model, input, default_config(), batch),
                 batch, "lenet5 batch " + std::to_string(batch));
  }
}

TEST(EstimatorGate, LeNetMeasuredAcrossConfigs) {
  const auto model = nn::make_model("lenet5", 1);
  const nn::Shape input = nn::input_spec_for("lenet5").shape();

  core::DeepCamConfig idealized;
  idealized.preset = core::CyclePreset::kIdealized;

  core::DeepCamConfig ws;
  ws.dataflow = core::Dataflow::kWeightStationary;
  ws.cam_rows = 128;

  core::DeepCamConfig vhl;
  vhl.layer_hash_bits = {256, 512, 768, 1024, 512};

  for (const core::DeepCamConfig& cfg : {idealized, ws, vhl}) {
    for (const std::size_t batch : {1u, 8u}) {
      expect_exact(sim::check_estimator(*model, input, cfg, batch), batch,
                   "batch " + std::to_string(batch));
    }
  }
}

TEST(EstimatorGate, LargeTopologiesMeasuredAtBatchOne) {
  // VGG/ResNet sim runs cost real wall-clock, so they are measured once at
  // batch 1; batches 8 and 32 follow from the backend's additive
  // merge-report contract, pinned by EstimateLinearInBatch below.
  for (const char* name : {"vgg11", "vgg16", "resnet18"}) {
    const auto model = nn::make_model(name, 1);
    const nn::Shape input = nn::input_spec_for(name).shape();
    expect_exact(sim::check_estimator(*model, input, default_config(), 1), 1,
                 name);
  }
}

/// A random conv/fc stack on a random small input: 1-3 convolutions
/// (kernel 1-3, stride 1-2, pad 0-1), each maybe followed by BatchNorm,
/// ReLU, a 2x2 max-pool or a shape-preserving residual block (conv + Add),
/// then flatten and one or two linear layers.
std::unique_ptr<nn::Model> random_stack(Rng& rng, nn::Shape& input) {
  std::size_t c = 1 + rng.uniform_index(3);
  std::size_t h = 5 + rng.uniform_index(6);
  std::size_t w = 5 + rng.uniform_index(6);
  input = {1, c, h, w};
  auto m = std::make_unique<nn::Model>("random");
  int node = nn::kModelInput;
  int idx = 0;
  auto name = [&](const char* kind) { return kind + std::to_string(idx++); };
  auto coin = [&] { return rng.uniform_index(2) == 1; };
  const std::size_t convs = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < convs; ++i) {
    nn::ConvSpec spec;
    spec.in_channels = c;
    spec.out_channels = 1 + rng.uniform_index(8);
    spec.kernel_h = 1 + rng.uniform_index(std::min<std::size_t>(3, h));
    spec.kernel_w = 1 + rng.uniform_index(std::min<std::size_t>(3, w));
    spec.stride = 1 + rng.uniform_index(2);
    spec.pad = rng.uniform_index(2);
    node = m->add(std::make_unique<nn::Conv2D>(name("conv"), spec, rng.next()),
                  node);
    c = spec.out_channels;
    h = spec.out_h(h);
    w = spec.out_w(w);
    if (coin())
      node = m->add(std::make_unique<nn::BatchNorm>(name("bn"), c, rng.next()),
                    node);
    if (coin()) node = m->add(std::make_unique<nn::ReLU>(name("relu")), node);
    if (coin() && h >= 2 && w >= 2) {
      node = m->add(std::make_unique<nn::MaxPool>(name("pool"), 2, 2), node);
      h = (h - 2) / 2 + 1;
      w = (w - 2) / 2 + 1;
    }
    if (coin()) {
      const int branch = m->add(
          std::make_unique<nn::Conv2D>(name("conv"),
                                       nn::ConvSpec{c, c, 3, 3, 1, 1},
                                       rng.next()),
          node);
      node = m->add(std::make_unique<nn::Add>(name("add")), node, branch);
    }
  }
  node = m->add(std::make_unique<nn::Flatten>(name("flatten")), node);
  std::size_t features = c * h * w;
  const std::size_t fcs = 1 + rng.uniform_index(2);
  for (std::size_t i = 0; i < fcs; ++i) {
    const std::size_t out = 1 + rng.uniform_index(16);
    if (i > 0) node = m->add(std::make_unique<nn::ReLU>(name("relu")), node);
    node = m->add(
        std::make_unique<nn::Linear>(name("fc"), features, out, rng.next()),
        node);
    features = out;
  }
  return m;
}

void expect_same_layer(const core::LayerReport& engine,
                       const core::LayerReport& model,
                       const std::string& what) {
  EXPECT_EQ(engine.name, model.name) << what;
  EXPECT_EQ(engine.patches, model.patches) << what;
  EXPECT_EQ(engine.kernels, model.kernels) << what;
  EXPECT_EQ(engine.context_len, model.context_len) << what;
  EXPECT_EQ(engine.hash_bits, model.hash_bits) << what;
  EXPECT_EQ(engine.plan.passes, model.plan.passes) << what;
  EXPECT_EQ(engine.plan.searches, model.plan.searches) << what;
  EXPECT_EQ(engine.plan.rows_written, model.plan.rows_written) << what;
  EXPECT_EQ(engine.plan.dot_products, model.plan.dot_products) << what;
  EXPECT_EQ(engine.plan.utilization, model.plan.utilization) << what;
  EXPECT_EQ(engine.cycles, model.cycles) << what;
  EXPECT_EQ(engine.cam_energy, model.cam_energy) << what;
  EXPECT_EQ(engine.postproc_energy, model.postproc_energy) << what;
  EXPECT_EQ(engine.ctxgen_energy, model.ctxgen_energy) << what;
}

TEST(EstimatorGate, RandomGeometriesMatchEngineExactly) {
  // Seeded: every failure reproduces from the printed model index and
  // config. A geometry bug found here lands as its own regression case.
  Rng rng(0xDEC0DEu);
  const std::size_t kHashBits[] = {256, 512, 768, 1024};
  for (std::size_t model_idx = 0; model_idx < 10; ++model_idx) {
    nn::Shape input;
    const auto model = random_stack(rng, input);
    const plan::CostModel cost(plan::extract_geometry(*model, input));
    const nn::Tensor sample = sim::make_probe_batch(input, 1, rng.next())[0];
    for (const std::size_t rows : {16u, 64u, 128u, 512u}) {
      for (const auto df : {core::Dataflow::kWeightStationary,
                            core::Dataflow::kActivationStationary}) {
        for (const auto preset : {core::CyclePreset::kConservative,
                                  core::CyclePreset::kIdealized}) {
          core::DeepCamConfig cfg;
          cfg.cam_rows = rows;
          cfg.dataflow = df;
          cfg.preset = preset;
          for (std::size_t l = 0; l < cost.geometry().cam_layers.size(); ++l)
            cfg.layer_hash_bits.push_back(kHashBits[rng.uniform_index(4)]);
          const std::string what =
              "model " + std::to_string(model_idx) + " rows " +
              std::to_string(rows) + " " + core::dataflow_name(df) +
              (preset == core::CyclePreset::kIdealized ? " idealized"
                                                       : " conservative");

          const core::CompiledModel compiled(*model, cfg);
          core::RunReport measured;
          core::Worker(compiled).run(sample, &measured);
          const plan::CostEstimate est = cost.estimate(cfg);

          ASSERT_EQ(measured.layers.size(), est.layers.size()) << what;
          for (std::size_t l = 0; l < est.layers.size(); ++l)
            expect_same_layer(measured.layers[l], est.layers[l],
                              what + " layer " + std::to_string(l));
          EXPECT_EQ(measured.peripheral_cycles, est.peripheral_cycles)
              << what;
          EXPECT_EQ(measured.total_cycles(), est.sample_cycles()) << what;
          EXPECT_EQ(measured.total_energy(), est.sample_energy()) << what;
        }
      }
    }
  }
}

// --- cost-model properties -------------------------------------------------

TEST(CostModelProperties, TotalsLinearInBatch) {
  for (const char* name : kTopologies) {
    const auto model = nn::make_model(name, 1);
    const plan::CostModel cost(
        plan::extract_geometry(*model, nn::input_spec_for(name).shape()));
    const plan::CostEstimate one = cost.estimate(default_config(), 1);
    for (const std::size_t b : {8u, 32u}) {
      const plan::CostEstimate est = cost.estimate(default_config(), b);
      EXPECT_EQ(est.total_cycles(), b * one.total_cycles()) << name;
      EXPECT_DOUBLE_EQ(est.total_energy(), b * one.total_energy()) << name;
    }
  }
}

TEST(CostModelProperties, EstimatesMonotoneInBatch) {
  const auto model = nn::make_model("lenet5", 1);
  const plan::CostModel cost(
      plan::extract_geometry(*model, nn::input_spec_for("lenet5").shape()));
  std::size_t prev_total = 0, prev_makespan = 0;
  for (const std::size_t b : {1u, 2u, 8u, 16u, 32u}) {
    const plan::CostEstimate est = cost.estimate(default_config(), b, 4, 8);
    EXPECT_GE(est.total_cycles(), prev_total);
    EXPECT_GE(est.makespan_cycles(), prev_makespan);
    prev_total = est.total_cycles();
    prev_makespan = est.makespan_cycles();
  }
}

TEST(CostModelProperties, EstimatesMonotoneInHashBits) {
  // Conservative search cycles and per-bit search energy both grow with k,
  // so homogeneous hash length sweeps must be nondecreasing in cost.
  for (const char* name : {"lenet5", "vgg11"}) {
    const auto model = nn::make_model(name, 1);
    const plan::CostModel cost(
        plan::extract_geometry(*model, nn::input_spec_for(name).shape()));
    std::size_t prev_cycles = 0;
    double prev_energy = 0.0;
    for (const int k_bits : hash::kHashLengths) {
      const std::size_t k = static_cast<std::size_t>(k_bits);
      core::DeepCamConfig cfg;
      cfg.default_hash_bits = k;
      const plan::CostEstimate est = cost.estimate(cfg, 1);
      EXPECT_GE(est.sample_cycles(), prev_cycles) << name << " k=" << k;
      EXPECT_GE(est.sample_energy(), prev_energy) << name << " k=" << k;
      prev_cycles = est.sample_cycles();
      prev_energy = est.sample_energy();
    }
  }
}

TEST(CostModelProperties, GeometryDigestSeparatesModels) {
  std::vector<std::uint64_t> digests;
  for (const char* name : kTopologies) {
    const auto model = nn::make_model(name, 1);
    const plan::ModelGeometry geo =
        plan::extract_geometry(*model, nn::input_spec_for(name).shape());
    // Stable: re-extraction digests identically.
    EXPECT_EQ(geo.digest(),
              plan::extract_geometry(*model,
                                     nn::input_spec_for(name).shape())
                  .digest());
    digests.push_back(geo.digest());
  }
  for (std::size_t i = 0; i < digests.size(); ++i)
    for (std::size_t j = i + 1; j < digests.size(); ++j)
      EXPECT_NE(digests[i], digests[j]);
}

// --- planner ---------------------------------------------------------------

plan::PlannerConfig lenet_planner_config() {
  plan::PlannerConfig cfg;
  cfg.batch = 8;
  cfg.max_rel_error = 0.5;
  return cfg;
}

TEST(Planner, DeterministicPlanBytes) {
  const auto model = nn::make_model("lenet5", 1);
  const nn::Shape input = nn::input_spec_for("lenet5").shape();
  const plan::Planner planner(*model, input);
  const plan::Plan a = planner.plan(lenet_planner_config());
  const plan::Plan b = planner.plan(lenet_planner_config());
  EXPECT_EQ(plan::plan_to_json(a), plan::plan_to_json(b));
  EXPECT_GT(a.configs_evaluated, 1u);
}

TEST(Planner, BeatsFixedBaselineUnderEveryObjective) {
  // The planned configuration must cost no more than the fixed default
  // (1024-bit homogeneous hashes, default rows/dataflow) under the same
  // objective — the plan search includes that point, so equality is the
  // worst case.
  const auto model = nn::make_model("lenet5", 1);
  const nn::Shape input = nn::input_spec_for("lenet5").shape();
  const plan::Planner planner(*model, input);
  const plan::CostModel& cost = planner.cost_model();
  for (const plan::Objective obj :
       {plan::Objective::kCycles, plan::Objective::kEnergy,
        plan::Objective::kEdp}) {
    plan::PlannerConfig cfg = lenet_planner_config();
    cfg.objective = obj;
    const plan::Plan p = planner.plan(cfg);
    const plan::CostEstimate baseline =
        cost.estimate(default_config(), cfg.batch);
    double baseline_value = 0.0;
    switch (obj) {
      case plan::Objective::kCycles:
        baseline_value = static_cast<double>(baseline.makespan_cycles());
        break;
      case plan::Objective::kEnergy:
        baseline_value = baseline.total_energy();
        break;
      case plan::Objective::kEdp:
        baseline_value = baseline.edp();
        break;
    }
    EXPECT_LE(p.objective_value, baseline_value)
        << "objective " << plan::objective_name(obj);
  }
}

TEST(Planner, FloorsRespectAccuracyBudget) {
  // Every chosen hash length either meets the measured budget or is maxed
  // out at 1024 bits (the budget is infeasible for that layer).
  const auto model = nn::make_model("lenet5", 1);
  const plan::Planner planner(*model, nn::input_spec_for("lenet5").shape());
  const plan::Plan p = planner.plan(lenet_planner_config());
  ASSERT_EQ(p.floors.size(), p.hash_bits.size());
  for (const plan::LayerFloor& f : p.floors) {
    EXPECT_TRUE(f.measured_rel_error <= 0.5 ||
                f.hash_bits == static_cast<std::size_t>(hash::kMaxHashBits))
        << f.name << " k=" << f.hash_bits << " err=" << f.measured_rel_error;
  }
}

TEST(Planner, GuidedTuneMirrorsTunerShape) {
  const auto model = nn::make_model("lenet5", 1);
  const plan::Planner planner(*model, nn::input_spec_for("lenet5").shape());
  const core::TuneResult t = planner.guided_tune(lenet_planner_config());
  ASSERT_EQ(t.layers.size(), t.hash_bits.size());
  ASSERT_FALSE(t.layers.empty());
  for (std::size_t i = 0; i < t.layers.size(); ++i) {
    EXPECT_EQ(t.layers[i].chosen_bits, t.hash_bits[i]);
    EXPECT_EQ(t.layers[i].metric.size(),
              static_cast<std::size_t>(hash::kNumHashLengths));
    EXPECT_GE(t.hash_bits[i], 256u);
    EXPECT_LE(t.hash_bits[i], 1024u);
    EXPECT_EQ(t.hash_bits[i] % 256, 0u);
  }
}

// --- plan cache ------------------------------------------------------------

TEST(PlanCache, SameKeyHitsWithIdenticalBytes) {
  const auto model = nn::make_model("lenet5", 1);
  const plan::Planner planner(*model, nn::input_spec_for("lenet5").shape());
  const plan::PlannerConfig cfg = lenet_planner_config();
  const std::string key =
      plan::plan_cache_key(planner.cost_model().geometry().digest(), cfg);

  plan::PlanCache cache;
  std::size_t searches = 0;
  const auto make = [&] {
    ++searches;
    return planner.plan(cfg);
  };
  bool hit1 = true, hit2 = false;
  const plan::Plan first = cache.get_or_plan(key, make, &hit1);
  const plan::Plan second = cache.get_or_plan(key, make, &hit2);
  EXPECT_FALSE(hit1);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(searches, 1u);  // the warm call skipped the search entirely
  EXPECT_EQ(plan::plan_to_json(first), plan::plan_to_json(second));
  const plan::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, AnyKeyFieldChangeMisses) {
  const auto model = nn::make_model("lenet5", 1);
  const plan::Planner planner(*model, nn::input_spec_for("lenet5").shape());
  const std::uint64_t digest = planner.cost_model().geometry().digest();
  const plan::PlannerConfig base = lenet_planner_config();
  const std::string base_key = plan::plan_cache_key(digest, base);

  plan::PlannerConfig batch = base;
  batch.batch = 32;
  plan::PlannerConfig objective = base;
  objective.objective = plan::Objective::kEnergy;
  plan::PlannerConfig rows = base;
  rows.row_candidates = {64};
  plan::PlannerConfig budget = base;
  budget.max_rel_error = 0.25;
  plan::PlannerConfig hash = base;
  hash.base.default_hash_bits = 512;
  plan::PlannerConfig cam = base;
  cam.base.cam_rows = 128;

  std::vector<std::string> keys = {base_key};
  for (const plan::PlannerConfig* cfg :
       {&batch, &objective, &rows, &budget, &hash, &cam})
    keys.push_back(plan::plan_cache_key(digest, *cfg));
  // Different geometry is a different key too.
  const auto vgg = nn::make_model("vgg11", 1);
  keys.push_back(plan::plan_cache_key(
      plan::extract_geometry(*vgg, nn::input_spec_for("vgg11").shape())
          .digest(),
      base));

  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;

  // And a cold cache really misses on each distinct key.
  plan::PlanCache cache;
  bool hit = true;
  cache.get_or_plan(base_key, [&] { return planner.plan(base); }, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_plan(keys[1], [&] { return planner.plan(batch); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace deepcam
