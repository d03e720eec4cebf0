// Backend-contract suite: every backend in the default registry must honor
// the PlatformResult contract — nonzero cycles, cost monotonic in batch
// size, per-layer results that sum to the reported totals, sane efficiency
// and throughput — checked generically so a newly registered backend is
// covered without writing a test. Plus adapter-equivalence checks pinning
// the adapters to the native simulators they wrap.
#include "sim/backends.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "cpu/cpu_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"
#include "nn/workload.hpp"
#include "sim/comparison.hpp"
#include "sim/registry.hpp"
#include "sim/report_io.hpp"
#include "systolic/eyeriss.hpp"

namespace deepcam::sim {
namespace {

/// Small CNN with conv + pool + two linear layers: enough structure to
/// exercise every adapter without LeNet-scale runtime.
std::unique_ptr<nn::Model> make_tiny_model() {
  auto m = std::make_unique<nn::Model>("tiny");
  m->add(std::make_unique<nn::Conv2D>("conv1",
                                      nn::ConvSpec{1, 4, 3, 3, 1, 0}, 1));
  m->add(std::make_unique<nn::ReLU>("relu1"));
  m->add(std::make_unique<nn::MaxPool>("pool1", 2, 2));
  m->add(std::make_unique<nn::Flatten>("flat"));
  m->add(std::make_unique<nn::Linear>("fc1", 4 * 9, 8, 2));
  m->add(std::make_unique<nn::Linear>("fc2", 8, 3, 3));
  return m;
}

constexpr nn::Shape kTinyShape{1, 1, 8, 8};

class BackendContractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { registry_ = new BackendRegistry(default_registry(/*deepcam_threads=*/2)); }
  static void TearDownTestSuite() {
    delete registry_;
    registry_ = nullptr;
  }
  static BackendRegistry* registry_;
};

BackendRegistry* BackendContractTest::registry_ = nullptr;

TEST_F(BackendContractTest, RegistryNamesUniqueAndComplete) {
  const auto names = registry_->names();
  ASSERT_GE(names.size(), 5u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  }
  for (const char* expected :
       {"deepcam", "eyeriss", "cpu-avx512", "pim-neurosim", "pim-valavi"})
    EXPECT_NE(registry_->find(expected), nullptr) << expected;
  EXPECT_EQ(registry_->find("no-such-backend"), nullptr);
}

TEST_F(BackendContractTest, DuplicateRegistrationRejected) {
  BackendRegistry reg;
  reg.add(std::make_unique<CpuBackend>());
  EXPECT_THROW(reg.add(std::make_unique<CpuBackend>()), Error);
}

TEST_F(BackendContractTest, EveryBackendHonorsTheResultContract) {
  const auto model = make_tiny_model();
  const std::size_t gemm_layers =
      nn::extract_gemm_workload(*model, kTinyShape).size();
  for (const auto& backend : *registry_) {
    SCOPED_TRACE(backend->name());
    const PlatformResult r = backend->simulate(*model, kTinyShape, 1);

    EXPECT_EQ(r.backend, backend->name());
    EXPECT_EQ(r.model, "tiny");
    EXPECT_EQ(r.batch, 1u);
    EXPECT_EQ(r.layers.size(), gemm_layers);

    // Nonzero cycles, everywhere.
    EXPECT_GT(r.total_cycles, 0.0);
    for (const auto& l : r.layers) EXPECT_GT(l.cycles, 0.0) << l.layer_name;

    // Per-layer results sum to the totals the native simulator reported.
    EXPECT_NEAR(r.layer_cycle_sum(), r.total_cycles,
                1e-9 * r.total_cycles);
    if (r.energy_modeled) {
      EXPECT_GT(r.total_energy_j, 0.0);
      EXPECT_NEAR(r.layer_energy_sum(), r.total_energy_j,
                  1e-9 * r.total_energy_j);
    } else {
      EXPECT_EQ(r.total_energy_j, 0.0);
      EXPECT_EQ(r.layer_energy_sum(), 0.0);
    }

    EXPECT_GT(r.total_macs(), 0u);
    EXPECT_GT(r.clock_hz, 0.0);
    EXPECT_GT(r.throughput(), 0.0);
    EXPECT_GE(r.peak_efficiency, 0.0);
    EXPECT_LE(r.peak_efficiency, 1.0);
  }
}

TEST_F(BackendContractTest, CostIsMonotonicInBatchSize) {
  const auto model = make_tiny_model();
  for (const auto& backend : *registry_) {
    SCOPED_TRACE(backend->name());
    double prev_cycles = 0.0;
    double prev_energy = -1.0;
    for (const std::size_t batch : {1, 2, 4}) {
      const PlatformResult r = backend->simulate(*model, kTinyShape, batch);
      EXPECT_GT(r.total_cycles, prev_cycles) << "batch " << batch;
      if (r.energy_modeled)
        EXPECT_GT(r.total_energy_j, prev_energy) << "batch " << batch;
      EXPECT_EQ(r.total_macs(),
                batch * nn::total_macs(*model, kTinyShape));
      prev_cycles = r.total_cycles;
      prev_energy = r.total_energy_j;
    }
  }
}

TEST_F(BackendContractTest, DeepCamAdapterBitwiseEqualsEngine) {
  const auto model = make_tiny_model();
  const DeepCamBackend backend;  // default options
  const PlatformResult r = backend.simulate(*model, kTinyShape, 3);

  const auto compiled = std::make_shared<const core::CompiledModel>(
      *model, backend.options().config);
  core::InferenceEngine engine(compiled, 1);
  core::BatchReport br;
  engine.run_batch(
      make_probe_batch(kTinyShape, 3, backend.options().probe_seed), &br);

  EXPECT_EQ(r.total_cycles,
            static_cast<double>(br.aggregate.total_cycles()));
  EXPECT_EQ(r.total_energy_j, br.aggregate.total_energy());
  EXPECT_EQ(r.extra_cycles,
            static_cast<double>(br.aggregate.peripheral_cycles));
  ASSERT_EQ(r.layers.size(), br.aggregate.layers.size());
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    EXPECT_EQ(r.layers[i].cycles,
              static_cast<double>(br.aggregate.layers[i].cycles));
    EXPECT_EQ(r.layers[i].energy_j, br.aggregate.layers[i].total_energy());
  }
}

TEST_F(BackendContractTest, CpuAdapterMatchesNativeSimulatorAndClock) {
  const auto model = make_tiny_model();
  const auto native = cpu::simulate_cpu(*model, kTinyShape);
  const CpuBackend backend;
  const PlatformResult r = backend.simulate(*model, kTinyShape, 1);
  EXPECT_DOUBLE_EQ(r.total_cycles, native.total_cycles());
  EXPECT_DOUBLE_EQ(r.peak_efficiency, native.mean_efficiency());
  // The adapter's seconds (cycles at clock_hz) must agree with the native
  // model's own Skylake-clock conversion — the CPU must not be costed at
  // the 300 MHz ASIC clock.
  EXPECT_DOUBLE_EQ(r.seconds(), native.total_seconds());
  EXPECT_FALSE(r.energy_modeled);
}

TEST_F(BackendContractTest, EyerissAdapterMatchesNativeSimulator) {
  const auto model = make_tiny_model();
  const auto native = systolic::simulate_eyeriss(*model, kTinyShape);
  const EyerissBackend backend;
  const PlatformResult r = backend.simulate(*model, kTinyShape, 2);
  EXPECT_EQ(r.total_cycles, 2.0 * static_cast<double>(native.total_cycles()));
  EXPECT_DOUBLE_EQ(r.total_energy_j, 2.0 * native.total_energy());
  EXPECT_DOUBLE_EQ(r.peak_efficiency, native.mean_utilization());
}

TEST_F(BackendContractTest, ComparisonRunnerCoversEveryCell) {
  ComparisonOptions opts;
  opts.include_vhl_deepcam = true;
  opts.vhl_probes = 2;
  opts.deepcam_threads = 2;
  const ComparisonRunner runner(*registry_, opts);
  const ComparisonReport report =
      runner.run({{"lenet5", /*seed=*/1, /*batch_sizes=*/{1, 2}}});

  // Every backend plus the vhl variant, at both batch sizes.
  ASSERT_EQ(report.rows.size(), (registry_->size() + 1) * 2);
  for (const std::size_t batch : {1, 2}) {
    const auto ranked = report.ranked_by_cycles("lenet5", batch);
    ASSERT_EQ(ranked.size(), registry_->size() + 1);
    for (std::size_t i = 1; i < ranked.size(); ++i)
      EXPECT_LE(ranked[i - 1]->total_cycles, ranked[i]->total_cycles);
    const auto by_energy = report.ranked_by_energy("lenet5", batch);
    EXPECT_EQ(by_energy.back()->backend, "cpu-avx512");  // unmodeled last
  }
  EXPECT_EQ(report.cells().size(), 2u);

  // Serializers cover every row.
  const std::string csv = comparison_to_csv(report);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1 + report.rows.size());
  const std::string summary = comparison_summary(report);
  for (const auto& name : registry_->names())
    EXPECT_NE(summary.find(name), std::string::npos) << name;
}

TEST_F(BackendContractTest, ComparisonRunnerRejectsVhlSeedMismatch) {
  // The deepcam-vhl row is tuned with opts.tuner and run with
  // opts.deepcam_config: lengths tuned on one projection matrix must not be
  // run on another.
  ComparisonOptions opts;
  opts.include_vhl_deepcam = true;
  opts.tuner.hash_seed = 7;
  opts.deepcam_config.hash_seed = 42;
  try {
    const ComparisonRunner runner(*registry_, opts);
    FAIL() << "a tuner/config seed mismatch must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hash_seed 7"), std::string::npos) << what;
    EXPECT_NE(what.find("hash_seed 42"), std::string::npos) << what;
    EXPECT_NE(what.find("comparison.cpp"), std::string::npos) << what;
  }
  // Without the vhl row the tuner is unused, so the seeds may differ.
  opts.include_vhl_deepcam = false;
  EXPECT_NO_THROW(ComparisonRunner(*registry_, opts));
}

}  // namespace
}  // namespace deepcam::sim
