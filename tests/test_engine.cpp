// InferenceEngine equivalence and determinism tests.
//
// The contract under test (ISSUE 1 acceptance): run_batch over N samples
// produces bitwise-identical logits and identical aggregated cycle/energy
// totals to N sequential DeepCamAccelerator::run calls, for any thread
// count.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "hash_oracle.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"
#include "obs/trace.hpp"

namespace deepcam::core {
namespace {

std::unique_ptr<nn::Model> tiny_cnn(std::uint64_t seed) {
  auto m = std::make_unique<nn::Model>("tiny_cnn");
  m->add(std::make_unique<nn::Conv2D>("conv1",
                                      nn::ConvSpec{1, 4, 3, 3, 1, 0}, seed));
  m->add(std::make_unique<nn::ReLU>("relu1"));
  m->add(std::make_unique<nn::MaxPool>("pool1", 2, 2));
  m->add(std::make_unique<nn::Flatten>("flat"));
  m->add(std::make_unique<nn::Linear>("fc", 4 * 3 * 3, 5, seed + 1));
  return m;
}

nn::Tensor random_image(nn::Shape s, std::uint64_t seed) {
  deepcam::Rng rng(seed);
  nn::Tensor t(s);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian());
  return t;
}

std::vector<nn::Tensor> random_batch(std::size_t count, nn::Shape s,
                                     std::uint64_t seed) {
  std::vector<nn::Tensor> batch;
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(random_image(s, seed + i));
  return batch;
}

/// Bitwise tensor equality (EXPECT_FLOAT_EQ tolerates ULP drift; we demand
/// exact reproduction).
void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.shape() == b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           a.numel() * sizeof(float)));
}

void expect_reports_equal(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  EXPECT_EQ(a.total_searches(), b.total_searches());
  EXPECT_EQ(a.total_dot_products(), b.total_dot_products());
  EXPECT_EQ(a.total_energy(), b.total_energy());  // exact double equality
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].cycles, b.layers[l].cycles);
    EXPECT_EQ(a.layers[l].cam_energy, b.layers[l].cam_energy);
    EXPECT_EQ(a.layers[l].postproc_energy, b.layers[l].postproc_energy);
    EXPECT_EQ(a.layers[l].ctxgen_energy, b.layers[l].ctxgen_energy);
  }
}

/// Every field of two reports, exactly.
void expect_reports_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.peripheral_cycles, b.peripheral_cycles);
  EXPECT_EQ(a.cam_area_um2, b.cam_area_um2);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const LayerReport& x = a.layers[l];
    const LayerReport& y = b.layers[l];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.patches, y.patches);
    EXPECT_EQ(x.kernels, y.kernels);
    EXPECT_EQ(x.context_len, y.context_len);
    EXPECT_EQ(x.hash_bits, y.hash_bits);
    EXPECT_EQ(x.plan.passes, y.plan.passes);
    EXPECT_EQ(x.plan.searches, y.plan.searches);
    EXPECT_EQ(x.plan.rows_written, y.plan.rows_written);
    EXPECT_EQ(x.plan.utilization, y.plan.utilization);
    EXPECT_EQ(x.plan.dot_products, y.plan.dot_products);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.cam_energy, y.cam_energy);
    EXPECT_EQ(x.postproc_energy, y.postproc_energy);
    EXPECT_EQ(x.ctxgen_energy, y.ctxgen_energy);
  }
}

/// conv → relu → conv → add(conv, relu) → pool → flatten → fc on 6×6: the
/// residual add keeps relu1's output alive past its next consumer, and the
/// 36 patches of a sample let two samples share a hash call.
std::unique_ptr<nn::Model> residual_cnn(std::uint64_t seed) {
  auto m = std::make_unique<nn::Model>("residual_cnn");
  const int conv1 = m->add(std::make_unique<nn::Conv2D>(
      "conv1", nn::ConvSpec{1, 4, 3, 3, 1, 1}, seed));
  const int relu1 = m->add(std::make_unique<nn::ReLU>("relu1"), conv1);
  const int conv2 = m->add(std::make_unique<nn::Conv2D>(
                               "conv2", nn::ConvSpec{4, 4, 3, 3, 1, 1},
                               seed + 1),
                           relu1);
  const int sum = m->add(std::make_unique<nn::Add>("add"), conv2, relu1);
  const int pool = m->add(std::make_unique<nn::MaxPool>("pool", 2, 2), sum);
  const int flat = m->add(std::make_unique<nn::Flatten>("flat"), pool);
  m->add(std::make_unique<nn::Linear>("fc", 4 * 3 * 3, 5, seed + 2), flat);
  return m;
}

/// conv (100 patches) → relu → pool → conv (25 patches) → add(conv, pool)
/// → flatten → fc on 10×10: a group runs up to conv2 sample by sample (a
/// sample's 100 patches fill a hash call alone), then layer by layer, with
/// pool's output crossing from one schedule to the other.
std::unique_ptr<nn::Model> wide_then_narrow_cnn(std::uint64_t seed) {
  auto m = std::make_unique<nn::Model>("wide_then_narrow_cnn");
  const int conv1 = m->add(std::make_unique<nn::Conv2D>(
      "conv1", nn::ConvSpec{1, 4, 3, 3, 1, 1}, seed));
  const int relu1 = m->add(std::make_unique<nn::ReLU>("relu1"), conv1);
  const int pool = m->add(std::make_unique<nn::MaxPool>("pool", 2, 2), relu1);
  const int conv2 = m->add(std::make_unique<nn::Conv2D>(
                               "conv2", nn::ConvSpec{4, 4, 3, 3, 1, 1},
                               seed + 1),
                           pool);
  const int sum = m->add(std::make_unique<nn::Add>("add"), conv2, pool);
  const int flat = m->add(std::make_unique<nn::Flatten>("flat"), sum);
  m->add(std::make_unique<nn::Linear>("fc", 4 * 5 * 5, 5, seed + 2), flat);
  return m;
}

/// A model and the input shape it takes.
struct GroupModel {
  std::unique_ptr<nn::Model> model;
  nn::Shape input;
};

/// Models whose groups run layer by layer throughout, and sample by sample
/// up to a narrow CAM layer.
std::vector<GroupModel> group_models(std::uint64_t seed) {
  std::vector<GroupModel> v;
  v.push_back({residual_cnn(seed), {1, 1, 6, 6}});
  v.push_back({wide_then_narrow_cnn(seed), {1, 1, 10, 10}});
  return v;
}

/// A gate the test opens once: until then every GateLayer::infer on it
/// blocks, so a batch stays dispatched-but-unfinished (and the batches
/// behind it queued) by construction, not by timing.
class Gate {
 public:
  /// Opens the gate on leaving scope. Declare one after the engine, so that
  /// a failed assertion cannot leave the engine's join waiting at the gate.
  struct OpenAtExit {
    Gate& gate;
    ~OpenAtExit() { gate.open(); }
  };

  void open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks the calling worker until open().
  void pass() const {
    std::unique_lock<std::mutex> lk(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return open_; });
  }
  /// Blocks until some worker waits at (or went through) the gate.
  void wait_for_arrival() const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return waiting_ > 0; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
  mutable std::size_t waiting_ = 0;
};

/// Test-only pass-through layer that waits at a Gate in infer().
class GateLayer final : public nn::Layer {
 public:
  explicit GateLayer(std::shared_ptr<const Gate> gate)
      : gate_(std::move(gate)) {}
  nn::LayerKind kind() const override { return nn::LayerKind::kReLU; }
  std::string name() const override { return "gate"; }
  nn::Tensor forward(const nn::Tensor& in, bool) override {
    return infer(in);
  }
  nn::Tensor infer(const nn::Tensor& in) const override {
    gate_->pass();
    return in;
  }

 private:
  std::shared_ptr<const Gate> gate_;
};

/// tiny_cnn with a GateLayer after its first convolution.
std::unique_ptr<nn::Model> gated_cnn(std::uint64_t seed,
                                     std::shared_ptr<const Gate> gate) {
  auto m = std::make_unique<nn::Model>("gated_cnn");
  m->add(std::make_unique<nn::Conv2D>("conv1",
                                      nn::ConvSpec{1, 4, 3, 3, 1, 0}, seed));
  m->add(std::make_unique<GateLayer>(std::move(gate)));
  m->add(std::make_unique<nn::ReLU>("relu1"));
  m->add(std::make_unique<nn::MaxPool>("pool1", 2, 2));
  m->add(std::make_unique<nn::Flatten>("flat"));
  m->add(std::make_unique<nn::Linear>("fc", 4 * 3 * 3, 5, seed + 1));
  return m;
}

TEST(InferenceEngine, BatchMatchesSequentialBitwiseAtEveryThreadCount) {
  auto m = tiny_cnn(30);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  const auto inputs = random_batch(6, {1, 1, 8, 8}, 31);

  // Reference: N sequential facade runs.
  DeepCamAccelerator acc(*m, cfg);
  std::vector<nn::Tensor> seq_logits;
  std::vector<RunReport> seq_reports(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    seq_logits.push_back(acc.run(inputs[i], &seq_reports[i]));

  for (std::size_t threads : {1u, 4u, 8u}) {
    InferenceEngine engine(acc.compiled(), threads);
    EXPECT_EQ(engine.thread_count(), threads);
    BatchReport br;
    const auto logits = engine.run_batch(inputs, &br);
    ASSERT_EQ(logits.size(), inputs.size());
    ASSERT_EQ(br.per_sample.size(), inputs.size());
    EXPECT_EQ(br.group_reruns, 0u);  // no group failed where samples pass
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expect_bitwise_equal(logits[i], seq_logits[i]);
      expect_reports_equal(br.per_sample[i], seq_reports[i]);
    }
  }
}

TEST(InferenceEngine, AggregateEqualsSumOfPerSampleReports) {
  auto m = tiny_cnn(32);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  auto compiled = std::make_shared<const CompiledModel>(*m, cfg);
  InferenceEngine engine(compiled, 4);
  const auto inputs = random_batch(5, {1, 1, 8, 8}, 33);
  BatchReport br;
  engine.run_batch(inputs, &br);

  EXPECT_EQ(br.samples, inputs.size());
  EXPECT_EQ(br.threads, 4u);
  EXPECT_GT(br.wall_seconds, 0.0);
  EXPECT_GT(br.throughput(), 0.0);
  EXPECT_GT(br.simulated_throughput(), 0.0);

  std::size_t cycles = 0, searches = 0, dots = 0, patches = 0;
  double energy = 0.0;
  for (const auto& r : br.per_sample) {
    cycles += r.total_cycles();
    searches += r.total_searches();
    dots += r.total_dot_products();
    for (const auto& l : r.layers) patches += l.patches;
  }
  // Energy is merged component-wise in sample order; mirror that exactly so
  // doubles can be compared for equality, not just closeness.
  for (std::size_t l = 0; l < br.aggregate.layers.size(); ++l) {
    double cam_e = 0.0, pp_e = 0.0, cg_e = 0.0;
    for (const auto& r : br.per_sample) {
      cam_e += r.layers[l].cam_energy;
      pp_e += r.layers[l].postproc_energy;
      cg_e += r.layers[l].ctxgen_energy;
    }
    EXPECT_EQ(br.aggregate.layers[l].cam_energy, cam_e);
    EXPECT_EQ(br.aggregate.layers[l].postproc_energy, pp_e);
    EXPECT_EQ(br.aggregate.layers[l].ctxgen_energy, cg_e);
    energy += cam_e + pp_e + cg_e;
  }
  EXPECT_EQ(br.aggregate.total_cycles(), cycles);
  EXPECT_EQ(br.aggregate.total_searches(), searches);
  EXPECT_EQ(br.aggregate.total_dot_products(), dots);
  EXPECT_NEAR(br.aggregate.total_energy(), energy, 1e-18);
  std::size_t agg_patches = 0;
  for (const auto& l : br.aggregate.layers) agg_patches += l.patches;
  EXPECT_EQ(agg_patches, patches);
}

TEST(InferenceEngine, AggregatesPeripheralOnlyModels) {
  // A model with no CAM-mapped layers produces reports with empty `layers`;
  // the aggregate must still sum peripheral cycles across the batch rather
  // than keep the last sample's value.
  auto m = std::make_unique<nn::Model>("peripheral_only");
  m->add(std::make_unique<nn::ReLU>("relu"));
  m->add(std::make_unique<nn::MaxPool>("pool", 2, 2));
  m->add(std::make_unique<nn::Flatten>("flat"));
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  EXPECT_EQ(compiled->cam_layer_count(), 0u);
  InferenceEngine engine(compiled, 2);
  BatchReport br;
  engine.run_batch(random_batch(3, {1, 1, 8, 8}, 60), &br);
  std::size_t cycles = 0;
  for (const auto& r : br.per_sample) {
    EXPECT_TRUE(r.layers.empty());
    EXPECT_GT(r.peripheral_cycles, 0u);
    cycles += r.peripheral_cycles;
  }
  EXPECT_EQ(br.aggregate.peripheral_cycles, cycles);
  EXPECT_EQ(br.aggregate.total_cycles(), cycles);
}

TEST(InferenceEngine, RepeatedBatchesAreDeterministic) {
  auto m = tiny_cnn(34);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 4);
  const auto inputs = random_batch(4, {1, 1, 8, 8}, 35);
  BatchReport br1, br2;
  const auto out1 = engine.run_batch(inputs, &br1);
  const auto out2 = engine.run_batch(inputs, &br2);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    expect_bitwise_equal(out1[i], out2[i]);
  expect_reports_equal(br1.aggregate, br2.aggregate);
}

TEST(InferenceEngine, BatchedTensorOverloadSplitsSamples) {
  auto m = tiny_cnn(36);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  // One batched {3,1,8,8} tensor == three singleton tensors.
  nn::Tensor batched({3, 1, 8, 8});
  std::vector<nn::Tensor> singles;
  deepcam::Rng rng(37);
  for (std::size_t i = 0; i < batched.numel(); ++i)
    batched[i] = static_cast<float>(rng.gaussian());
  for (std::size_t n = 0; n < 3; ++n)
    singles.push_back(batched.slice_sample(n));

  const auto from_batched = engine.run_batch(batched);
  const auto from_singles = engine.run_batch(singles);
  ASSERT_EQ(from_batched.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n)
    expect_bitwise_equal(from_batched[n], from_singles[n]);
}

TEST(InferenceEngine, EmptyBatch) {
  auto m = tiny_cnn(38);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  BatchReport br;
  const auto out = engine.run_batch(std::vector<nn::Tensor>{}, &br);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(br.samples, 0u);
  EXPECT_EQ(br.aggregate.total_cycles(), 0u);
}

TEST(InferenceEngine, BadInputPropagatesAsError) {
  auto m = tiny_cnn(40);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  // Sample 1 has a batch dimension of 2 — workers must reject it and the
  // engine must surface the error without deadlocking.
  std::vector<nn::Tensor> inputs;
  inputs.push_back(random_image({1, 1, 8, 8}, 41));
  inputs.push_back(random_image({2, 1, 8, 8}, 42));
  EXPECT_THROW(engine.run_batch(inputs), deepcam::Error);
  // Engine stays usable after a failed batch.
  const auto ok = engine.run_batch(random_batch(2, {1, 1, 8, 8}, 43));
  EXPECT_EQ(ok.size(), 2u);

  // With several failing samples the engine surfaces the lowest-index
  // sample's error, independent of thread-completion order.
  std::vector<nn::Tensor> multi_bad;
  multi_bad.push_back(random_image({1, 1, 8, 8}, 44));
  multi_bad.push_back(random_image({1, 2, 8, 8}, 45));  // channel mismatch
  multi_bad.push_back(random_image({2, 1, 8, 8}, 46));  // batch > 1
  try {
    engine.run_batch(multi_bad);
    FAIL() << "expected deepcam::Error";
  } catch (const deepcam::Error& e) {
    // Sample 1 fails on channel count (in the context generator), sample 2
    // on the batch-size-1 check; the lower index must win.
    EXPECT_NE(std::string(e.what()).find("in_channels"), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(InferenceEngine, QuantizedSenseModeStaysDeterministic) {
  // The TDC-quantized sense amp is a pure function of the true HD, so the
  // engine's determinism contract must hold in kQuantized mode too.
  auto m = tiny_cnn(44);
  DeepCamConfig cfg;
  cfg.sense.mode = cam::SenseMode::kQuantized;
  DeepCamAccelerator acc(*m, cfg);
  const auto inputs = random_batch(3, {1, 1, 8, 8}, 45);
  std::vector<nn::Tensor> seq;
  for (const auto& in : inputs) seq.push_back(acc.run(in));
  InferenceEngine engine(acc.compiled(), 8);
  const auto par = engine.run_batch(inputs);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    expect_bitwise_equal(par[i], seq[i]);
}

TEST(InferenceEngine, LenetPipelineMatchesSequential) {
  // Larger end-to-end check on the LeNet topology used by the example.
  auto m = nn::make_lenet5(46);
  DeepCamConfig cfg;
  cfg.cam_rows = 64;
  cfg.default_hash_bits = 256;  // keep the test quick
  DeepCamAccelerator acc(*m, cfg);
  const auto inputs = random_batch(4, {1, 1, 28, 28}, 47);
  std::vector<nn::Tensor> seq;
  std::vector<RunReport> seq_reports(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    seq.push_back(acc.run(inputs[i], &seq_reports[i]));
  InferenceEngine engine(acc.compiled(), 4);
  BatchReport br;
  const auto par = engine.run_batch(inputs, &br);
  std::size_t cycles = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bitwise_equal(par[i], seq[i]);
    expect_reports_equal(br.per_sample[i], seq_reports[i]);
    cycles += seq_reports[i].total_cycles();
  }
  EXPECT_EQ(br.aggregate.total_cycles(), cycles);
}

// --- Groups: a worker runs up to kGroupSamples samples layer by layer -----

TEST(InferenceEngineGroups, GroupedBatchesMatchPerSampleWorkerRunsBitwise) {
  // Batch sizes around the group length, so groups come out whole, short
  // and single; every thread count splits them differently.
  constexpr std::size_t G = InferenceEngine::kGroupSamples;
  const std::size_t sizes[] = {1, G - 1, G, G + 1, 3 * G + 2};
  for (const GroupModel& gm : group_models(100)) {
    const auto inputs = random_batch(3 * G + 2, gm.input, 101);
    for (const Dataflow df :
         {Dataflow::kActivationStationary, Dataflow::kWeightStationary}) {
      for (const std::size_t k : {256u, 1024u}) {
        DeepCamConfig cfg;
        cfg.cam_rows = 16;
        cfg.dataflow = df;
        cfg.default_hash_bits = k;
        auto compiled = std::make_shared<const CompiledModel>(*gm.model, cfg);
        Worker worker(*compiled);
        std::vector<nn::Tensor> ref;
        std::vector<RunReport> ref_reports(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
          ref.push_back(worker.run(inputs[i], &ref_reports[i]));
        // run_group itself, since the engine reruns a failing group sample
        // by sample (and counts it in BatchReport::group_reruns, checked
        // below).
        for (const std::size_t n : sizes) {
          SCOPED_TRACE(::testing::Message()
                       << gm.model->name() << " dataflow "
                       << static_cast<int>(df) << " k " << k << " group "
                       << n);
          std::vector<nn::Tensor> out(n);
          std::vector<RunReport> reports(n);
          worker.run_group({inputs.data(), n}, out, reports);
          for (std::size_t i = 0; i < n; ++i) {
            expect_bitwise_equal(out[i], ref[i]);
            expect_reports_identical(reports[i], ref_reports[i]);
          }
        }
        for (const std::size_t threads : {1u, 2u, 4u}) {
          InferenceEngine engine(compiled, threads);
          for (const std::size_t n : sizes) {
            SCOPED_TRACE(::testing::Message()
                         << gm.model->name() << " dataflow "
                         << static_cast<int>(df) << " k " << k << " threads "
                         << threads << " batch " << n);
            const std::vector<nn::Tensor> batch(inputs.begin(),
                                                inputs.begin() + n);
            BatchReport br;
            const auto out = engine.run_batch(batch, &br);
            ASSERT_EQ(out.size(), n);
            EXPECT_EQ(br.group_reruns, 0u);
            for (std::size_t i = 0; i < n; ++i) {
              expect_bitwise_equal(out[i], ref[i]);
              expect_reports_identical(br.per_sample[i], ref_reports[i]);
            }
          }
        }
      }
    }
  }
}

TEST(InferenceEngineGroups, FailingSamplesInsideOneGroupLowestIndexWins) {
  // One thread claims the whole batch as one group; samples 1 and 2 fail
  // in different ways, in either order. The group reruns sample by sample,
  // so the error is sample 1's, as if every sample ran alone.
  constexpr std::size_t G = InferenceEngine::kGroupSamples;
  for (const GroupModel& gm : group_models(110)) {
    SCOPED_TRACE(gm.model->name());
    auto compiled =
        std::make_shared<const CompiledModel>(*gm.model, DeepCamConfig{});
    InferenceEngine engine(compiled, 1);
    const nn::Shape in = gm.input;
    const nn::Tensor wrong_channels = random_image({1, 2, in.h, in.w}, 111);
    const nn::Tensor batch_of_two = random_image({2, 1, in.h, in.w}, 112);
    struct Case {
      const nn::Tensor* at1;
      const nn::Tensor* at2;
      const char* expect;
    };
    for (const Case& c :
         {Case{&wrong_channels, &batch_of_two, "in_channels"},
          Case{&batch_of_two, &wrong_channels, "batch size"}}) {
      auto batch = random_batch(G, in, 113);
      batch[1] = *c.at1;
      batch[2] = *c.at2;
      try {
        engine.run_batch(batch);
        FAIL() << "expected deepcam::Error";
      } catch (const deepcam::Error& e) {
        EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
            << "got: " << e.what();
      }
    }
    // The worker that failed mid-group still runs groups bitwise.
    const auto good = random_batch(G, in, 114);
    const auto out = engine.run_batch(good);
    Worker fresh(*compiled);
    for (std::size_t i = 0; i < good.size(); ++i)
      expect_bitwise_equal(out[i], fresh.run(good[i]));
  }
}

TEST(InferenceEngineGroups, TracedBatchHasOneSampleSpanHoldingItsKernels) {
  // Samples of a group interleave layer by layer; the trace still shows one
  // `sample` span per sample, its kernel spans packed inside it.
  constexpr std::size_t G = InferenceEngine::kGroupSamples;
  constexpr std::size_t kSamples = 2 * G + 1;
  auto& rec = obs::TraceRecorder::instance();
  for (const GroupModel& gm : group_models(120)) {
    auto compiled =
        std::make_shared<const CompiledModel>(*gm.model, DeepCamConfig{});
    const std::size_t cam_layers = compiled->cam_layer_count();
    for (const std::size_t threads : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << gm.model->name() << " threads " << threads);
      InferenceEngine engine(compiled, threads);
      rec.clear();
      rec.set_level(obs::TraceLevel::kFull);
      engine.run_batch(random_batch(kSamples, gm.input, 121));
      rec.set_level(obs::TraceLevel::kOff);
      const auto spans = rec.collect();
      rec.clear();

      std::map<std::uint64_t, std::vector<obs::SpanRecord>> samples, kernels;
      for (const obs::SpanRecord& r : spans) {
        if (r.cat == obs::SpanCat::kEngine &&
            std::string(r.name) == "sample")
          samples[r.batch].push_back(r);
        else if (r.cat == obs::SpanCat::kKernel)
          kernels[r.batch].push_back(r);
      }
      ASSERT_EQ(samples.size(), kSamples);
      ASSERT_EQ(kernels.size(), kSamples);
      for (std::size_t s = 0; s < kSamples; ++s) {
        ASSERT_EQ(samples[s].size(), 1u) << "sample " << s;
        const obs::SpanRecord& sample = samples[s].front();
        // hash, cam_write, cam_search and postproc per CAM layer.
        EXPECT_EQ(kernels[s].size(), 4 * cam_layers) << "sample " << s;
        for (const obs::SpanRecord& k : kernels[s]) {
          EXPECT_GE(k.t_begin_ns, sample.t_begin_ns) << k.name;
          EXPECT_LE(k.t_end_ns, sample.t_end_ns) << k.name;
        }
      }
    }
  }
}

// --- CompiledModels sharing one HashedWeights ------------------------------

TEST(SharedHashedWeights, TiersMatchSeparateCompilesBitwise) {
  // A server's k = 1024 and k = 256 tiers compiled from one hashing of the
  // weights behave exactly like two independent compiles, at any thread
  // count, and read the same weight arena.
  auto m = tiny_cnn(40);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  cfg.hash_seed = 7;
  const auto hashed = hash_weights(*m, cfg.hash_seed);
  const auto inputs = random_batch(5, {1, 1, 8, 8}, 41);
  std::vector<std::shared_ptr<const CompiledModel>> tiers;
  for (const std::size_t k : {1024u, 256u}) {
    cfg.default_hash_bits = k;
    tiers.push_back(std::make_shared<const CompiledModel>(*m, hashed, cfg));
    const auto separate = std::make_shared<const CompiledModel>(*m, cfg);
    for (const std::size_t threads : {1u, 4u}) {
      BatchReport shared_br, separate_br;
      const auto shared_out =
          InferenceEngine(tiers.back(), threads).run_batch(inputs, &shared_br);
      const auto separate_out =
          InferenceEngine(separate, threads).run_batch(inputs, &separate_br);
      ASSERT_EQ(shared_out.size(), separate_out.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        expect_bitwise_equal(shared_out[i], separate_out[i]);
        expect_reports_equal(shared_br.per_sample[i],
                             separate_br.per_sample[i]);
      }
      expect_reports_equal(shared_br.aggregate, separate_br.aggregate);
      EXPECT_EQ(shared_br.samples, separate_br.samples);
      EXPECT_EQ(shared_br.threads, separate_br.threads);
    }
  }
  ASSERT_EQ(tiers[0]->cam_layer_count(), hashed->layers.size());
  for (std::size_t i = 0; i < hashed->layers.size(); ++i) {
    EXPECT_EQ(tiers[0]->cam_layer(i).hashed, &hashed->layers[i]);
    EXPECT_EQ(tiers[1]->cam_layer(i).hashed, &hashed->layers[i]);
    EXPECT_EQ(tiers[0]->cam_layer(i).hashed->weights.sig(0),
              tiers[1]->cam_layer(i).hashed->weights.sig(0));
  }
}

TEST(SharedHashedWeights, SeedMismatchNamesBothSeeds) {
  auto m = tiny_cnn(40);
  DeepCamConfig cfg;  // hash_seed 42
  const auto hashed = hash_weights(*m, 7);
  try {
    const CompiledModel compiled(*m, hashed, cfg);
    FAIL() << "a seed mismatch must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hash_seed 7"), std::string::npos) << what;
    EXPECT_NE(what.find("hash_seed 42"), std::string::npos) << what;
  }
}

TEST(SharedHashedWeights, WeightsOfAnotherModelThrow) {
  auto m = tiny_cnn(40);
  auto other = tiny_cnn(40);  // same weights, different instance
  const auto hashed = hash_weights(*other, 42);
  EXPECT_THROW(CompiledModel(*m, hashed, DeepCamConfig{}), Error);
  EXPECT_THROW(CompiledModel(*m, nullptr, DeepCamConfig{}), Error);
}

TEST(SharedHashedWeights, WeightsNarrowerThanTheConfigThrow) {
  // A CompiledModel that hashes for itself hashes only the bits its config
  // reads; weights hashed that narrowly cannot serve a longer hash.
  auto m = tiny_cnn(40);
  DeepCamConfig cfg;
  cfg.default_hash_bits = 256;
  const CompiledModel narrow(*m, cfg);
  EXPECT_EQ(narrow.cam_layer(0).hashed->weights.sig_bits(), 256u);
  cfg.default_hash_bits = 512;
  EXPECT_THROW(CompiledModel(*m, hash_weights(*m, 42, 256), cfg), Error);
  EXPECT_NO_THROW(CompiledModel(*m, hash_weights(*m, 42), cfg));
}

// --- hash_weights: CAM layers hashed concurrently ---------------------------

/// The weight rows and context length n of CAM layer `node`.
std::pair<const std::vector<float>*, std::size_t> cam_weights(
    const nn::Model& m, std::size_t node) {
  const nn::Layer& layer = m.layer(node);
  if (layer.kind() == nn::LayerKind::kConv2D) {
    const auto& conv = static_cast<const nn::Conv2D&>(layer);
    return {&conv.weights(), conv.spec().patch_len()};
  }
  const auto& fc = static_cast<const nn::Linear&>(layer);
  return {&fc.weights(), fc.in_features()};
}

/// Layer-by-layer reference: CAM layer `node` hashed alone on this thread
/// by the recipe hash_weights documents.
HashedLayer hash_alone(const nn::Model& m, std::size_t node,
                       std::uint64_t seed, std::size_t width) {
  const auto [weights, n] = cam_weights(m, node);
  const nn::Layer& layer = m.layer(node);
  const std::vector<float>& bias =
      layer.kind() == nn::LayerKind::kConv2D
          ? static_cast<const nn::Conv2D&>(layer).bias()
          : static_cast<const nn::Linear&>(layer).bias();
  ContextGenerator gen(n, layer_hash_seed(seed, node), width);
  ContextBatch contexts = gen.weight_context_batch(*weights, width);
  return {node, std::move(gen), std::move(contexts), bias};
}

/// Byte-for-byte equality of two hashings of one CAM layer: node, weight
/// signatures, norm codes, exact norms and bias, plus the same C (probe
/// vectors hashed by both generators agree).
void expect_layers_identical(const HashedLayer& a, const HashedLayer& b) {
  ASSERT_EQ(a.node_index, b.node_index);
  const ContextBatch& wa = a.weights;
  const ContextBatch& wb = b.weights;
  ASSERT_EQ(wa.size(), wb.size()) << "node " << a.node_index;
  ASSERT_EQ(wa.sig_bits(), wb.sig_bits());
  ASSERT_EQ(0, std::memcmp(wa.sig(0), wb.sig(0),
                           wa.size() * wa.words_per_sig() *
                               sizeof(std::uint64_t)))
      << "node " << a.node_index;
  for (std::size_t i = 0; i < wa.size(); ++i) {
    const double na = wa.exact_norm(i), nb = wb.exact_norm(i);
    ASSERT_EQ(wa.norm_code(i), wb.norm_code(i));
    ASSERT_EQ(0, std::memcmp(&na, &nb, sizeof(double)));
  }
  ASSERT_EQ(a.bias.size(), b.bias.size());
  EXPECT_EQ(0, std::memcmp(a.bias.data(), b.bias.data(),
                           a.bias.size() * sizeof(float)));
  const std::size_t n = a.ctxgen.input_dim();
  ASSERT_EQ(n, b.ctxgen.input_dim());
  std::vector<float> probes(3 * n);
  deepcam::Rng rng(a.node_index);
  for (float& x : probes) x = static_cast<float>(rng.gaussian());
  ContextBatch pa, pb;
  a.ctxgen.contexts_into(probes.data(), 3, pa, wa.sig_bits());
  b.ctxgen.contexts_into(probes.data(), 3, pb, wa.sig_bits());
  EXPECT_EQ(0, std::memcmp(pa.sig(0), pb.sig(0),
                           3 * pa.words_per_sig() * sizeof(std::uint64_t)))
      << "node " << a.node_index;
}

TEST(HashWeights, ParallelMatchesLayerByLayer) {
  // ResNet-18 has more CAM layers (21) than threads hash them; VGG11's
  // layers differ in size by two orders of magnitude, so threads finish
  // out of cam_nodes order.
  for (const char* name : {"resnet18", "vgg11"}) {
    const auto m = nn::make_model(name, 5);
    const std::vector<std::size_t> nodes = cam_nodes(*m);
    for (const std::size_t width : {1024u, 256u}) {
      SCOPED_TRACE(std::string(name) + " at " + std::to_string(width));
      const auto hashed = hash_weights(*m, 42, width);
      EXPECT_EQ(hashed->model, m.get());
      EXPECT_EQ(hashed->hash_seed, 42u);
      ASSERT_EQ(hashed->layers.size(), nodes.size());
      for (std::size_t li = 0; li < nodes.size(); ++li)
        expect_layers_identical(hashed->layers[li],
                                hash_alone(*m, nodes[li], 42, width));
    }
  }
}

TEST(HashWeights, TwoCallsAgree) {
  const auto m = nn::make_model("vgg11", 6);
  const auto a = hash_weights(*m, 9, 256);
  const auto b = hash_weights(*m, 9, 256);
  ASSERT_EQ(a->layers.size(), b->layers.size());
  for (std::size_t li = 0; li < a->layers.size(); ++li)
    expect_layers_identical(a->layers[li], b->layers[li]);
}

TEST(HashWeights, SmallModelMatchesTheScalarOracle) {
  // Every kernel's context against the per-vector scalar oracle, under the
  // C the layer's seed draws.
  const auto m = nn::make_lenet5(8);
  const std::vector<std::size_t> nodes = cam_nodes(*m);
  for (const std::size_t width : {1024u, 256u}) {
    const auto hashed = hash_weights(*m, 42, width);
    ASSERT_EQ(hashed->layers.size(), nodes.size());
    for (std::size_t li = 0; li < nodes.size(); ++li) {
      const auto [weights, n] = cam_weights(*m, nodes[li]);
      const hash::RandomProjection c = hash::RandomProjection::prefix(
          n, width, layer_hash_seed(42, nodes[li]));
      const ContextBatch& got = hashed->layers[li].weights;
      ASSERT_EQ(got.size(), weights->size() / n);
      for (std::size_t k = 0; k < got.size(); ++k) {
        const oracle::Context ref = oracle::context(
            c, std::span<const float>(weights->data() + k * n, n), width);
        ASSERT_EQ(0, std::memcmp(got.sig(k), ref.bits.data(),
                                 got.words_per_sig() * sizeof(std::uint64_t)))
            << "layer " << li << " kernel " << k;
        EXPECT_EQ(got.norm_code(k), ref.norm_code);
        EXPECT_EQ(got.exact_norm(k), ref.exact_norm);
      }
    }
  }
}

/// Four healthy layers around two that cannot be hashed, in either order:
/// a linear layer without inputs (no projection matrix to draw) and one
/// whose weights are no whole number of rows.
std::unique_ptr<nn::Model> model_with_bad_layers(bool empty_first) {
  auto m = std::make_unique<nn::Model>("bad_layers");
  m->add(std::make_unique<nn::Linear>("big", 512, 256, 1));
  auto empty = std::make_unique<nn::Linear>("empty", 0, 4, 2);
  auto ragged = std::make_unique<nn::Linear>("ragged", 8, 4, 3);
  ragged->weights().resize(31);
  if (empty_first) {
    m->add(std::move(empty));
    m->add(std::make_unique<nn::Linear>("mid", 64, 64, 4));
    m->add(std::move(ragged));
  } else {
    m->add(std::move(ragged));
    m->add(std::make_unique<nn::Linear>("mid", 64, 64, 4));
    m->add(std::move(empty));
  }
  m->add(std::make_unique<nn::Linear>("wide", 1024, 128, 5));
  m->add(std::make_unique<nn::Linear>("small", 16, 8, 6));
  return m;
}

TEST(HashWeights, FirstFailingLayerInCamOrderReachesTheCaller) {
  // Threads take layers largest first, so both bad layers (the smallest)
  // are hashed last; the caller still sees the error of the earlier one in
  // cam_nodes order, as a deepcam::Error, after every thread has joined.
  for (const bool empty_first : {true, false}) {
    const auto m = model_with_bad_layers(empty_first);
    const std::string expected =
        empty_first ? "input_dim > 0" : "kernels.size() % proj_.input_dim()";
    for (int call = 0; call < 2; ++call) {
      try {
        if (call == 0)
          (void)hash_weights(*m, 42);
        else
          (void)CompiledModel(*m, DeepCamConfig{});
        FAIL() << "hashing a layer without inputs must throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
      }
    }
  }
}

// --- submit()/BatchFuture path (PR 4) --------------------------------------
//
// run_batch() is now a thin wrapper over submit + per-batch completion
// state; these tests pin the regression contract: bitwise-identical
// outputs, identical error propagation (lowest failing sample index), and
// correct overlap of multiple in-flight batches.

TEST(InferenceEngineSubmit, SubmitMatchesRunBatchBitwise) {
  auto m = tiny_cnn(60);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  auto compiled = std::make_shared<const CompiledModel>(*m, cfg);
  InferenceEngine engine(compiled, 4);
  const auto inputs = random_batch(6, {1, 1, 8, 8}, 61);

  BatchReport wrapped_rep;
  const auto wrapped = engine.run_batch(inputs, &wrapped_rep);

  BatchFuture future = engine.submit(inputs);  // copies the batch
  ASSERT_TRUE(future.valid());
  BatchReport submitted_rep;
  const auto submitted = future.get(&submitted_rep);
  EXPECT_FALSE(future.valid());  // one-shot

  ASSERT_EQ(submitted.size(), wrapped.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bitwise_equal(submitted[i], wrapped[i]);
    expect_reports_equal(submitted_rep.per_sample[i],
                         wrapped_rep.per_sample[i]);
  }
  EXPECT_EQ(submitted_rep.samples, wrapped_rep.samples);
  expect_reports_equal(submitted_rep.aggregate, wrapped_rep.aggregate);
}

TEST(InferenceEngineSubmit, ManyConcurrentInFlightBatchesAnyGetOrder) {
  auto m = tiny_cnn(62);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  auto compiled = std::make_shared<const CompiledModel>(*m, cfg);
  DeepCamAccelerator acc(*m, cfg);
  InferenceEngine engine(acc.compiled(), 2);

  // Submit 5 batches back-to-back without waiting: all are in flight
  // against a 2-thread pool. Collect them in reverse order to prove each
  // batch's completion state is independent of submission order.
  std::vector<std::vector<nn::Tensor>> batches;
  std::vector<BatchFuture> futures;
  for (std::size_t b = 0; b < 5; ++b) {
    batches.push_back(random_batch(3, {1, 1, 8, 8}, 63 + 10 * b));
    futures.push_back(engine.submit(batches.back()));
  }
  EXPECT_GE(engine.in_flight_batches(), 1u);
  for (std::size_t b = futures.size(); b-- > 0;) {
    const auto logits = futures[b].get();
    ASSERT_EQ(logits.size(), batches[b].size());
    for (std::size_t i = 0; i < logits.size(); ++i)
      expect_bitwise_equal(logits[i], acc.run(batches[b][i]));
  }
  EXPECT_EQ(engine.in_flight_batches(), 0u);
}

TEST(InferenceEngineSubmit, ConcurrentRunBatchCallersNoLongerSerialize) {
  // Pre-PR the engine held a single-flight submit lock; now concurrent
  // run_batch callers interleave safely and each gets its own results.
  auto m = tiny_cnn(70);
  DeepCamConfig cfg;
  cfg.cam_rows = 16;
  DeepCamAccelerator acc(*m, cfg);
  InferenceEngine engine(acc.compiled(), 2);

  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<nn::Tensor>> inputs(kCallers);
  std::vector<std::vector<nn::Tensor>> outputs(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c)
    inputs[c] = random_batch(4, {1, 1, 8, 8}, 71 + 10 * c);
  {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c)
      callers.emplace_back(
          [&, c] { outputs[c] = engine.run_batch(inputs[c]); });
    for (auto& t : callers) t.join();
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(outputs[c].size(), inputs[c].size());
    for (std::size_t i = 0; i < inputs[c].size(); ++i)
      expect_bitwise_equal(outputs[c][i], acc.run(inputs[c][i]));
  }
}

TEST(InferenceEngineSubmit, ErrorPropagatesThroughFutureLowestIndexWins) {
  auto m = tiny_cnn(80);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  std::vector<nn::Tensor> bad;
  bad.push_back(random_image({1, 1, 8, 8}, 81));
  bad.push_back(random_image({1, 2, 8, 8}, 82));  // channel mismatch
  bad.push_back(random_image({2, 1, 8, 8}, 83));  // batch > 1
  BatchFuture future = engine.submit(bad);
  try {
    future.get();
    FAIL() << "expected deepcam::Error";
  } catch (const deepcam::Error& e) {
    EXPECT_NE(std::string(e.what()).find("in_channels"), std::string::npos)
        << "got: " << e.what();
  }
  // Errors in one batch leave concurrent/subsequent batches untouched.
  const auto ok = engine.submit(random_batch(2, {1, 1, 8, 8}, 84)).get();
  EXPECT_EQ(ok.size(), 2u);
}

TEST(InferenceEngineSubmit, EmptySubmitCompletesImmediately) {
  auto m = tiny_cnn(86);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  BatchFuture future = engine.submit({});
  EXPECT_TRUE(future.ready());
  BatchReport br;
  EXPECT_TRUE(future.get(&br).empty());
  EXPECT_EQ(br.samples, 0u);
}

TEST(InferenceEngineSubmit, DestructorDrainsUncollectedBatches) {
  auto m = tiny_cnn(88);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  auto inputs = random_batch(4, {1, 1, 8, 8}, 89);
  BatchFuture abandoned;
  {
    InferenceEngine engine(compiled, 1);
    abandoned = engine.submit(inputs);
    // Engine destruction must finish the in-flight batch, not hang or
    // leave dangling sample pointers. (The future must not be touched
    // after the engine is gone; dropping it is fine.)
  }
  SUCCEED();
}

// --- wait_for()/cancel() — the serving tier's request-timeout hooks --------

TEST(InferenceEngineSubmit, WaitForTimesOutThenReportsCompletion) {
  auto gate = std::make_shared<Gate>();
  auto m = gated_cnn(90, gate);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 1);
  const Gate::OpenAtExit open_at_exit{*gate};
  BatchFuture future = engine.submit(random_batch(4, {1, 1, 8, 8}, 91));
  // Every sample waits at the closed gate: the batch cannot finish.
  EXPECT_FALSE(future.wait_for(std::chrono::nanoseconds::zero()));
  EXPECT_FALSE(future.wait_for(std::chrono::milliseconds(1)));
  EXPECT_FALSE(future.ready());
  gate->open();
  future.wait();
  EXPECT_TRUE(future.wait_for(std::chrono::nanoseconds::zero()));
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get().size(), 4u);
}

TEST(InferenceEngineSubmit, CancelRemovesQueuedBatchButSparesNeighbors) {
  auto gate = std::make_shared<Gate>();
  auto m = gated_cnn(92, gate);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 1);
  const Gate::OpenAtExit open_at_exit{*gate};
  // The single worker holds the head batch at the closed gate, so the
  // second batch stays fully undispatched in the FIFO until it opens.
  const auto head_inputs = random_batch(4, {1, 1, 8, 8}, 93);
  BatchFuture head = engine.submit(head_inputs);
  BatchFuture queued = engine.submit(random_batch(2, {1, 1, 8, 8}, 94));
  EXPECT_TRUE(queued.cancel());
  EXPECT_TRUE(queued.valid());  // still collectable — as an error
  EXPECT_TRUE(queued.ready());  // cancellation completes it immediately
  try {
    queued.get();
    FAIL() << "expected deepcam::Error from a cancelled batch";
  } catch (const deepcam::Error& e) {
    EXPECT_NE(std::string(e.what()).find("batch cancelled"),
              std::string::npos)
        << "got: " << e.what();
  }
  // The head batch is untouched by its neighbor's cancellation, and the
  // in-flight bookkeeping settles back to zero.
  gate->open();
  EXPECT_EQ(head.get().size(), head_inputs.size());
  EXPECT_EQ(engine.in_flight_batches(), 0u);
}

TEST(InferenceEngineSubmit, CancelRefusesABatchHeldMidExecution) {
  auto gate = std::make_shared<Gate>();
  auto m = gated_cnn(97, gate);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 1);
  const Gate::OpenAtExit open_at_exit{*gate};
  BatchFuture future = engine.submit(random_batch(3, {1, 1, 8, 8}, 98));
  gate->wait_for_arrival();  // dispatched, and held unfinished
  EXPECT_FALSE(future.cancel());
  EXPECT_FALSE(future.ready());
  gate->open();
  EXPECT_EQ(future.get().size(), 3u);
}

TEST(InferenceEngineSubmit, CancelRefusesOnceExecutionStartedOrFinished) {
  auto m = tiny_cnn(95);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 2);
  BatchFuture future = engine.submit(random_batch(3, {1, 1, 8, 8}, 96));
  future.wait();                  // definitely dispatched (and done)
  EXPECT_FALSE(future.cancel());  // results are never torn down
  EXPECT_EQ(future.get().size(), 3u);  // ... and remain collectable

  // Same refusal for an already-collected empty batch (done from birth).
  BatchFuture empty = engine.submit({});
  EXPECT_FALSE(empty.cancel());
  EXPECT_TRUE(empty.get().empty());
}

TEST(ModelConstInference, InferMatchesForwardBitwise) {
  // The engine leans on Layer::infer being numerically identical to
  // forward(in, false) — verify on both topology families.
  const auto in_small = random_image({1, 1, 8, 8}, 50);
  auto tiny = tiny_cnn(51);
  expect_bitwise_equal(tiny->infer(in_small),
                       tiny->forward(in_small, false));
  auto resnet = nn::make_resnet18(52, 10);
  const auto in_res = random_image({1, 3, 32, 32}, 53);
  expect_bitwise_equal(resnet->infer(in_res),
                       resnet->forward(in_res, false));
}

}  // namespace
}  // namespace deepcam::core
