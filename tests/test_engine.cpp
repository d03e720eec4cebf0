// InferenceEngine equivalence and determinism tests.
//
// The contract under test (ISSUE 1 acceptance): run_batch over N samples
// produces bitwise-identical logits and identical aggregated cycle/energy
// totals to N sequential DeepCamAccelerator::run calls, for any thread
// count.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"

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
  auto m = nn::make_lenet5(90);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 1);
  BatchFuture future = engine.submit(random_batch(4, {1, 1, 28, 28}, 91));
  // A zero-length wait on a conv-heavy 4-sample batch against one thread:
  // the work cannot have finished between submit and this call.
  EXPECT_FALSE(future.wait_for(std::chrono::nanoseconds::zero()));
  future.wait();
  EXPECT_TRUE(future.wait_for(std::chrono::nanoseconds::zero()));
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get().size(), 4u);
}

TEST(InferenceEngineSubmit, CancelRemovesQueuedBatchButSparesNeighbors) {
  auto m = nn::make_lenet5(92);
  auto compiled = std::make_shared<const CompiledModel>(*m, DeepCamConfig{});
  InferenceEngine engine(compiled, 1);
  // The single worker picks up the head batch sample-by-sample; the second
  // batch sits fully undispatched in the FIFO for the duration of four
  // LeNet forwards — ample time to cancel it deterministically.
  const auto head_inputs = random_batch(4, {1, 1, 28, 28}, 93);
  BatchFuture head = engine.submit(head_inputs);
  BatchFuture queued = engine.submit(random_batch(2, {1, 1, 28, 28}, 94));
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
  EXPECT_EQ(head.get().size(), head_inputs.size());
  EXPECT_EQ(engine.in_flight_batches(), 0u);
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
