// Offline workloads: one engine thread fed a fixed seeded sample set
// through InferenceEngine::run_batch, repeated for the run's duration.
//
//   offline-vgg11-k1024  VGG11 on a CIFAR-like input, k = 1024 on every CAM
//                        layer: the SimHash projection GEMM dominates kernel
//                        time, and weight hashing dominates set-up.
//   offline-wide-k256    conv 1->64 (3x3, n = 9, K = 64) on 32x32, maxpool,
//                        fc 4096->10 at k = 256 on 64 CAM rows: 65536 dot
//                        products per sample make post-processing and CAM
//                        search dominate, so a hash-only change barely moves
//                        it.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "core/engine.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"

namespace perfbench {

namespace core = deepcam::core;

namespace {

constexpr std::size_t kCheckSamples = 2;  // sequential-Worker subset

struct OfflineSpec {
  std::function<std::unique_ptr<nn::Model>(std::uint64_t)> build;
  nn::Shape input;
  std::size_t hash_bits;
  std::size_t cam_rows;
  std::size_t batch;  // samples per timed run_batch repeat
};

std::unique_ptr<nn::Model> make_wide(std::uint64_t seed) {
  auto m = std::make_unique<nn::Model>("wide");
  m->add(std::make_unique<nn::Conv2D>(
      "conv1", nn::ConvSpec{1, 64, 3, 3, 1, 1}, mix_seed(seed, 0)));
  m->add(std::make_unique<nn::MaxPool>("pool1", 4, 4));
  m->add(std::make_unique<nn::Flatten>("flatten"));
  m->add(std::make_unique<nn::Linear>("fc1", 4096, 10, mix_seed(seed, 1)));
  return m;
}

/// Relative L2 error of `approx` against `exact`.
double rel_err(const nn::Tensor& approx, const nn::Tensor& exact) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < exact.numel(); ++i) {
    const double d = static_cast<double>(approx[i]) - exact[i];
    num += d * d;
    den += static_cast<double>(exact[i]) * exact[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

void run_offline(const OfflineSpec& spec, const Args& args, Report& report) {
  core::DeepCamConfig cfg;
  cfg.default_hash_bits = spec.hash_bits;
  cfg.cam_rows = spec.cam_rows;

  // Set-up is repeated so setup_s is a median; the last one is kept.
  // Destruction order matters: the engine shares the compiled model, which
  // points at the nn::Model.
  std::unique_ptr<nn::Model> model;
  std::shared_ptr<const core::CompiledModel> compiled;
  std::unique_ptr<core::InferenceEngine> engine;
  std::vector<nn::Tensor> inputs;
  const Clock::time_point first_setup = Clock::now();
  for (int i = 0; more_setups(i, first_setup); ++i) {
    engine.reset();
    compiled.reset();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    model = spec.build(args.seed);
    report.sample("nn.build_s", seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    compiled = std::make_shared<const core::CompiledModel>(*model, cfg);
    report.sample("core.compile_s", seconds_since(t1));
    engine = std::make_unique<core::InferenceEngine>(compiled, 1);
    inputs = make_inputs(spec.input, spec.batch, mix_seed(args.seed, 1));
    report.sample("setup_s", seconds_since(t0));
  }

  // Warm-up run; its logits are the reference every timed repeat must
  // reproduce bitwise.
  core::BatchReport batch_report;
  const std::vector<nn::Tensor> reference =
      engine->run_batch(inputs, &batch_report);

  // Timed repeats. With --trace 1 every other repeat is traced, so traced
  // and untraced throughput are paired within one process.
  std::size_t mismatched = 0;
  std::size_t repeat = 0;
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (Clock::now() < t_end || repeat < 4) {
    const bool traced = args.trace && repeat % 2 == 1;
    TraceWindow window(traced);
    const Clock::time_point t = Clock::now();
    const std::vector<nn::Tensor> out = engine->run_batch(inputs);
    const double wall = seconds_since(t);
    window.finish(report);
    const double per_s = static_cast<double>(spec.batch) / wall;
    report.sample(traced ? "traced.samples_per_s" : "samples_per_s", per_s);
    if (!traced) report.sample("ms_per_sample", 1e3 / per_s);
    for (std::size_t s = 0; s < out.size(); ++s)
      if (!bitwise_equal(out[s], reference[s])) ++mismatched;
    report.ops(spec.batch);
    ++repeat;
  }
  report.op_failed(mismatched);
  report.check("repeat_determinism", mismatched == 0,
               std::to_string(mismatched) + " samples differ from the warm-up "
                                            "run over " +
                   std::to_string(repeat) + " repeats");

  // Engine == sequential single Worker, bitwise.
  core::Worker worker(*compiled);
  std::size_t worker_mismatch = 0;
  const std::size_t n_check = std::min(kCheckSamples, inputs.size());
  for (std::size_t s = 0; s < n_check; ++s)
    if (!bitwise_equal(worker.run(inputs[s]), reference[s])) ++worker_mismatch;
  report.check("engine_vs_worker", worker_mismatch == 0,
               std::to_string(worker_mismatch) + " of " +
                   std::to_string(n_check) + " samples differ");

  // Simulated cycles per layer == plan::CostModel::estimate, exactly.
  report.tier(layer_table(std::string("k").append(
                              std::to_string(spec.hash_bits)),
                          *compiled, spec.input,
                          batch_report.per_sample.front(), report));
  const double n = static_cast<double>(batch_report.samples);
  report.scalar("sim_cycles_per_sample",
                static_cast<double>(batch_report.aggregate.total_cycles()) / n);
  report.scalar("sim_energy_nj_per_sample",
                batch_report.aggregate.total_energy() * 1e9 / n);

  // DeepCAM logits against exact float inference on the same inputs.
  std::size_t agree = 0;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const nn::Tensor exact = model->infer(inputs[s]);
    if (nn::argmax_class(exact) == nn::argmax_class(reference[s])) ++agree;
    report.sample("logit_rel_err", rel_err(reference[s], exact));
  }
  report.scalar("top1_agreement", static_cast<double>(agree) /
                                      static_cast<double>(inputs.size()));

  if (args.trace)
    bench_project_cols(batch_report.per_sample.front(), args.seed, report);
  report.scalar("peak_rss_mb", peak_rss_mb());
}

}  // namespace

void run_offline_vgg11(const Args& args, Report& report) {
  run_offline(OfflineSpec{[](std::uint64_t seed) {
                            return nn::make_vgg11(seed);
                          },
                          nn::input_spec_for("vgg11").shape(), 1024, 64, 8},
              args, report);
}

void run_offline_wide(const Args& args, Report& report) {
  run_offline(OfflineSpec{make_wide, nn::Shape{1, 1, 32, 32}, 256, 64, 64},
              args, report);
}

}  // namespace perfbench
