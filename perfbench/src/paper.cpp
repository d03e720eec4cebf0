// paper-vgg11: the paper-table path. Each iteration plans VGG11 cold through
// a fresh plan::PlanCache (VHL accuracy floors, then the rows x dataflow
// search under the `cycles` objective), takes the warm cache hit, and runs
// sim::ComparisonRunner over the default backend registry at batch 8.
// Without it the plan and sim modules would go unmeasured.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/engine.hpp"
#include "nn/topologies.hpp"
#include "plan/cost_model.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "sim/comparison.hpp"
#include "sim/registry.hpp"

namespace perfbench {

namespace core = deepcam::core;
namespace plan = deepcam::plan;
namespace sim = deepcam::sim;

namespace {

constexpr std::size_t kCompareBatch = 8;

plan::PlannerConfig planner_config() {
  plan::PlannerConfig cfg;
  cfg.objective = plan::Objective::kCycles;
  cfg.thread_candidates = {1};
  cfg.micro_batch_candidates = {1};
  return cfg;
}

/// The facts of a plan that must not change between iterations.
std::string plan_digest(const plan::Plan& p) {
  std::string s = std::to_string(p.cam_rows) + "/" +
                  std::to_string(static_cast<int>(p.dataflow)) + "/" +
                  std::to_string(p.cost.sample_cycles()) + "/" +
                  std::to_string(p.configs_evaluated) + "/k";
  for (const std::size_t k : p.hash_bits) s += std::to_string(k) + ",";
  return s;
}

}  // namespace

void run_paper(const Args& args, Report& report) {
  const nn::Shape input = nn::input_spec_for("vgg11").shape();
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<sim::BackendRegistry> registry;
  const Clock::time_point first_setup = Clock::now();
  for (int i = 0; more_setups(i, first_setup); ++i) {
    registry.reset();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    model = nn::make_vgg11(args.seed);
    report.sample("nn.build_s", seconds_since(t0));
    registry = std::make_unique<sim::BackendRegistry>(sim::default_registry(1));
    report.sample("setup_s", seconds_since(t0));
  }
  const plan::Planner planner(*model, input);
  const plan::PlannerConfig cfg = planner_config();
  const std::string key = plan::plan_cache_key(
      plan::extract_geometry(*model, input).digest(), cfg);
  sim::ComparisonOptions opts;
  opts.deepcam_threads = 1;
  const sim::ComparisonRunner runner(*registry, opts);
  const std::vector<sim::WorkloadSpec> workloads = {
      sim::WorkloadSpec{"vgg11", args.seed, {kCompareBatch}}};

  // Iterations; with --trace 1 every other one is traced.
  std::string first_digest;
  std::size_t plan_drift = 0, cache_misbehaved = 0;
  sim::ComparisonReport compare;
  std::size_t iteration = 0;
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (Clock::now() < t_end || iteration < 2) {
    const bool traced = args.trace && iteration % 2 == 1;
    TraceWindow window(traced);
    plan::PlanCache cache;
    bool hit = true;
    const Clock::time_point t0 = Clock::now();
    const plan::Plan cold =
        cache.get_or_plan(key, [&] { return planner.plan(cfg); }, &hit);
    const double cold_s = seconds_since(t0);
    if (hit) ++cache_misbehaved;
    const Clock::time_point t1 = Clock::now();
    const plan::Plan warm =
        cache.get_or_plan(key, [&] { return planner.plan(cfg); }, &hit);
    const double warm_s = seconds_since(t1);
    if (!hit || plan_digest(warm) != plan_digest(cold)) ++cache_misbehaved;
    const Clock::time_point t2 = Clock::now();
    compare = runner.run(workloads);
    const double compare_s = seconds_since(t2);
    window.finish(report);

    const std::string prefix = traced ? "traced." : "";
    report.sample(prefix + "plan_s", cold_s);
    report.sample(prefix + "compare_s", compare_s);
    report.sample(prefix + "paper_ms", (cold_s + compare_s) * 1e3);
    report.sample("plan.cold_ms", cold_s * 1e3);
    report.sample("plan.warm_us", warm_s * 1e6);
    report.scalar("plan.configs_evaluated",
                  static_cast<double>(cold.configs_evaluated));
    if (first_digest.empty()) first_digest = plan_digest(cold);
    if (plan_digest(cold) != first_digest) ++plan_drift;
    report.ops(1);
    ++iteration;
  }
  report.op_failed(plan_drift + cache_misbehaved);
  report.check("plan_deterministic", plan_drift == 0,
               std::to_string(plan_drift) + " of " +
                   std::to_string(iteration) +
                   " cold plans differ from the first");
  report.check("plan_cache", cache_misbehaved == 0,
               std::to_string(cache_misbehaved) +
                   " cold lookups hit or warm lookups missed");

  // The deepcam row's per-layer cycles == CostModel::estimate x batch.
  const plan::CostModel cost(plan::extract_geometry(*model, input));
  const plan::CostEstimate est = cost.estimate(core::DeepCamConfig{});
  const sim::PlatformResult* row = nullptr;
  for (const sim::PlatformResult& r : compare.rows)
    if (r.backend == "deepcam") row = &r;
  Tier tier{"k1024", {}};
  const double batch = static_cast<double>(kCompareBatch);
  double abs_err = 0.0;
  const bool same = row != nullptr && row->layers.size() == est.layers.size();
  for (std::size_t i = 0; same && i < est.layers.size(); ++i) {
    const double sim_cycles = row->layers[i].cycles;
    const double est_cycles = static_cast<double>(est.layers[i].cycles) * batch;
    abs_err += std::abs(sim_cycles - est_cycles) / batch;
    LayerWork w;
    w.name = est.layers[i].name;
    w.macs = static_cast<std::uint64_t>(est.layers[i].patches) *
             est.layers[i].context_len * est.layers[i].hash_bits;
    w.searches = est.layers[i].plan.searches;
    w.rows = est.layers[i].plan.rows_written;
    w.dots = est.layers[i].plan.dot_products;
    w.sim_cycles = static_cast<std::uint64_t>(std::llround(sim_cycles / batch));
    w.est_cycles = est.layers[i].cycles;
    tier.layers.push_back(std::move(w));
  }
  report.add_scalar("plan.cycles_abs_err", abs_err);
  report.check("cost_model.k1024", same && abs_err == 0.0,
               "deepcam comparison row vs CostModel::estimate, per-layer "
               "|err| " +
                   std::to_string(abs_err) + " cycles/sample");
  report.tier(std::move(tier));
  if (row != nullptr) {
    report.scalar("sim_cycles_per_sample", row->cycles_per_inference());
    report.scalar("sim_energy_nj_per_sample",
                  row->energy_per_inference_j() * 1e9);
  }

  if (args.trace) {
    const Clock::time_point t0 = Clock::now();
    planner.guided_tune(cfg);
    report.sample("plan.accuracy_ms", seconds_since(t0) * 1e3);
    for (const auto& backend : *registry) {
      const Clock::time_point t = Clock::now();
      backend->simulate(*model, input, kCompareBatch);
      report.sample("sim." + backend->name() + ".ms", seconds_since(t) * 1e3);
    }
    const Clock::time_point t1 = Clock::now();
    const core::CompiledModel compiled(*model, core::DeepCamConfig{});
    report.sample("core.compile_s", seconds_since(t1));
    core::RunReport sample;
    core::Worker(compiled).run(make_inputs(input, 1, args.seed).front(),
                               &sample);
    bench_project_cols(sample, args.seed, report);
  }
  report.scalar("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
