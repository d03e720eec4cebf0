// Plan-search bench: model-guided planning vs the empirical VHL tune sweep.
//
// Three timed phases on LeNet-5 (the topology specs/fig5_tune.json tunes):
//
//  1. empirical — core::tune_hash_lengths, the pre-planner `tune` path:
//     every candidate hash length evaluated on every patch of every probe.
//  2. cold plan — plan::Planner::plan from scratch: the guided accuracy
//     pass (subsampled patches, one 1024-bit hash pass, 1/sqrt(k)
//     extrapolation) plus the analytical cost search over
//     (rows x dataflow x micro-batch x threads).
//  3. warm plan — the same spec answered by the PlanCache (the production
//     `deepcam plan` steady state).
//
// Quality gates (--check, CI exits nonzero on violation):
//   * warm plan >= 10x faster than one empirical tune sweep;
//   * cold plan strictly faster than the empirical sweep;
//   * every planner-chosen hash length meets the accuracy budget on its
//     measured relative error (or is maxed at 1024 bits);
//   * the planned configuration's makespan <= the fixed 1024-bit default
//     configuration under the same batch (planner quality >= baseline);
//   * the cost model validates against the sim backend: batch cycles exact,
//     batch energy equal up to summation order (relative error <= 1e-12).
//
// --json PATH writes the artifact (BENCH_pr10.json in CI); --quick shrinks
// the repeat counts for smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "core/hash_tuner.hpp"
#include "nn/topologies.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "plan/report_io.hpp"
#include "sim/backend.hpp"
#include "sim/estimator_check.hpp"

using namespace deepcam;

namespace {

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Best-of-N wall time of `fn` in microseconds (min beats mean for
/// rejecting scheduler noise on CI runners).
template <typename Fn>
double best_of_us(std::size_t repeats, Fn&& fn) {
  double best = 1e300;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, check = false;
  std::string json_path;
  cli::Flags flags("plan_search",
                   "model-guided planning vs the empirical VHL tune sweep");
  flags.flag("quick", &quick, "shrink repeat counts for CI smoke runs")
      .flag("check", &check, "gate speedup + quality; nonzero exit on fail")
      .option("json", &json_path, "write the JSON artifact here");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "plan_search: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }

  const std::size_t repeats = quick ? 3 : 10;
  const double kBudget = 0.5;  // fig5_tune.json's accuracy budget
  const auto model = nn::make_model("lenet5", 1);
  const nn::Shape input = nn::input_spec_for("lenet5").shape();

  // Phase 1: the empirical sweep exactly as the pre-planner tune mode ran
  // it (4 probes, every patch, every candidate hash length).
  core::TunerConfig tuner;
  tuner.max_rel_error = kBudget;
  const auto probes = sim::make_probe_batch(input, 4, sim::kProbeSeed);
  core::TuneResult empirical;
  const double empirical_us = best_of_us(repeats, [&] {
    empirical = core::tune_hash_lengths(*model, probes, tuner);
  });

  // Phase 2: cold model-guided planning (construction + accuracy pass +
  // cost search), the `deepcam plan` cold path.
  plan::PlannerConfig cfg;
  cfg.batch = 8;
  cfg.max_rel_error = kBudget;
  plan::Plan cold_plan;
  const double cold_us = best_of_us(repeats, [&] {
    cold_plan = plan::Planner(*model, input).plan(cfg);
  });

  // Phase 3: warm cache lookups on a primed cache.
  const plan::Planner planner(*model, input);
  const std::string key =
      plan::plan_cache_key(planner.cost_model().geometry().digest(), cfg);
  plan::PlanCache cache;
  cache.get_or_plan(key, [&] { return planner.plan(cfg); });
  bool warm_hit = false;
  plan::Plan warm_plan;
  const double warm_us = best_of_us(repeats, [&] {
    warm_plan = cache.get_or_plan(key, [&] { return planner.plan(cfg); },
                                  &warm_hit);
  });

  const double cold_speedup = empirical_us / cold_us;
  const double warm_speedup = empirical_us / warm_us;

  // Quality: accuracy budget, baseline comparison, sim validation.
  bool within_budget = !cold_plan.floors.empty();
  for (const plan::LayerFloor& f : cold_plan.floors)
    within_budget = within_budget &&
                    (f.measured_rel_error <= kBudget || f.hash_bits == 1024);

  const core::DeepCamConfig fixed1024;  // default: homogeneous 1024 bits
  const plan::CostEstimate baseline =
      planner.cost_model().estimate(fixed1024, cfg.batch);
  const bool beats_baseline =
      cold_plan.cost.makespan_cycles() <= baseline.makespan_cycles();

  const sim::EstimatorCheck validation = sim::check_estimator(
      *model, input, cold_plan.config(fixed1024), cfg.batch);
  // Cycles are integers priced by the engine's own pricing function: exact.
  // The sim backend sums b per-sample energies where the estimate multiplies
  // one by b, so energy may differ by rounding only.
  const bool validated = validation.cycle_rel_error == 0.0 &&
                         validation.energy_rel_error <= 1e-12;

  std::printf("plan_search (lenet5, budget %.2f, batch %zu, best of %zu)\n",
              kBudget, cfg.batch, repeats);
  std::printf("  empirical tune sweep : %10.1f us  (mean k %.0f)\n",
              empirical_us, empirical.mean_hash_bits());
  std::printf("  cold plan            : %10.1f us  (%.1fx, %zu configs)\n",
              cold_us, cold_speedup, cold_plan.configs_evaluated);
  std::printf("  warm plan (cache)    : %10.1f us  (%.1fx, hit=%d)\n",
              warm_us, warm_speedup, warm_hit ? 1 : 0);
  std::printf("  planned makespan %zu cycles vs fixed-1024 %zu -> %s\n",
              cold_plan.cost.makespan_cycles(), baseline.makespan_cycles(),
              beats_baseline ? "OK" : "WORSE");
  std::printf("  accuracy within budget: %s; sim validation rel err %.4f\n",
              within_budget ? "yes" : "NO", validation.cycle_rel_error);
  std::printf("%s", plan::plan_summary(cold_plan).c_str());

  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.kv("bench", "plan_search");
    json.kv("deepcam_build_type", build_type());
    json.kv("deepcam_codelet_isa", codelet::isa_name(codelet::active_isa()));
    json.kv("model", "lenet5");
    json.kv("accuracy_budget", kBudget);
    json.kv("batch", cfg.batch);
    json.kv("repeats", repeats);
    json.kv("quick", quick);
    json.kv("empirical_tune_us", empirical_us);
    json.kv("cold_plan_us", cold_us);
    json.kv("warm_plan_us", warm_us);
    json.kv("cold_speedup", cold_speedup);
    json.kv("warm_speedup", warm_speedup);
    json.kv("warm_cache_hit", warm_hit);
    json.kv("within_budget", within_budget);
    json.kv("beats_fixed_1024", beats_baseline);
    json.kv("baseline_makespan_cycles", baseline.makespan_cycles());
    json.key("validation").begin_object();
    json.kv("measured_cycles", validation.measured_cycles);
    json.kv("estimated_cycles", validation.estimated_cycles);
    json.kv("cycle_rel_error", validation.cycle_rel_error);
    json.kv("energy_rel_error", validation.energy_rel_error);
    json.end_object();
    json.key("plan");
    plan::plan_json(json, cold_plan);
    json.end_object();
    std::ofstream out(json_path, std::ios::binary);
    out << json.str() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "plan_search: failed to write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (check) {
    bool ok = true;
    if (warm_speedup < 10.0) {
      std::fprintf(stderr, "FAIL: warm plan only %.1fx faster than the "
                   "empirical sweep (need >= 10x)\n", warm_speedup);
      ok = false;
    }
    if (cold_us >= empirical_us) {
      std::fprintf(stderr, "FAIL: cold plan (%.1f us) not faster than the "
                   "empirical sweep (%.1f us)\n", cold_us, empirical_us);
      ok = false;
    }
    if (!warm_hit) {
      std::fprintf(stderr, "FAIL: warm run missed the plan cache\n");
      ok = false;
    }
    if (!within_budget) {
      std::fprintf(stderr, "FAIL: a planned hash length violates the "
                   "accuracy budget\n");
      ok = false;
    }
    if (!beats_baseline) {
      std::fprintf(stderr, "FAIL: planned config slower than fixed-1024\n");
      ok = false;
    }
    if (!validated) {
      std::fprintf(stderr, "FAIL: cost model off by %.3g (cycles) / %.3g "
                   "(energy) vs the sim backend\n",
                   validation.cycle_rel_error, validation.energy_rel_error);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("plan_search --check: all gates passed\n");
  }
  return 0;
}
