// Golden-file regression tests for every report serializer: byte-exact
// comparison against checked-in goldens in tests/golden/, built from
// synthetic fixtures (hand-set fields, no simulation) so the bytes depend
// only on the serializers — not on optimization-level FP accumulation.
//
// The locale variants re-serialize under a comma-decimal locale (de_DE/fr_FR
// when installed, GTEST_SKIP otherwise): output must not change by a byte,
// proving the formatting is locale-proof.
//
// Regenerating after an intentional format change:
//   DEEPCAM_UPDATE_GOLDEN=1 ./build/test_golden_reports
#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/report_io.hpp"
#include "api/runner.hpp"
#include "api/spec_io.hpp"
#include "core/report_io.hpp"
#include "plan/report_io.hpp"
#include "serve/report_io.hpp"
#include "sim/report_io.hpp"

#ifndef DEEPCAM_GOLDEN_DIR
#error "DEEPCAM_GOLDEN_DIR must be defined by the build"
#endif
#ifndef DEEPCAM_SPEC_DIR
#error "DEEPCAM_SPEC_DIR must be defined by the build"
#endif

namespace deepcam {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DEEPCAM_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares `actual` against the checked-in golden; with
/// DEEPCAM_UPDATE_GOLDEN=1 rewrites the golden instead.
void expect_matches_golden(const std::string& actual,
                           const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("DEEPCAM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream probe(path);
  ASSERT_TRUE(probe.good())
      << "missing golden " << path
      << " (regenerate with DEEPCAM_UPDATE_GOLDEN=1)";
  EXPECT_EQ(actual, read_file(path)) << "serializer output drifted from "
                                     << name;
}

/// Switches LC_ALL to a comma-decimal locale for the test body; returns
/// false when none is installed. Restores the previous locale on scope exit.
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() : saved_(std::setlocale(LC_ALL, nullptr)) {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        active_ = true;
        break;
      }
    }
  }
  ~CommaLocaleGuard() { std::setlocale(LC_ALL, saved_.c_str()); }
  bool active() const { return active_; }

 private:
  std::string saved_;
  bool active_ = false;
};

/// Synthetic two-layer DeepCAM run report with hand-set fields.
core::RunReport make_run_report_fixture() {
  core::RunReport rep;
  core::LayerReport conv;
  conv.name = "conv1";
  conv.patches = 36;
  conv.kernels = 4;
  conv.context_len = 9;
  conv.hash_bits = 1024;
  conv.plan.passes = 1;
  conv.plan.searches = 4;
  conv.plan.rows_written = 36;
  conv.plan.utilization = 0.5625;
  conv.plan.dot_products = 144;
  conv.cycles = 1234;
  conv.cam_energy = 1.5e-9;
  conv.postproc_energy = 2.5e-10;
  conv.ctxgen_energy = 3.125e-11;
  rep.layers.push_back(conv);

  core::LayerReport fc;
  fc.name = "fc1";
  fc.patches = 1;
  fc.kernels = 5;
  fc.context_len = 144;
  fc.hash_bits = 512;
  fc.plan.passes = 1;
  fc.plan.searches = 5;
  fc.plan.rows_written = 1;
  fc.plan.utilization = 0.015625;
  fc.plan.dot_products = 5;
  fc.cycles = 68;
  fc.cam_energy = 4.75e-11;
  fc.postproc_energy = 8.0e-12;
  fc.ctxgen_energy = 0.0;
  rep.layers.push_back(fc);

  rep.peripheral_cycles = 77;
  rep.cam_area_um2 = 1792.0;
  return rep;
}

/// Synthetic three-row comparison report (one energy-unmodeled platform).
sim::ComparisonReport make_comparison_fixture() {
  sim::ComparisonReport report;

  sim::PlatformResult dc;
  dc.backend = "deepcam";
  dc.model = "lenet5";
  dc.batch = 2;
  dc.layers = {{"conv1", 172800, 4410.0, 4.375e-8},
               {"fc1", 61440, 2436.0, 4.1875e-9}};
  dc.extra_cycles = 154.0;
  dc.total_cycles = 7000.0;
  dc.total_energy_j = 4.79375e-8;
  dc.clock_hz = 300.0e6;
  dc.peak_efficiency = 0.7734375;
  report.rows.push_back(dc);

  sim::PlatformResult eye;
  eye.backend = "eyeriss";
  eye.model = "lenet5";
  eye.batch = 2;
  eye.layers = {{"conv1", 172800, 9002.0, 2.39330e-6},
                {"fc1", 61440, 15548.0, 3.3226e-6}};
  eye.total_cycles = 24550.0;
  eye.total_energy_j = 5.71590e-6;
  eye.clock_hz = 300.0e6;
  eye.peak_efficiency = 0.40625;
  report.rows.push_back(eye);

  sim::PlatformResult cpu;
  cpu.backend = "cpu-avx512";
  cpu.model = "lenet5";
  cpu.batch = 2;
  cpu.layers = {{"conv1", 172800, 69808.0, 0.0},
                {"fc1", 61440, 5504.0, 0.0}};
  cpu.total_cycles = 75312.0;
  cpu.total_energy_j = 0.0;
  cpu.energy_modeled = false;
  cpu.clock_hz = 3.2e9;
  cpu.peak_efficiency = 0.04296875;
  report.rows.push_back(cpu);

  return report;
}

/// Synthetic two-sample batch report: aggregate + per-sample all from
/// hand-set run-report fixtures (no simulation, no timing).
core::BatchReport make_batch_report_fixture() {
  core::BatchReport br;
  br.samples = 2;
  br.threads = 4;
  br.wall_seconds = 0.125;
  br.per_sample = {make_run_report_fixture(), make_run_report_fixture()};
  br.aggregate = make_run_report_fixture();
  // Hand-merged totals: every work/cost field doubled, geometry constant.
  for (auto& l : br.aggregate.layers) {
    l.patches *= 2;
    l.cycles *= 2;
    l.cam_energy *= 2.0;
    l.postproc_energy *= 2.0;
    l.ctxgen_energy *= 2.0;
    l.plan.passes *= 2;
    l.plan.searches *= 2;
    l.plan.rows_written *= 2;
    l.plan.dot_products *= 2;
  }
  br.aggregate.peripheral_cycles *= 2;
  return br;
}

/// Synthetic two-session server summary with hand-set fields.
serve::ServerSummary make_server_summary_fixture() {
  serve::ServerSummary s;
  s.elapsed_seconds = 2.5;
  s.workers = 4;
  s.queue_capacity = 256;
  s.max_queue_depth = 19;
  s.queue_depth_p50 = 3.0;
  s.queue_depth_p99 = 17.0;
  s.queue_depth_extract_p50 = 5.0;
  s.queue_depth_extract_p99 = 14.5;
  s.max_in_flight_batches = 4;
  s.unknown_session_rejected = 3;
  s.total_retries = 14;
  s.total_failovers = 9;
  s.total_hedges = 6;
  s.total_hedges_won = 2;
  s.total_hedges_wasted = 4;

  serve::SessionSummary lenet;
  lenet.name = "lenet5-k1024";
  lenet.accepted = 520;
  lenet.rejected = 24;
  lenet.shed = 9;
  lenet.completed = 520;
  lenet.errors = 2;
  lenet.expired = 5;
  lenet.downgraded = 0;
  lenet.batches = 80;
  lenet.mean_batch_size = 6.5;
  lenet.batch_size_p50 = 7.0;
  lenet.max_batch_size = 8;
  lenet.max_in_flight_batches = 3;
  lenet.latency_p50_ms = 4.25;
  lenet.latency_p95_ms = 9.5;
  lenet.latency_p99_ms = 12.75;
  lenet.latency_mean_ms = 5.0625;
  lenet.latency_max_ms = 15.5;
  lenet.queue_wait_p50_ms = 1.5;
  lenet.queue_wait_p99_ms = 6.25;
  lenet.throughput_rps = 208.0;
  s.sessions.push_back(lenet);

  serve::SessionSummary vgg;
  vgg.name = "vgg11-k256";
  vgg.accepted = 96;
  vgg.rejected = 0;
  vgg.shed = 0;
  vgg.completed = 96;
  vgg.errors = 0;
  vgg.expired = 0;
  vgg.downgraded = 12;
  vgg.batches = 32;
  vgg.mean_batch_size = 3.0;
  vgg.batch_size_p50 = 3.0;
  vgg.max_batch_size = 4;
  vgg.max_in_flight_batches = 2;
  vgg.latency_p50_ms = 31.25;
  vgg.latency_p95_ms = 55.5;
  vgg.latency_p99_ms = 60.125;
  vgg.latency_mean_ms = 33.5;
  vgg.latency_max_ms = 61.0;
  vgg.queue_wait_p50_ms = 2.0;
  vgg.queue_wait_p99_ms = 8.5;
  vgg.throughput_rps = 38.4;
  s.sessions.push_back(vgg);

  serve::ReplicaSummary r0;
  r0.session = "lenet5-k1024";
  r0.replica = 0;
  r0.health = "healthy";
  r0.batches = 61;
  r0.failures = 2;
  r0.transitions = 4;
  r0.canary_probes = 2;
  r0.quarantine_seconds = 0.125;
  r0.error_ewma = 0.0625;
  r0.latency_ewma_ms = 4.5;
  s.replicas.push_back(r0);

  serve::ReplicaSummary r1;
  r1.session = "lenet5-k1024";
  r1.replica = 1;
  r1.health = "quarantined";
  r1.batches = 19;
  r1.failures = 7;
  r1.transitions = 3;
  r1.canary_probes = 1;
  r1.quarantine_seconds = 0.5;
  r1.error_ewma = 0.875;
  r1.latency_ewma_ms = 6.25;
  s.replicas.push_back(r1);

  serve::ReplicaSummary rv;
  rv.session = "vgg11-k256";
  rv.replica = 0;
  rv.health = "degraded";
  rv.batches = 32;
  rv.failures = 1;
  rv.transitions = 1;
  rv.canary_probes = 0;
  rv.quarantine_seconds = 0.0;
  rv.error_ewma = 0.5625;
  rv.latency_ewma_ms = 33.25;
  s.replicas.push_back(rv);

  serve::SloClassSummary interactive;
  interactive.name = "interactive";
  interactive.accepted = 180;
  interactive.shed = 2;
  interactive.completed = 180;
  interactive.errors = 1;
  interactive.expired = 4;
  interactive.downgraded = 12;
  interactive.slo_met = 171;
  interactive.goodput_rps = 68.4;
  interactive.slack_p50_ms = 12.5;
  interactive.slack_p99_ms = 1.25;
  interactive.overrun_p50_ms = 3.5;
  interactive.overrun_max_ms = 9.75;
  s.classes.push_back(interactive);

  serve::SloClassSummary standard;
  standard.name = "standard";
  standard.accepted = 400;
  standard.shed = 3;
  standard.completed = 400;
  standard.errors = 1;
  standard.expired = 1;
  standard.downgraded = 0;
  standard.slo_met = 390;
  standard.goodput_rps = 156.0;
  standard.slack_p50_ms = 40.0;
  standard.slack_p99_ms = 6.5;
  standard.overrun_p50_ms = 1.0;
  standard.overrun_max_ms = 2.25;
  s.classes.push_back(standard);

  serve::SloClassSummary batch;
  batch.name = "batch";
  batch.accepted = 36;
  batch.shed = 4;
  batch.completed = 36;
  batch.errors = 0;
  batch.expired = 0;
  batch.downgraded = 0;
  batch.slo_met = 36;
  batch.goodput_rps = 14.4;
  batch.slack_p50_ms = 250.0;
  batch.slack_p99_ms = 75.0;
  s.classes.push_back(batch);
  return s;
}

/// Synthetic VHL tuning result (hand-set metrics, no simulation).
core::TuneResult make_tune_result_fixture() {
  core::TuneResult t;
  core::LayerSensitivity conv;
  conv.layer_name = "conv1";
  conv.context_len = 9;
  conv.metric = {0.5, 0.25, 0.125, 0.0625};
  conv.chosen_bits = 512;
  t.layers.push_back(conv);
  core::LayerSensitivity fc;
  fc.layer_name = "fc1";
  fc.context_len = 144;
  fc.metric = {0.75, 0.5, 0.375, 0.25};
  fc.chosen_bits = 1024;
  t.layers.push_back(fc);
  t.hash_bits = {512, 1024};
  return t;
}

/// Synthetic load-generator report (counters + a hand-fed latency
/// histogram; small-N percentiles are exact, so bytes are stable).
serve::LoadReport make_load_report_fixture() {
  serve::LoadReport load;
  load.sent = 94;
  load.rejected = 2;
  load.shed = 1;
  load.errors = 1;
  load.expired = 3;
  load.slo_met = 88;
  load.duration_seconds = 0.25;
  load.offered_rps = 400.0;
  load.achieved_rps = 376.0;
  load.goodput_rps = 352.0;
  for (const double s : {0.004, 0.0095, 0.01275, 0.0155, 0.002})
    load.latency.add(s);
  return load;
}

deepcam::Outcome make_offline_outcome_fixture() {
  return deepcam::Outcome{"golden-offline", deepcam::Mode::kOffline,
                          deepcam::OfflineOutcome{make_batch_report_fixture()}};
}

deepcam::Outcome make_compare_outcome_fixture() {
  sim::ComparisonReport report = make_comparison_fixture();
  report.vhl_tuning.push_back(make_tune_result_fixture());
  return deepcam::Outcome{"golden-compare", deepcam::Mode::kCompare,
                          deepcam::CompareOutcome{std::move(report)}};
}

deepcam::Outcome make_serve_outcome_fixture() {
  deepcam::ServeOutcome out;
  out.summary = make_server_summary_fixture();
  out.load = make_load_report_fixture();
  out.trace_events = 96;
  out.sessions = {"lenet5-k1024", "vgg11-k256"};
  return deepcam::Outcome{"golden-serve", deepcam::Mode::kServe,
                          std::move(out)};
}

deepcam::Outcome make_tune_outcome_fixture() {
  deepcam::TuneOutcome out;
  out.entries.push_back(
      deepcam::TuneOutcome::Entry{"lenet5", make_tune_result_fixture()});
  return deepcam::Outcome{"golden-tune", deepcam::Mode::kTune,
                          std::move(out)};
}

/// Synthetic plan (hand-set fields, dyadic fractions so the bytes are
/// format-stable) covering every field plan_json emits.
plan::Plan make_plan_fixture() {
  plan::Plan p;
  p.model_name = "lenet5";
  p.geometry_digest = 0x123456789abcdef0ULL;
  p.objective = plan::Objective::kCycles;
  p.batch = 8;
  p.cam_rows = 128;
  p.dataflow = core::Dataflow::kWeightStationary;
  p.micro_batch = 8;
  p.threads = 4;
  p.hash_bits = {256, 1024};
  p.floors.push_back(plan::LayerFloor{"conv1", 256, 0.125, 0.1171875});
  p.floors.push_back(plan::LayerFloor{"fc1", 1024, 0.5, 0.4375});

  core::LayerReport conv;
  conv.name = "conv1";
  conv.patches = 36;
  conv.kernels = 4;
  conv.context_len = 9;
  conv.hash_bits = 256;
  conv.plan.passes = 1;
  conv.plan.searches = 36;
  conv.plan.rows_written = 4;
  conv.plan.utilization = 0.03125;
  conv.plan.dot_products = 144;
  conv.cycles = 160;
  conv.cam_energy = 1.5e-9;
  conv.postproc_energy = 2.5e-10;
  conv.ctxgen_energy = 0.0;
  p.cost.layers.push_back(conv);

  core::LayerReport fc;
  fc.name = "fc1";
  fc.patches = 1;
  fc.kernels = 5;
  fc.context_len = 144;
  fc.hash_bits = 1024;
  fc.plan.passes = 1;
  fc.plan.searches = 1;
  fc.plan.rows_written = 5;
  fc.plan.utilization = 0.0390625;
  fc.plan.dot_products = 5;
  fc.cycles = 34;
  fc.cam_energy = 4.75e-11;
  fc.postproc_energy = 8.0e-12;
  fc.ctxgen_energy = 3.125e-11;
  p.cost.layers.push_back(fc);

  p.cost.peripheral_cycles = 77;
  p.cost.batch = 8;
  p.cost.micro_batch = 8;
  p.cost.threads = 4;
  p.objective_value = static_cast<double>(p.cost.makespan_cycles());
  p.configs_evaluated = 96;
  return p;
}

deepcam::Outcome make_plan_outcome_fixture() {
  deepcam::PlanOutcome out;
  deepcam::PlanOutcome::Entry entry;
  entry.workload = "lenet5";
  entry.plan = make_plan_fixture();
  entry.cache_hit = true;
  entry.validated = true;
  entry.measured_cycles = 2168.0;
  entry.cycle_rel_error = 0.0;
  out.entries.push_back(std::move(entry));
  out.cache = plan::PlanCacheStats{1, 1, 1};
  return deepcam::Outcome{"golden-plan", deepcam::Mode::kPlan,
                          std::move(out)};
}

TEST(GoldenReports, RunReportCsv) {
  expect_matches_golden(core::report_to_csv(make_run_report_fixture()),
                        "run_report.csv");
}

TEST(GoldenReports, RunReportSummary) {
  expect_matches_golden(core::report_summary(make_run_report_fixture()),
                        "run_report_summary.txt");
}

TEST(GoldenReports, ComparisonCsv) {
  expect_matches_golden(sim::comparison_to_csv(make_comparison_fixture()),
                        "comparison.csv");
}

TEST(GoldenReports, ComparisonLayersCsv) {
  expect_matches_golden(
      sim::comparison_layers_to_csv(make_comparison_fixture()),
      "comparison_layers.csv");
}

TEST(GoldenReports, ComparisonSummary) {
  expect_matches_golden(sim::comparison_summary(make_comparison_fixture()),
                        "comparison_summary.txt");
}

TEST(GoldenReports, BatchReportJson) {
  expect_matches_golden(
      core::batch_report_to_json(make_batch_report_fixture(),
                                 /*include_per_sample=*/true),
      "batch_report.json");
}

TEST(GoldenReports, ServerSummaryJson) {
  expect_matches_golden(
      serve::server_summary_to_json(make_server_summary_fixture()),
      "server_summary.json");
}

TEST(GoldenReports, ServerSummaryText) {
  expect_matches_golden(
      serve::server_summary_text(make_server_summary_fixture()),
      "server_summary.txt");
}

// --- facade outcome serializers (api/report_io) ---------------------------

TEST(GoldenReports, OutcomeOfflineJson) {
  expect_matches_golden(
      outcome_to_json(make_offline_outcome_fixture(), /*per_sample=*/true),
      "outcome_offline.json");
}

TEST(GoldenReports, OutcomeCompareJson) {
  expect_matches_golden(outcome_to_json(make_compare_outcome_fixture()),
                        "outcome_compare.json");
}

TEST(GoldenReports, OutcomeServeJson) {
  expect_matches_golden(outcome_to_json(make_serve_outcome_fixture()),
                        "outcome_serve.json");
}

TEST(GoldenReports, OutcomeTuneJson) {
  expect_matches_golden(outcome_to_json(make_tune_outcome_fixture()),
                        "outcome_tune.json");
}

TEST(GoldenReports, OutcomePlanJson) {
  expect_matches_golden(outcome_to_json(make_plan_outcome_fixture()),
                        "outcome_plan.json");
}

TEST(GoldenReports, OutcomePlanText) {
  expect_matches_golden(outcome_text(make_plan_outcome_fixture()),
                        "outcome_plan.txt");
}

TEST(GoldenReports, OutcomeOfflineText) {
  expect_matches_golden(outcome_text(make_offline_outcome_fixture()),
                        "outcome_offline.txt");
}

TEST(GoldenReports, OutcomeServeText) {
  expect_matches_golden(outcome_text(make_serve_outcome_fixture()),
                        "outcome_serve.txt");
}

// --- end-to-end trace golden ----------------------------------------------

TEST(GoldenReports, VirtualClockServeTraceIsByteIdenticalAndPinned) {
  // The observability acceptance bar: a pump-mode serve replay on the
  // VirtualClock (specs/serve_trace.json, chaos + retries included) must
  // export the same trace bytes on every run, on every machine — all span
  // timestamps come from the virtual clock and the export order is
  // canonical. Two live runs prove replay stability; the golden pins the
  // bytes across commits.
  Spec spec = spec_from_file(std::string(DEEPCAM_SPEC_DIR) +
                             "/serve_trace.json");
  ASSERT_TRUE(spec.serve.virtual_time);
  spec.outputs.text = false;
  const std::string trace1 = "serve_trace_run1.json";
  const std::string trace2 = "serve_trace_run2.json";
  const std::string prom1 = "serve_trace_run1.prom";
  const std::string prom2 = "serve_trace_run2.prom";
  spec.outputs.trace_path = trace1;
  spec.outputs.metrics_path = prom1;
  Runner().run(spec);
  spec.outputs.trace_path = trace2;
  spec.outputs.metrics_path = prom2;
  Runner().run(spec);

  const std::string t1 = read_file(trace1);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, read_file(trace2)) << "trace drifted between replays";
  EXPECT_EQ(read_file(prom1), read_file(prom2))
      << "metrics drifted between replays";
  expect_matches_golden(t1, "serve_trace_perfetto.json");
  expect_matches_golden(read_file(prom1), "serve_trace_metrics.prom");
  for (const std::string& p : {trace1, trace2, prom1, prom2})
    std::remove(p.c_str());
}

// --- spec canonical form ---------------------------------------------------

TEST(GoldenReports, QuickstartSpecCanonicalJson) {
  // Pins loader + emitter + the committed spec file together: if any of
  // the three drifts, the canonical form of specs/quickstart.json changes.
  expect_matches_golden(
      spec_to_json(
          spec_from_file(std::string(DEEPCAM_SPEC_DIR) + "/quickstart.json")),
      "spec_quickstart_canonical.json");
}

TEST(GoldenReports, OutputIsLocaleProof) {
  // Serialize everything once in the default locale, then again under a
  // comma-decimal locale: the bytes must be identical (and equal to the
  // goldens, which the tests above already pinned).
  const auto rep = make_run_report_fixture();
  const auto cmp = make_comparison_fixture();
  const auto batch = make_batch_report_fixture();
  const auto srv = make_server_summary_fixture();
  const auto serialize_everything = [&] {
    return core::report_to_csv(rep) + core::report_summary(rep) +
           sim::comparison_to_csv(cmp) + sim::comparison_layers_to_csv(cmp) +
           sim::comparison_summary(cmp) +
           core::batch_report_to_json(batch, true) +
           serve::server_summary_to_json(srv) +
           serve::server_summary_text(srv) +
           outcome_to_json(make_compare_outcome_fixture()) +
           outcome_to_json(make_serve_outcome_fixture()) +
           outcome_to_json(make_plan_outcome_fixture()) +
           outcome_text(make_serve_outcome_fixture()) +
           outcome_text(make_tune_outcome_fixture()) +
           outcome_text(make_plan_outcome_fixture()) +
           spec_to_json(spec_from_file(std::string(DEEPCAM_SPEC_DIR) +
                                       "/serve_demo.json"));
  };
  const std::string before = serialize_everything();

  CommaLocaleGuard guard;
  if (!guard.active())
    GTEST_SKIP() << "no comma-decimal locale installed";
  // Sanity: the locale really does use a comma decimal point for printf.
  char probe[16];
  std::snprintf(probe, sizeof probe, "%.1f", 0.5);
  ASSERT_STREQ(probe, "0,5") << "locale did not switch";

  const std::string after = serialize_everything();
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace deepcam
