#include "api/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "pim/comparators.hpp"
#include "serve/report_io.hpp"
#include "serve/server.hpp"
#include "sim/backends.hpp"
#include "sim/estimator_check.hpp"
#include "sim/registry.hpp"

namespace deepcam {

namespace {

// --- tracing --------------------------------------------------------------

/// TraceRecorder::NowFn adapter over a serve ClockSource: span timestamps
/// are the clock's time_since_epoch in nanoseconds, matching the stamps
/// the server reads for queue-wait reconstruction.
std::uint64_t clock_now_ns(const void* ctx) {
  const auto* clock = static_cast<const serve::ClockSource*>(ctx);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock->now().time_since_epoch())
          .count());
}

/// Arms the process-global TraceRecorder for one traced run (trace sink
/// and/or profiling requested); restores kOff + the default clock on
/// destruction so untraced runs stay zero-cost.
class TraceSession {
 public:
  TraceSession(const OutputOptions& out, const serve::ClockSource* clock)
      : enabled_(!out.trace_path.empty() || out.profile) {
    if (!enabled_) return;
    auto& rec = obs::TraceRecorder::instance();
    rec.set_level(obs::TraceLevel::kOff);
    if (clock != nullptr) rec.set_clock(&clock_now_ns, clock);
    rec.clear();
    rec.set_level(out.profile ? obs::TraceLevel::kFull
                              : obs::TraceLevel::kServe);
  }

  ~TraceSession() {
    if (!enabled_) return;
    auto& rec = obs::TraceRecorder::instance();
    rec.set_level(obs::TraceLevel::kOff);
    rec.set_clock(nullptr, nullptr);
    rec.clear();
  }

  /// Stops recording, writes the trace file when requested, and returns
  /// the per-stage aggregate when profiling (empty otherwise).
  std::vector<obs::StageStat> finish(const OutputOptions& out) {
    if (!enabled_) return {};
    auto& rec = obs::TraceRecorder::instance();
    rec.set_level(obs::TraceLevel::kOff);
    std::vector<obs::SpanRecord> spans = rec.collect();
    obs::canonicalize(spans);
    if (!out.trace_path.empty()) obs::write_trace_file(out.trace_path, spans);
    return out.profile ? obs::aggregate_stages(spans)
                       : std::vector<obs::StageStat>{};
  }

 private:
  bool enabled_;
};

core::TunerConfig tuner_config(const AcceleratorSpec& acc) {
  core::TunerConfig cfg;
  cfg.mode = core::TunerMode::kLayerLocal;
  cfg.max_rel_error = acc.vhl_max_rel_error;
  cfg.hash_seed = acc.hash_seed;
  return cfg;
}

core::TuneResult tune(const AcceleratorSpec& acc, nn::Model& model,
                      nn::Shape shape) {
  const auto probes =
      sim::make_probe_batch(shape, acc.vhl_probes, sim::kProbeSeed);
  return core::tune_hash_lengths(model, probes, tuner_config(acc));
}

/// The spec's accelerator config with VHL tuning applied when requested.
core::DeepCamConfig resolved_config(const AcceleratorSpec& acc,
                                    nn::Model& model, nn::Shape shape) {
  core::DeepCamConfig cfg = acc.config();
  if (acc.vhl) cfg.layer_hash_bits = tune(acc, model, shape).hash_bits;
  return cfg;
}

std::unique_ptr<sim::Backend> make_backend(const std::string& name,
                                           const Spec& spec) {
  if (name == "deepcam") {
    sim::DeepCamBackend::Options dc;
    dc.config = spec.accelerator.config();
    dc.threads = spec.accelerator.engine_threads;
    return std::make_unique<sim::DeepCamBackend>(dc);
  }
  if (name == "eyeriss") return std::make_unique<sim::EyerissBackend>();
  if (name == "cpu-avx512") return std::make_unique<sim::CpuBackend>();
  if (name == "pim-neurosim")
    return std::make_unique<sim::CrossbarBackend>(
        pim::neurosim_rram_config(), "pim-neurosim");
  if (name == "pim-valavi")
    return std::make_unique<sim::CrossbarBackend>(pim::valavi_sram_config(),
                                                  "pim-valavi");
  throw Error("unknown backend \"" + name + "\"");
}

/// Registry in default_registry() order, restricted to the spec's backend
/// selection (empty = all), with the deepcam row honoring the spec's
/// accelerator config. With a default accelerator spec this is exactly
/// sim::default_registry().
sim::BackendRegistry make_registry(const Spec& spec) {
  std::vector<std::string> names = spec.compare.backends;
  if (names.empty()) names = known_backend_names();
  sim::BackendRegistry registry;
  for (const std::string& name : names)
    registry.add(make_backend(name, spec));
  return registry;
}

Outcome run_offline(const Spec& spec) {
  const Workload& w = spec.workloads.front();
  const nn::Shape shape = w.input_shape();
  const auto model = build_model(w);
  const core::DeepCamConfig cfg =
      resolved_config(spec.accelerator, *model, shape);
  const auto compiled =
      std::make_shared<const core::CompiledModel>(*model, cfg);
  core::InferenceEngine engine(compiled, spec.accelerator.engine_threads);

  TraceSession tracing(spec.outputs, nullptr);
  OfflineOutcome out;
  engine.run_batch(
      sim::make_probe_batch(shape, spec.offline.batch, spec.offline.input_seed),
      &out.report);
  out.profile = tracing.finish(spec.outputs);
  return Outcome{spec.name, spec.mode, std::move(out)};
}

Outcome run_compare(const Spec& spec) {
  const sim::BackendRegistry registry = make_registry(spec);
  sim::ComparisonOptions opts;
  opts.include_vhl_deepcam = spec.compare.include_vhl;
  opts.vhl_probes = spec.accelerator.vhl_probes;
  opts.tuner = tuner_config(spec.accelerator);
  opts.deepcam_config = spec.accelerator.config();
  opts.deepcam_threads = spec.accelerator.engine_threads;
  const sim::ComparisonRunner runner(registry, opts);

  std::vector<sim::WorkloadSpec> workloads;
  workloads.reserve(spec.workloads.size());
  for (const Workload& w : spec.workloads)
    workloads.push_back(sim::WorkloadSpec{w.topology, w.seed, w.batch_sizes});

  CompareOutcome out;
  out.report = runner.run(workloads);
  return Outcome{spec.name, spec.mode, std::move(out)};
}

Outcome run_serve(const Spec& spec) {
  const ServeOptions& srv = spec.serve;
  serve::ServerConfig cfg;
  cfg.num_workers = srv.workers;
  cfg.queue_capacity = srv.queue_capacity;
  cfg.batch.max_batch_size = srv.max_batch;
  cfg.batch.max_queue_delay = std::chrono::microseconds(srv.max_delay_us);
  cfg.slo.deadline = {std::chrono::microseconds(srv.deadline_interactive_us),
                      std::chrono::microseconds(srv.deadline_standard_us),
                      std::chrono::microseconds(srv.deadline_batch_us)};
  // Watermarks above 1.0 mean "never shed"; the queue wants them in [0, 1].
  cfg.slo.admission.shed_depth_fraction = {
      std::min(srv.shed_interactive, 1.0), std::min(srv.shed_standard, 1.0),
      std::min(srv.shed_batch, 1.0)};
  cfg.slo.downgrade_fraction = srv.downgrade_fraction;
  // Fault tolerance: replica count, retry/hedge/breaker knobs, and the
  // scripted chaos events (all no-ops at their defaults).
  cfg.replicas = srv.replicas;
  if (srv.retry_limit.size() == serve::kNumSloClasses)
    for (std::size_t i = 0; i < serve::kNumSloClasses; ++i)
      cfg.router.retry_limit[i] = srv.retry_limit[i];
  cfg.router.retry_backoff = std::chrono::microseconds(srv.retry_backoff_us);
  cfg.router.retry_backoff_max =
      std::chrono::microseconds(srv.retry_backoff_max_us);
  cfg.router.hedge_interactive = srv.hedge;
  cfg.router.hedge_delay = std::chrono::microseconds(srv.hedge_delay_us);
  cfg.router.replica.breaker_failures = srv.breaker_failures;
  cfg.router.replica.canary_successes = srv.canary_successes;
  cfg.router.replica.quarantine_backoff =
      std::chrono::microseconds(srv.quarantine_backoff_us);
  for (const ChaosEventSpec& e : srv.chaos) {
    serve::FaultKind kind;
    DEEPCAM_CHECK_MSG(serve::fault_kind_from_string(e.kind, &kind),
                      "unknown chaos fault kind: " + e.kind);
    cfg.chaos.push_back(serve::FaultEvent{e.at, kind, e.replica, e.param});
  }
  // Deterministic mode: a VirtualClock plus manual dispatch makes the whole
  // run single-threaded (LoadGenerator::replay_deterministic pumps the
  // server inline), so an exported span trace is byte-identical across
  // replays.
  serve::VirtualClock vclock;
  if (srv.virtual_time) {
    cfg.clock = &vclock;
    cfg.manual_dispatch = true;
  }
  serve::Server server(cfg);
  TraceSession tracing(spec.outputs, cfg.clock);

  // Sessions: every workload at every hash tier, all compiled from one
  // hashing of its weights. The models must outlive the server.
  std::vector<std::unique_ptr<nn::Model>> models;
  std::vector<std::string> session_names;
  std::vector<nn::Shape> session_shapes;
  for (const Workload& w : spec.workloads) {
    models.push_back(build_model(w));
    core::DeepCamConfig dc = spec.accelerator.config();
    dc.layer_hash_bits.clear();  // tiers are homogeneous hash lengths
    const auto hashed = core::hash_weights(*models.back(), dc.hash_seed);
    std::string prev_session;
    for (const std::size_t k : srv.hash_tiers) {
      dc.default_hash_bits = k;
      auto compiled = std::make_shared<const core::CompiledModel>(
          *models.back(), hashed, dc);
      const std::string session =
          w.display_name() + "-k" + std::to_string(k);
      server.sessions().add_session(session, std::move(compiled),
                                    spec.accelerator.engine_threads);
      // Consecutive tiers chain as k-fallbacks (the quality dial): under
      // pressure, requests for a tier reroute to the next one declared —
      // list tiers high-k first so the fallback is the cheaper search.
      if (!prev_session.empty())
        server.sessions().set_fallback(prev_session, session);
      prev_session = session;
      session_names.push_back(session);
      session_shapes.push_back(w.input_shape());
    }
  }
  server.start();

  serve::TraceConfig tc;
  tc.requests = srv.requests;
  tc.rate_rps = srv.rate_rps;
  tc.sessions = session_names;
  tc.seed = srv.trace_seed;
  if (srv.class_mix.size() == serve::kNumSloClasses)
    for (std::size_t i = 0; i < serve::kNumSloClasses; ++i)
      tc.class_weights[i] = srv.class_mix[i];
  serve::ReplayOptions opts;
  if (srv.trace == "bursty") {
    tc.arrivals = serve::ArrivalProcess::kBursty;
    tc.burst_rate_rps = 4.0 * srv.rate_rps;
    tc.rate_rps = 0.25 * srv.rate_rps;
  } else if (srv.trace == "diurnal") {
    tc.arrivals = serve::ArrivalProcess::kDiurnal;
    tc.period_seconds = 0.5;
    tc.diurnal_amplitude = 0.8;
  } else if (srv.trace == "flash") {
    // Flash crowd: a 4x spike one tenth of the way into the nominal span.
    tc.arrivals = serve::ArrivalProcess::kFlash;
    tc.flash_rate_rps = 4.0 * srv.rate_rps;
    const double span =
        static_cast<double>(srv.requests) / srv.rate_rps;
    tc.flash_start_seconds = 0.1 * span;
    tc.flash_duration_seconds = 0.25 * span;
  } else if (srv.trace == "closed") {
    opts.mode = serve::ReplayOptions::Mode::kClosedLoop;
    opts.closed_loop_clients = srv.clients;
  }
  const serve::Trace trace = serve::make_trace(tc);

  serve::LoadGenerator loadgen(server, session_shapes);
  ServeOutcome out;
  if (srv.virtual_time) {
    out.load = loadgen.replay_deterministic(trace, vclock);
  } else {
    out.load = loadgen.replay(trace, opts);
    server.drain();
  }
  server.stop();
  out.summary = server.summary();
  out.trace_events = trace.events.size();
  out.sessions = std::move(session_names);
  out.profile = tracing.finish(spec.outputs);
  if (!spec.outputs.metrics_path.empty()) {
    obs::MetricsRegistry registry;
    serve::register_prometheus_collector(registry, server);
    obs::write_metrics_file(spec.outputs.metrics_path, registry.expose());
  }
  return Outcome{spec.name, spec.mode, std::move(out)};
}

/// PlannerConfig realizing the spec: objective/batch/search axes from the
/// plan section, accuracy budget and baseline hardware from the accelerator
/// section. A pinned engine_threads collapses the thread axis to it.
plan::PlannerConfig planner_config(const Spec& spec) {
  plan::PlannerConfig cfg;
  cfg.objective = plan::objective_from_name(spec.plan.objective);
  cfg.batch = spec.plan.batch;
  if (!spec.plan.search_rows) cfg.row_candidates = {spec.accelerator.cam_rows};
  cfg.search_dataflow = spec.plan.search_dataflow;
  if (spec.accelerator.engine_threads != 0)
    cfg.thread_candidates = {spec.accelerator.engine_threads};
  cfg.max_rel_error = spec.accelerator.vhl_max_rel_error;
  cfg.probes = spec.plan.probes;
  cfg.base = spec.accelerator.config();
  return cfg;
}

Outcome run_tune(const Spec& spec) {
  TuneOutcome out;
  for (const Workload& w : spec.workloads) {
    const auto model = build_model(w);
    core::TuneResult result;
    if (spec.plan.validate) {
      // Ground truth: the empirical per-layer sweep over every probe patch.
      result = tune(spec.accelerator, *model, w.input_shape());
    } else {
      // Model-guided: hash once at 1024 bits, calibrate at k = 256 on
      // sampled patches, extrapolate err ∝ 1/sqrt(k), verify the choice.
      plan::PlannerConfig cfg = planner_config(spec);
      cfg.probes = spec.accelerator.vhl_probes;
      result = plan::Planner(*model, w.input_shape()).guided_tune(cfg);
    }
    out.entries.push_back(
        TuneOutcome::Entry{w.display_name(), std::move(result)});
  }
  return Outcome{spec.name, spec.mode, std::move(out)};
}

Outcome run_plan(const Spec& spec) {
  PlanOutcome out;
  for (const Workload& w : spec.workloads) {
    const auto model = build_model(w);
    const nn::Shape shape = w.input_shape();
    const plan::PlannerConfig cfg = planner_config(spec);
    const plan::Planner planner(*model, shape);
    const std::string key =
        plan::plan_cache_key(planner.cost_model().geometry().digest(), cfg);
    PlanOutcome::Entry entry;
    entry.workload = w.display_name();
    entry.plan = plan::PlanCache::global().get_or_plan(
        key, [&] { return planner.plan(cfg); }, &entry.cache_hit);
    if (spec.plan.validate) {
      // Cross-check the analytical estimate against the sim backend under
      // the planned configuration (the --validate fallback to measured runs).
      const sim::EstimatorCheck chk = sim::check_estimator(
          *model, shape, entry.plan.config(cfg.base), spec.plan.batch);
      entry.validated = true;
      entry.measured_cycles = chk.measured_cycles;
      entry.cycle_rel_error = chk.cycle_rel_error;
    }
    out.entries.push_back(std::move(entry));
  }
  out.cache = plan::PlanCache::global().stats();
  return Outcome{spec.name, spec.mode, std::move(out)};
}

template <typename T>
const T& get_alternative(
    const std::variant<OfflineOutcome, CompareOutcome, ServeOutcome,
                       TuneOutcome, PlanOutcome>& result,
    Mode mode, const char* wanted) {
  DEEPCAM_CHECK_MSG(std::holds_alternative<T>(result),
                    std::string("outcome of a ") + mode_name(mode) +
                        " run has no " + wanted + " result");
  return std::get<T>(result);
}

}  // namespace

const OfflineOutcome& Outcome::offline() const {
  return get_alternative<OfflineOutcome>(result, mode, "offline");
}
const CompareOutcome& Outcome::compare() const {
  return get_alternative<CompareOutcome>(result, mode, "compare");
}
const ServeOutcome& Outcome::serve() const {
  return get_alternative<ServeOutcome>(result, mode, "serve");
}
const TuneOutcome& Outcome::tune() const {
  return get_alternative<TuneOutcome>(result, mode, "tune");
}
const PlanOutcome& Outcome::plan() const {
  return get_alternative<PlanOutcome>(result, mode, "plan");
}

bool verify_deepcam_rows(const Spec& spec, const CompareOutcome& outcome) {
  bool ok = !outcome.report.rows.empty();
  for (const Workload& w : spec.workloads) {
    const auto model = build_model(w);
    const nn::Shape shape = w.input_shape();
    const auto compiled = std::make_shared<const core::CompiledModel>(
        *model, spec.accelerator.config());
    core::InferenceEngine engine(compiled, spec.accelerator.engine_threads);
    for (const std::size_t batch : w.batch_sizes) {
      const sim::PlatformResult* row = nullptr;
      for (const auto& r : outcome.report.rows)
        if (r.backend == "deepcam" && r.model == model->name() &&
            r.batch == batch)
          row = &r;
      if (row == nullptr) continue;  // deepcam not in the sweep
      core::BatchReport br;
      engine.run_batch(sim::make_probe_batch(shape, batch), &br);
      const bool match =
          row->total_cycles ==
              static_cast<double>(br.aggregate.total_cycles()) &&
          row->total_energy_j == br.aggregate.total_energy();
      std::printf("bitwise check (%s batch %zu): facade %.0f cycles vs "
                  "engine %zu cycles -> %s\n",
                  w.display_name().c_str(), batch, row->total_cycles,
                  br.aggregate.total_cycles(), match ? "OK" : "MISMATCH");
      ok = ok && match;
    }
  }
  return ok;
}

Outcome Runner::run(const Spec& spec) const {
  spec.validate();
  switch (spec.mode) {
    case Mode::kOffline: return run_offline(spec);
    case Mode::kCompare: return run_compare(spec);
    case Mode::kServe: return run_serve(spec);
    case Mode::kTune: return run_tune(spec);
    case Mode::kPlan: return run_plan(spec);
  }
  throw Error("unreachable spec mode");
}

}  // namespace deepcam
