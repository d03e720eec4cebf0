// deepcam::Spec — the declarative run description behind the public facade.
//
// Every experiment this repo can run (paper Tables I/II, Figs. 2/5/8–10,
// the serving demos, ad-hoc what-ifs) is described by one Spec:
//
//   workloads   — named topologies (nn/topologies) or inline layer lists
//   accelerator — CAM geometry, dataflow, hash lengths, VHL tuning
//   mode        — offline | compare | serve | tune, with per-mode options
//   outputs     — json / csv / text sinks
//
// A Spec comes from the fluent SpecBuilder (C++ callers) or from a JSON
// file via api/spec_io (the `deepcam` CLI); either way Runner::run(spec)
// executes it and returns one typed Outcome. The facade adds no semantics
// of its own: running a spec is bitwise-identical to hand-assembling the
// same InferenceEngine / ComparisonRunner / Server pipeline, which
// tests/test_api.cpp pins.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "nn/model.hpp"

namespace deepcam {

/// What Runner::run does with the spec. kOffline runs one probe batch
/// through the InferenceEngine; kCompare sweeps the sim backends; kServe
/// replays a load trace against an online Server; kTune runs the hash-length
/// tuner and reports the per-layer choice without executing a workload;
/// kPlan runs the analytical planner (src/plan) over the joint configuration
/// space and reports the chosen Plan plus cache statistics.
enum class Mode { kOffline, kCompare, kServe, kTune, kPlan };

/// Stable spelling used by spec JSON and the CLI ("offline", "compare",
/// "serve", "tune", "plan").
const char* mode_name(Mode mode);
/// Inverse of mode_name; Error on unknown spelling. The CLI's "run"
/// subcommand is accepted as an alias for "offline".
Mode mode_from_name(const std::string& name);

/// Most threads one spec may start: each of accelerator.engine_threads,
/// serve.workers and serve.replicas, and a serve run's total (workers plus
/// one engine pool per session replica), must stay within it.
inline constexpr std::size_t kMaxSpecThreads = 1024;

/// Registry keys compare mode accepts, in sim::default_registry() order —
/// the single list both Spec::validate() and the Runner's registry
/// construction consult.
const std::vector<std::string>& known_backend_names();

/// One layer of an inline workload. `kind` selects which of the parameter
/// fields matter: conv2d uses in_channels/out_channels/kernel/stride/pad,
/// linear uses in_features/out_features, maxpool/avgpool use window/stride,
/// relu/flatten/softmax take no parameters.
struct LayerSpec {
  std::string kind;  // conv2d|linear|relu|maxpool|avgpool|flatten|softmax
  std::string name;  // optional; defaults to "<kind><index>"
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  std::size_t window = 2;
};

/// One CNN workload: a named topology (lenet5/vgg11/vgg16/resnet18) or an
/// inline layer list with explicit input geometry. Weight layers of inline
/// workloads are seeded `seed + layer_index`, so the model is a pure
/// function of the workload description.
struct Workload {
  std::string topology;           // empty => inline `layers`
  std::string name = "custom";    // model name for inline workloads
  std::vector<LayerSpec> layers;  // inline definition
  std::size_t channels = 1;       // inline input geometry
  std::size_t height = 28;
  std::size_t width = 28;
  std::uint64_t seed = 1;
  /// Batch sizes the compare sweep runs (other modes ignore this and use
  /// their own batch knobs).
  std::vector<std::size_t> batch_sizes = {1};

  bool is_inline() const { return topology.empty(); }
  /// Topology name, or the inline model name.
  const std::string& display_name() const {
    return is_inline() ? name : topology;
  }
  /// The {1,C,H,W} input shape this workload expects.
  nn::Shape input_shape() const;
};

/// Instantiates the workload's nn::Model (topology builder or inline layer
/// list). Deterministic in the workload description.
std::unique_ptr<nn::Model> build_model(const Workload& workload);

/// DeepCAM accelerator configuration plus the optional VHL tuning step
/// that chooses per-layer hash lengths before running.
struct AcceleratorSpec {
  std::size_t cam_rows = 64;
  core::Dataflow dataflow = core::Dataflow::kActivationStationary;
  core::CyclePreset preset = core::CyclePreset::kConservative;
  /// Homogeneous hash length k (bits); overridden per layer by
  /// layer_hash_bits or by VHL tuning.
  std::size_t hash_bits = hash::kMaxHashBits;
  std::vector<std::size_t> layer_hash_bits;
  std::uint64_t hash_seed = 42;
  /// Engine pool size (simulated CAM pipelines); 0 = hardware concurrency.
  /// Affects host speed only, never results.
  std::size_t engine_threads = 0;
  /// Run the HashTuner (kLayerLocal) on probe inputs first and execute
  /// with its per-layer hash lengths (paper §III-A VHL).
  bool vhl = false;
  double vhl_max_rel_error = 0.25;
  std::size_t vhl_probes = 4;

  /// The core config this spec denotes (VHL not applied — the Runner
  /// overwrites layer_hash_bits with the tuner's choice when vhl is set).
  core::DeepCamConfig config() const;
};

/// kOffline: one probe batch through the InferenceEngine.
struct OfflineOptions {
  std::size_t batch = 8;
  /// Probe-input seed (sim::make_probe_batch); defaults to the shared
  /// kProbeSeed so offline runs cost the same inputs as the compare
  /// backends.
  std::uint64_t input_seed = 0xD15C0;
};

/// kCompare: which registry backends to sweep (empty = all five) and
/// whether to add the VHL-tuned "deepcam-vhl" variant.
struct CompareOptions {
  std::vector<std::string> backends;
  bool include_vhl = false;
};

/// One scripted fault in a serve spec's chaos list (serve/chaos.hpp).
/// `kind` is "crash" | "heal" | "stall" | "poison" | "slow"; `at` is the
/// event time in seconds from server start; `param` is seconds (stall,
/// slow) or a batch count (poison).
struct ChaosEventSpec {
  double at = 0.0;
  std::string kind = "crash";
  std::size_t replica = 0;
  double param = 0.0;
};

/// kServe: sessions = every workload compiled at every hash tier, behind
/// one Server; a seeded trace is replayed against it. The SLO knobs
/// default to a plain FIFO server (no deadlines / shedding / downgrades)
/// so pre-SLO specs behave unchanged.
struct ServeOptions {
  /// Hash lengths to host each workload at ("<model>-k<bits>" sessions).
  std::vector<std::size_t> hash_tiers = {1024, 256};
  std::size_t workers = 4;
  std::size_t queue_capacity = 512;
  std::size_t max_batch = 8;
  long max_delay_us = 2000;
  std::string trace = "poisson";  // poisson|bursty|diurnal|flash|closed
  std::size_t requests = 96;
  double rate_rps = 400.0;        // open-loop offered load
  std::size_t clients = 8;        // closed-loop concurrency
  std::uint64_t trace_seed = 1;

  // --- SLO tier ----------------------------------------------------------
  /// Per-class completion deadlines in microseconds; 0 = no deadline.
  long deadline_interactive_us = 0;
  long deadline_standard_us = 0;
  long deadline_batch_us = 0;
  /// Per-class shed watermarks as queue-depth fractions; >= 1.0 = never
  /// shed that class.
  double shed_interactive = 1.0;
  double shed_standard = 1.0;
  double shed_batch = 1.0;
  /// Queue-depth fraction above which admissions reroute to the next
  /// lower hash tier; >= 1.0 = never downgrade.
  double downgrade_fraction = 1.0;
  /// Relative SLO-class sampling weights {interactive, standard, batch}
  /// of the generated trace.
  std::vector<double> class_mix = {0.0, 1.0, 0.0};

  // --- fault tolerance ---------------------------------------------------
  /// Engine replicas per session; 1 = the pre-replica single-engine tier.
  std::size_t replicas = 1;
  /// Per-class retry budgets {interactive, standard, batch}: how often a
  /// failed rider is re-queued onto surviving replicas.
  std::vector<std::size_t> retry_limit = {1, 2, 3};
  /// Exponential retry backoff base / cap, microseconds.
  long retry_backoff_us = 200;
  long retry_backoff_max_us = 50000;
  /// Hedge interactive micro-batches onto a second replica.
  bool hedge = false;
  /// Fixed hedge delay in microseconds; 0 = p99-derived.
  long hedge_delay_us = 0;
  /// Circuit breaker: consecutive failures before quarantine.
  std::size_t breaker_failures = 3;
  /// Clean canary probes required to readmit a recovering replica.
  std::size_t canary_successes = 2;
  /// Quarantine time before canary probing starts, microseconds.
  long quarantine_backoff_us = 20000;
  /// Scripted faults injected while the trace replays.
  std::vector<ChaosEventSpec> chaos;

  // --- determinism -------------------------------------------------------
  /// Replay on a VirtualClock in manual-dispatch (pump) mode: the whole
  /// serve run is single-threaded and replay-identical, so an exported
  /// trace is byte-identical across runs (the golden-pinnable profile).
  /// `workers` is ignored (there are no worker threads to spawn).
  bool virtual_time = false;
};

/// kPlan (and model-guided kTune): planner search bounds. The accuracy
/// budget and probe seed ride on the accelerator's VHL knobs
/// (vhl_max_rel_error, hash_seed) so plan and tune agree on constraints.
struct PlanOptions {
  std::string objective = "cycles";  // cycles|energy|edp
  /// Batch size the schedule axes (micro-batch, threads) are planned for.
  std::size_t batch = 8;
  /// Search CAM row counts {64,128,256,512} (false = keep accelerator
  /// cam_rows fixed).
  bool search_rows = true;
  /// Consider both dataflows (false = keep the accelerator's).
  bool search_dataflow = true;
  /// Sensitivity probes for the per-layer accuracy floors; 0 skips the
  /// accuracy pass (every layer gets accelerator.hash_bits).
  std::size_t probes = 2;
  /// Fall back to measured runs: tune mode reverts to the empirical
  /// HashTuner sweep, plan mode additionally cross-checks the winning
  /// plan's cycle estimate against the DeepCAM sim backend.
  bool validate = false;
};

/// Where Runner results go when the CLI (or a caller honoring the spec)
/// serializes the Outcome.
struct OutputOptions {
  std::string json_path;    // "" = no JSON file; "-" = stdout
  bool text = true;         // human-readable summary to stdout
  bool csv = false;         // CSV dumps to stdout (offline/compare)
  bool per_sample = false;  // include per-sample reports in offline JSON
  /// Span-trace sink (offline/serve): ".csv" writes the compact CSV form,
  /// anything else Chrome trace-event JSON (load into Perfetto). "" = off.
  std::string trace_path;
  /// Prometheus text-exposition sink (serve only); "" = off.
  std::string metrics_path;
  /// Record kernel-stage spans (TraceLevel::kFull) and attach a per-stage
  /// aggregate table to the outcome (offline/serve).
  bool profile = false;
};

struct Spec {
  std::string name = "unnamed";
  Mode mode = Mode::kOffline;
  std::vector<Workload> workloads;
  AcceleratorSpec accelerator;
  OfflineOptions offline;
  CompareOptions compare;
  ServeOptions serve;
  PlanOptions plan;
  OutputOptions outputs;

  /// Full structural validation (modes × workloads × parameter ranges);
  /// throws Error with a actionable message on the first violation.
  /// Runner::run validates before executing.
  void validate() const;
};

/// Fluent Spec construction for C++ callers (the JSON loader in api/spec_io
/// is the other door to the same struct):
///
///   Spec spec = SpecBuilder("quickstart")
///                   .mode(Mode::kOffline)
///                   .workload("lenet5", /*seed=*/7)
///                   .hash_bits(256)
///                   .offline_batch(32)
///                   .build();
///
/// Workload-scoped calls (batch_sizes, layer appenders) apply to the most
/// recently added workload.
class SpecBuilder {
 public:
  explicit SpecBuilder(std::string name = "unnamed");

  SpecBuilder& mode(Mode m);

  // --- workloads ---------------------------------------------------------
  SpecBuilder& workload(std::string topology, std::uint64_t seed = 1);
  SpecBuilder& custom_workload(std::string model_name, std::size_t channels,
                               std::size_t height, std::size_t width,
                               std::uint64_t seed = 1);
  SpecBuilder& batch_sizes(std::vector<std::size_t> sizes);
  /// Inline layer appenders (require a preceding custom_workload).
  SpecBuilder& conv2d(std::string layer_name, std::size_t in_channels,
                      std::size_t out_channels, std::size_t kernel,
                      std::size_t stride = 1, std::size_t pad = 0);
  SpecBuilder& linear(std::string layer_name, std::size_t in_features,
                      std::size_t out_features);
  SpecBuilder& relu(std::string layer_name = "");
  SpecBuilder& maxpool(std::size_t window, std::size_t stride);
  SpecBuilder& avgpool(std::size_t window, std::size_t stride);
  SpecBuilder& flatten(std::string layer_name = "");
  SpecBuilder& softmax(std::string layer_name = "");

  // --- accelerator -------------------------------------------------------
  SpecBuilder& cam_rows(std::size_t rows);
  SpecBuilder& dataflow(core::Dataflow df);
  SpecBuilder& preset(core::CyclePreset p);
  SpecBuilder& hash_bits(std::size_t bits);
  SpecBuilder& layer_hash_bits(std::vector<std::size_t> bits);
  SpecBuilder& hash_seed(std::uint64_t seed);
  SpecBuilder& engine_threads(std::size_t threads);
  SpecBuilder& vhl(double max_rel_error = 0.25, std::size_t probes = 4);

  // --- per-mode options --------------------------------------------------
  SpecBuilder& offline_batch(std::size_t batch);
  SpecBuilder& input_seed(std::uint64_t seed);
  SpecBuilder& backends(std::vector<std::string> names);
  SpecBuilder& include_vhl(bool on = true);
  SpecBuilder& serve_tiers(std::vector<std::size_t> hash_tiers);
  SpecBuilder& serve_workers(std::size_t workers);
  SpecBuilder& serve_queue(std::size_t capacity);
  SpecBuilder& serve_batch(std::size_t max_batch, long max_delay_us);
  SpecBuilder& serve_trace(std::string trace, std::size_t requests,
                           double rate_rps, std::uint64_t seed = 1);
  SpecBuilder& serve_clients(std::size_t clients);
  /// Per-class completion deadlines in microseconds (0 = none).
  SpecBuilder& serve_deadlines(long interactive_us, long standard_us,
                               long batch_us);
  /// Per-class shed watermarks as queue-depth fractions (>= 1.0 = off).
  SpecBuilder& serve_shed(double interactive, double standard, double batch);
  /// Downgrade dial: queue-depth fraction that reroutes admissions to the
  /// next lower hash tier (>= 1.0 = off).
  SpecBuilder& serve_downgrade(double fraction);
  /// Trace SLO-class mix {interactive, standard, batch} weights.
  SpecBuilder& serve_class_mix(double interactive, double standard,
                               double batch);
  /// Engine replicas per session (>= 1).
  SpecBuilder& serve_replicas(std::size_t replicas);
  /// Per-class retry budgets plus backoff base/cap in microseconds.
  SpecBuilder& serve_retry(std::size_t interactive, std::size_t standard,
                           std::size_t batch, long backoff_us = 200,
                           long backoff_max_us = 50000);
  /// Interactive hedging; delay 0 = p99-derived.
  SpecBuilder& serve_hedge(bool on = true, long delay_us = 0);
  /// Circuit-breaker / canary-readmission knobs.
  SpecBuilder& serve_breaker(std::size_t failures, std::size_t canaries,
                             long quarantine_backoff_us = 20000);
  /// Appends one scripted chaos fault (kind: crash|heal|stall|poison|slow).
  SpecBuilder& serve_chaos(double at_seconds, std::string kind,
                           std::size_t replica = 0, double param = 0.0);
  /// Deterministic pump-mode replay on a VirtualClock (byte-identical
  /// exported traces).
  SpecBuilder& serve_virtual_time(bool on = true);
  /// Planner objective ("cycles", "energy" or "edp").
  SpecBuilder& plan_objective(std::string objective);
  /// Batch size the planner schedules for.
  SpecBuilder& plan_batch(std::size_t batch);
  /// Which hardware axes the planner searches.
  SpecBuilder& plan_search(bool rows, bool dataflow);
  /// Sensitivity probes for the accuracy floors (0 = skip).
  SpecBuilder& plan_probes(std::size_t probes);
  /// Fall back to measured runs (empirical tune sweep / sim cross-check).
  SpecBuilder& plan_validate(bool on = true);

  // --- outputs -----------------------------------------------------------
  SpecBuilder& json_output(std::string path);
  SpecBuilder& csv_output(bool on = true);
  SpecBuilder& text_output(bool on);
  SpecBuilder& per_sample(bool on = true);
  /// Span-trace sink (".csv" = CSV, otherwise Chrome trace-event JSON).
  SpecBuilder& trace_output(std::string path);
  /// Prometheus text-exposition sink (serve mode).
  SpecBuilder& metrics_output(std::string path);
  /// Kernel-stage profiling (per-stage aggregate table in the outcome).
  SpecBuilder& profile(bool on = true);

  /// Validates and returns the spec (throws Error when invalid).
  Spec build() const;
  /// The spec as accumulated so far, unvalidated.
  const Spec& peek() const { return spec_; }

 private:
  Workload& current_workload();
  LayerSpec& append_layer(const std::string& kind, std::string layer_name);

  Spec spec_;
};

}  // namespace deepcam
