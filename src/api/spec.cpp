#include "api/spec.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"

namespace deepcam {

namespace {

const std::vector<std::string>& known_topologies() {
  static const std::vector<std::string> kNames = {"lenet5", "vgg11", "vgg16",
                                                  "resnet18"};
  return kNames;
}

bool contains(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

[[noreturn]] void invalid(const std::string& what) {
  throw Error("invalid spec: " + what);
}

void validate_hash_bits(std::size_t bits, const std::string& where) {
  if (bits == 0 || bits % 256 != 0 ||
      bits > static_cast<std::size_t>(hash::kMaxHashBits))
    invalid(where + " must be a multiple of 256 in [256, 1024], got " +
            std::to_string(bits));
}

void validate_threads(std::size_t threads, const std::string& where) {
  if (threads > kMaxSpecThreads)
    invalid(where + " must be <= " + std::to_string(kMaxSpecThreads) +
            ", got " + std::to_string(threads));
}

void validate_layer(const LayerSpec& layer, const std::string& workload) {
  const std::string where = "workload " + workload + " layer \"" +
                            layer.kind + "\"";
  if (layer.kind == "conv2d") {
    if (layer.in_channels == 0 || layer.out_channels == 0 ||
        layer.kernel == 0 || layer.stride == 0)
      invalid(where + " needs positive in_channels/out_channels/kernel/"
                      "stride");
  } else if (layer.kind == "linear") {
    if (layer.in_features == 0 || layer.out_features == 0)
      invalid(where + " needs positive in_features/out_features");
  } else if (layer.kind == "maxpool" || layer.kind == "avgpool") {
    if (layer.window == 0 || layer.stride == 0)
      invalid(where + " needs positive window/stride");
  } else if (layer.kind != "relu" && layer.kind != "flatten" &&
             layer.kind != "softmax") {
    invalid(where + " has unknown kind (expected conv2d, linear, relu, "
                    "maxpool, avgpool, flatten or softmax)");
  }
}

void validate_workload(const Workload& w) {
  if (!w.is_inline()) {
    if (!contains(known_topologies(), w.topology))
      invalid("unknown topology \"" + w.topology + "\" (expected one of " +
              join(known_topologies()) + ")");
    return;
  }
  if (w.name.empty()) invalid("inline workload needs a model name");
  if (w.layers.empty())
    invalid("inline workload " + w.name + " has no layers");
  if (w.channels == 0 || w.height == 0 || w.width == 0)
    invalid("inline workload " + w.name + " needs positive input geometry");
  // Walk the spatial extent down the stack: a conv kernel or pool window
  // larger than its padded input would wrap the unsigned output-size
  // formula to an enormous tensor.
  std::size_t h = w.height;
  std::size_t wd = w.width;
  for (std::size_t i = 0; i < w.layers.size(); ++i) {
    const LayerSpec& l = w.layers[i];
    validate_layer(l, w.name);
    const bool conv = l.kind == "conv2d";
    if (!conv && l.kind != "maxpool" && l.kind != "avgpool") {
      if (l.kind == "linear" || l.kind == "flatten") h = wd = 1;
      continue;
    }
    const std::size_t window = conv ? l.kernel : l.window;
    const std::size_t pad = conv ? l.pad : 0;
    if (window > h + 2 * pad || window > wd + 2 * pad)
      invalid("workload " + w.name + " layer " + std::to_string(i) + " \"" +
              l.kind + "\": " + (conv ? "kernel " : "window ") +
              std::to_string(window) + " does not fit its " +
              std::to_string(h) + "x" + std::to_string(wd) + " input" +
              (pad > 0 ? " padded by " + std::to_string(pad) : ""));
    h = nn::window_out_size(h, pad, window, l.stride);
    wd = nn::window_out_size(wd, pad, window, l.stride);
  }
}

}  // namespace

const std::vector<std::string>& known_backend_names() {
  // default_registry() order; the one list validate() checks against and
  // make_registry() builds from, so the two can't drift.
  static const std::vector<std::string> kNames = {
      "deepcam", "eyeriss", "cpu-avx512", "pim-neurosim", "pim-valavi"};
  return kNames;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOffline: return "offline";
    case Mode::kCompare: return "compare";
    case Mode::kServe: return "serve";
    case Mode::kTune: return "tune";
    case Mode::kPlan: return "plan";
  }
  return "?";
}

Mode mode_from_name(const std::string& name) {
  if (name == "offline" || name == "run") return Mode::kOffline;
  if (name == "compare") return Mode::kCompare;
  if (name == "serve") return Mode::kServe;
  if (name == "tune") return Mode::kTune;
  if (name == "plan") return Mode::kPlan;
  throw Error("unknown mode \"" + name +
              "\" (expected offline, compare, serve, tune or plan)");
}

nn::Shape Workload::input_shape() const {
  if (!is_inline()) return nn::input_spec_for(topology).shape();
  return nn::Shape{1, channels, height, width};
}

std::unique_ptr<nn::Model> build_model(const Workload& workload) {
  if (!workload.is_inline())
    return nn::make_model(workload.topology, workload.seed);

  auto model = std::make_unique<nn::Model>(workload.name);
  std::size_t index = 0;
  for (const LayerSpec& l : workload.layers) {
    const std::string name =
        l.name.empty() ? l.kind + std::to_string(index) : l.name;
    // Weight layers draw deterministic seeds from the workload seed plus
    // their position, so the model is a pure function of the description.
    const std::uint64_t seed = workload.seed + index;
    if (l.kind == "conv2d") {
      model->add(std::make_unique<nn::Conv2D>(
          name,
          nn::ConvSpec{l.in_channels, l.out_channels, l.kernel, l.kernel,
                       l.stride, l.pad},
          seed));
    } else if (l.kind == "linear") {
      model->add(std::make_unique<nn::Linear>(name, l.in_features,
                                              l.out_features, seed));
    } else if (l.kind == "relu") {
      model->add(std::make_unique<nn::ReLU>(name));
    } else if (l.kind == "maxpool") {
      model->add(std::make_unique<nn::MaxPool>(name, l.window, l.stride));
    } else if (l.kind == "avgpool") {
      model->add(std::make_unique<nn::AvgPool>(name, l.window, l.stride));
    } else if (l.kind == "flatten") {
      model->add(std::make_unique<nn::Flatten>(name));
    } else if (l.kind == "softmax") {
      model->add(std::make_unique<nn::Softmax>(name));
    } else {
      invalid("unknown layer kind \"" + l.kind + "\"");
    }
    ++index;
  }
  return model;
}

core::DeepCamConfig AcceleratorSpec::config() const {
  core::DeepCamConfig cfg;
  cfg.cam_rows = cam_rows;
  cfg.dataflow = dataflow;
  cfg.preset = preset;
  cfg.layer_hash_bits = layer_hash_bits;
  cfg.default_hash_bits = hash_bits;
  cfg.hash_seed = hash_seed;
  return cfg;
}

void Spec::validate() const {
  if (name.empty()) invalid("spec needs a name");
  if (workloads.empty()) invalid("spec needs at least one workload");
  for (const Workload& w : workloads) {
    validate_workload(w);
    if (w.batch_sizes.empty())
      invalid("workload " + w.display_name() + " has no batch sizes");
    for (const std::size_t b : w.batch_sizes)
      if (b == 0)
        invalid("workload " + w.display_name() + " has a zero batch size");
  }

  if (accelerator.cam_rows == 0) invalid("accelerator.cam_rows must be > 0");
  validate_threads(accelerator.engine_threads, "accelerator.engine_threads");
  validate_hash_bits(accelerator.hash_bits, "accelerator.hash_bits");
  for (const std::size_t k : accelerator.layer_hash_bits)
    validate_hash_bits(k, "accelerator.layer_hash_bits entry");
  if (accelerator.vhl) {
    if (accelerator.vhl_probes == 0) invalid("accelerator.vhl_probes == 0");
    if (accelerator.vhl_max_rel_error <= 0.0)
      invalid("accelerator.vhl_max_rel_error must be > 0");
  }

  switch (mode) {
    case Mode::kOffline:
      if (workloads.size() != 1)
        invalid("offline mode runs exactly one workload, got " +
                std::to_string(workloads.size()));
      if (offline.batch == 0) invalid("offline.batch must be > 0");
      break;
    case Mode::kCompare:
      for (const Workload& w : workloads)
        if (w.is_inline())
          invalid("compare mode sweeps named topologies only; workload " +
                  w.display_name() + " is inline");
      for (const std::string& b : compare.backends)
        if (!contains(known_backend_names(), b))
          invalid("unknown backend \"" + b + "\" (expected one of " +
                  join(known_backend_names()) + ")");
      if (compare.include_vhl) {
        if (accelerator.vhl_probes == 0)
          invalid("accelerator.vhl_probes == 0 with compare.include_vhl");
        if (accelerator.vhl_max_rel_error <= 0.0)
          invalid("accelerator.vhl_max_rel_error must be > 0 with "
                  "compare.include_vhl");
      }
      break;
    case Mode::kServe: {
      if (serve.hash_tiers.empty()) invalid("serve.hash_tiers is empty");
      for (const std::size_t k : serve.hash_tiers)
        validate_hash_bits(k, "serve.hash_tiers entry");
      for (std::size_t i = 0; i < serve.hash_tiers.size(); ++i)
        for (std::size_t j = i + 1; j < serve.hash_tiers.size(); ++j)
          if (serve.hash_tiers[i] == serve.hash_tiers[j])
            invalid("serve.hash_tiers has duplicate tier " +
                    std::to_string(serve.hash_tiers[i]));
      if (serve.workers == 0) invalid("serve.workers must be > 0");
      if (serve.queue_capacity == 0) invalid("serve.queue_capacity == 0");
      if (serve.max_batch == 0) invalid("serve.max_batch must be > 0");
      if (serve.max_delay_us < 0) invalid("serve.max_delay_us is negative");
      if (serve.requests == 0) invalid("serve.requests must be > 0");
      if (serve.trace != "poisson" && serve.trace != "bursty" &&
          serve.trace != "diurnal" && serve.trace != "flash" &&
          serve.trace != "closed")
        invalid("serve.trace must be poisson, bursty, diurnal, flash or "
                "closed, got \"" + serve.trace + "\"");
      if (serve.trace != "closed" && serve.rate_rps <= 0.0)
        invalid("serve.rate_rps must be > 0 for open-loop traces");
      if (serve.trace == "closed" && serve.clients == 0)
        invalid("serve.clients must be > 0 for closed-loop traces");
      if (serve.virtual_time && serve.trace == "closed")
        invalid("serve.virtual_time needs an open-loop trace (closed-loop "
                "clients block on real threads)");
      if (serve.deadline_interactive_us < 0 ||
          serve.deadline_standard_us < 0 || serve.deadline_batch_us < 0)
        invalid("serve deadlines must be >= 0 microseconds");
      if (serve.shed_interactive < 0.0 || serve.shed_standard < 0.0 ||
          serve.shed_batch < 0.0)
        invalid("serve shed watermarks must be >= 0");
      if (serve.downgrade_fraction < 0.0)
        invalid("serve.downgrade_fraction must be >= 0");
      if (serve.class_mix.size() != 3)
        invalid("serve.class_mix needs exactly 3 weights "
                "{interactive, standard, batch}, got " +
                std::to_string(serve.class_mix.size()));
      double mix_total = 0.0;
      for (const double w : serve.class_mix) {
        if (w < 0.0) invalid("serve.class_mix weights must be >= 0");
        mix_total += w;
      }
      if (mix_total <= 0.0)
        invalid("serve.class_mix weights must sum to > 0");
      if (serve.replicas == 0) invalid("serve.replicas must be >= 1");
      {
        // One engine pool per (workload, tier, replica) session replica;
        // engine_threads 0 (hardware concurrency) counts as one here. The
        // total bounds workers and replicas too.
        const std::size_t threads =
            serve.workers + workloads.size() * serve.hash_tiers.size() *
                                serve.replicas *
                                std::max<std::size_t>(
                                    accelerator.engine_threads, 1);
        if (threads > kMaxSpecThreads)
          invalid("serve would start " + std::to_string(threads) +
                  " threads (serve.workers + workloads x serve.hash_tiers "
                  "x serve.replicas x accelerator.engine_threads), over "
                  "the limit of " + std::to_string(kMaxSpecThreads));
      }
      if (serve.retry_limit.size() != 3)
        invalid("serve.retry_limit needs exactly 3 budgets "
                "{interactive, standard, batch}, got " +
                std::to_string(serve.retry_limit.size()));
      if (serve.retry_backoff_us < 0 || serve.retry_backoff_max_us < 0)
        invalid("serve retry backoffs must be >= 0 microseconds");
      if (serve.hedge_delay_us < 0)
        invalid("serve.hedge_delay_us must be >= 0");
      if (serve.breaker_failures == 0)
        invalid("serve.breaker_failures must be >= 1");
      if (serve.canary_successes == 0)
        invalid("serve.canary_successes must be >= 1");
      if (serve.quarantine_backoff_us < 0)
        invalid("serve.quarantine_backoff_us must be >= 0");
      for (const ChaosEventSpec& e : serve.chaos) {
        if (e.at < 0.0) invalid("serve.chaos event time must be >= 0");
        if (e.param < 0.0) invalid("serve.chaos event param must be >= 0");
        if (e.kind != "crash" && e.kind != "heal" && e.kind != "stall" &&
            e.kind != "poison" && e.kind != "slow")
          invalid("serve.chaos event kind must be crash, heal, stall, "
                  "poison or slow, got \"" + e.kind + "\"");
        if (e.kind != "stall" && e.replica >= serve.replicas)
          invalid("serve.chaos event replica " + std::to_string(e.replica) +
                  " out of range for " + std::to_string(serve.replicas) +
                  " replicas");
      }
      break;
    }
    case Mode::kTune:
      // Tune mode always runs the tuner, whether or not accelerator.vhl
      // asked for tuned execution — its knobs must be sane either way.
      if (accelerator.vhl_probes == 0)
        invalid("accelerator.vhl_probes == 0 in tune mode");
      if (accelerator.vhl_max_rel_error <= 0.0)
        invalid("accelerator.vhl_max_rel_error must be > 0 in tune mode");
      break;
    case Mode::kPlan:
      if (plan.objective != "cycles" && plan.objective != "energy" &&
          plan.objective != "edp")
        invalid("plan.objective must be cycles, energy or edp, got \"" +
                plan.objective + "\"");
      if (plan.batch == 0) invalid("plan.batch must be > 0");
      if (accelerator.vhl_max_rel_error <= 0.0)
        invalid("accelerator.vhl_max_rel_error must be > 0 in plan mode");
      break;
  }

  // Observability sinks only make sense where spans/metrics are produced:
  // traces and profiling need an engine or server run, the Prometheus
  // mirror needs a server.
  const bool traced_mode = mode == Mode::kOffline || mode == Mode::kServe;
  if (!outputs.trace_path.empty() && !traced_mode)
    invalid("outputs.trace is only meaningful in offline or serve mode");
  if (outputs.profile && !traced_mode)
    invalid("outputs.profile is only meaningful in offline or serve mode");
  if (!outputs.metrics_path.empty() && mode != Mode::kServe)
    invalid("outputs.metrics is only meaningful in serve mode");
}

SpecBuilder::SpecBuilder(std::string name) { spec_.name = std::move(name); }

SpecBuilder& SpecBuilder::mode(Mode m) {
  spec_.mode = m;
  return *this;
}

SpecBuilder& SpecBuilder::workload(std::string topology, std::uint64_t seed) {
  Workload w;
  w.topology = std::move(topology);
  w.seed = seed;
  spec_.workloads.push_back(std::move(w));
  return *this;
}

SpecBuilder& SpecBuilder::custom_workload(std::string model_name,
                                          std::size_t channels,
                                          std::size_t height,
                                          std::size_t width,
                                          std::uint64_t seed) {
  Workload w;
  w.name = std::move(model_name);
  w.channels = channels;
  w.height = height;
  w.width = width;
  w.seed = seed;
  spec_.workloads.push_back(std::move(w));
  return *this;
}

Workload& SpecBuilder::current_workload() {
  DEEPCAM_CHECK_MSG(!spec_.workloads.empty(),
                    "add a workload before workload-scoped builder calls");
  return spec_.workloads.back();
}

SpecBuilder& SpecBuilder::batch_sizes(std::vector<std::size_t> sizes) {
  current_workload().batch_sizes = std::move(sizes);
  return *this;
}

LayerSpec& SpecBuilder::append_layer(const std::string& kind,
                                     std::string layer_name) {
  Workload& w = current_workload();
  DEEPCAM_CHECK_MSG(w.is_inline(),
                    "inline layers go into custom workloads, not topologies");
  LayerSpec l;
  l.kind = kind;
  l.name = std::move(layer_name);
  w.layers.push_back(std::move(l));
  return w.layers.back();
}

SpecBuilder& SpecBuilder::conv2d(std::string layer_name,
                                 std::size_t in_channels,
                                 std::size_t out_channels, std::size_t kernel,
                                 std::size_t stride, std::size_t pad) {
  LayerSpec& l = append_layer("conv2d", std::move(layer_name));
  l.in_channels = in_channels;
  l.out_channels = out_channels;
  l.kernel = kernel;
  l.stride = stride;
  l.pad = pad;
  return *this;
}

SpecBuilder& SpecBuilder::linear(std::string layer_name,
                                 std::size_t in_features,
                                 std::size_t out_features) {
  LayerSpec& l = append_layer("linear", std::move(layer_name));
  l.in_features = in_features;
  l.out_features = out_features;
  return *this;
}

SpecBuilder& SpecBuilder::relu(std::string layer_name) {
  append_layer("relu", std::move(layer_name));
  return *this;
}

SpecBuilder& SpecBuilder::maxpool(std::size_t window, std::size_t stride) {
  LayerSpec& l = append_layer("maxpool", "");
  l.window = window;
  l.stride = stride;
  return *this;
}

SpecBuilder& SpecBuilder::avgpool(std::size_t window, std::size_t stride) {
  LayerSpec& l = append_layer("avgpool", "");
  l.window = window;
  l.stride = stride;
  return *this;
}

SpecBuilder& SpecBuilder::flatten(std::string layer_name) {
  append_layer("flatten", std::move(layer_name));
  return *this;
}

SpecBuilder& SpecBuilder::softmax(std::string layer_name) {
  append_layer("softmax", std::move(layer_name));
  return *this;
}

SpecBuilder& SpecBuilder::cam_rows(std::size_t rows) {
  spec_.accelerator.cam_rows = rows;
  return *this;
}

SpecBuilder& SpecBuilder::dataflow(core::Dataflow df) {
  spec_.accelerator.dataflow = df;
  return *this;
}

SpecBuilder& SpecBuilder::preset(core::CyclePreset p) {
  spec_.accelerator.preset = p;
  return *this;
}

SpecBuilder& SpecBuilder::hash_bits(std::size_t bits) {
  spec_.accelerator.hash_bits = bits;
  return *this;
}

SpecBuilder& SpecBuilder::layer_hash_bits(std::vector<std::size_t> bits) {
  spec_.accelerator.layer_hash_bits = std::move(bits);
  return *this;
}

SpecBuilder& SpecBuilder::hash_seed(std::uint64_t seed) {
  spec_.accelerator.hash_seed = seed;
  return *this;
}

SpecBuilder& SpecBuilder::engine_threads(std::size_t threads) {
  spec_.accelerator.engine_threads = threads;
  return *this;
}

SpecBuilder& SpecBuilder::vhl(double max_rel_error, std::size_t probes) {
  spec_.accelerator.vhl = true;
  spec_.accelerator.vhl_max_rel_error = max_rel_error;
  spec_.accelerator.vhl_probes = probes;
  return *this;
}

SpecBuilder& SpecBuilder::offline_batch(std::size_t batch) {
  spec_.offline.batch = batch;
  return *this;
}

SpecBuilder& SpecBuilder::input_seed(std::uint64_t seed) {
  spec_.offline.input_seed = seed;
  return *this;
}

SpecBuilder& SpecBuilder::backends(std::vector<std::string> names) {
  spec_.compare.backends = std::move(names);
  return *this;
}

SpecBuilder& SpecBuilder::include_vhl(bool on) {
  spec_.compare.include_vhl = on;
  return *this;
}

SpecBuilder& SpecBuilder::serve_tiers(std::vector<std::size_t> hash_tiers) {
  spec_.serve.hash_tiers = std::move(hash_tiers);
  return *this;
}

SpecBuilder& SpecBuilder::serve_workers(std::size_t workers) {
  spec_.serve.workers = workers;
  return *this;
}

SpecBuilder& SpecBuilder::serve_queue(std::size_t capacity) {
  spec_.serve.queue_capacity = capacity;
  return *this;
}

SpecBuilder& SpecBuilder::serve_batch(std::size_t max_batch,
                                      long max_delay_us) {
  spec_.serve.max_batch = max_batch;
  spec_.serve.max_delay_us = max_delay_us;
  return *this;
}

SpecBuilder& SpecBuilder::serve_trace(std::string trace, std::size_t requests,
                                      double rate_rps, std::uint64_t seed) {
  spec_.serve.trace = std::move(trace);
  spec_.serve.requests = requests;
  spec_.serve.rate_rps = rate_rps;
  spec_.serve.trace_seed = seed;
  return *this;
}

SpecBuilder& SpecBuilder::serve_clients(std::size_t clients) {
  spec_.serve.clients = clients;
  return *this;
}

SpecBuilder& SpecBuilder::serve_deadlines(long interactive_us,
                                          long standard_us, long batch_us) {
  spec_.serve.deadline_interactive_us = interactive_us;
  spec_.serve.deadline_standard_us = standard_us;
  spec_.serve.deadline_batch_us = batch_us;
  return *this;
}

SpecBuilder& SpecBuilder::serve_shed(double interactive, double standard,
                                     double batch) {
  spec_.serve.shed_interactive = interactive;
  spec_.serve.shed_standard = standard;
  spec_.serve.shed_batch = batch;
  return *this;
}

SpecBuilder& SpecBuilder::serve_downgrade(double fraction) {
  spec_.serve.downgrade_fraction = fraction;
  return *this;
}

SpecBuilder& SpecBuilder::serve_class_mix(double interactive, double standard,
                                          double batch) {
  spec_.serve.class_mix = {interactive, standard, batch};
  return *this;
}

SpecBuilder& SpecBuilder::serve_replicas(std::size_t replicas) {
  spec_.serve.replicas = replicas;
  return *this;
}

SpecBuilder& SpecBuilder::serve_retry(std::size_t interactive,
                                      std::size_t standard, std::size_t batch,
                                      long backoff_us, long backoff_max_us) {
  spec_.serve.retry_limit = {interactive, standard, batch};
  spec_.serve.retry_backoff_us = backoff_us;
  spec_.serve.retry_backoff_max_us = backoff_max_us;
  return *this;
}

SpecBuilder& SpecBuilder::serve_hedge(bool on, long delay_us) {
  spec_.serve.hedge = on;
  spec_.serve.hedge_delay_us = delay_us;
  return *this;
}

SpecBuilder& SpecBuilder::serve_breaker(std::size_t failures,
                                        std::size_t canaries,
                                        long quarantine_backoff_us) {
  spec_.serve.breaker_failures = failures;
  spec_.serve.canary_successes = canaries;
  spec_.serve.quarantine_backoff_us = quarantine_backoff_us;
  return *this;
}

SpecBuilder& SpecBuilder::serve_chaos(double at_seconds, std::string kind,
                                      std::size_t replica, double param) {
  ChaosEventSpec e;
  e.at = at_seconds;
  e.kind = std::move(kind);
  e.replica = replica;
  e.param = param;
  spec_.serve.chaos.push_back(std::move(e));
  return *this;
}

SpecBuilder& SpecBuilder::serve_virtual_time(bool on) {
  spec_.serve.virtual_time = on;
  return *this;
}

SpecBuilder& SpecBuilder::plan_objective(std::string objective) {
  spec_.plan.objective = std::move(objective);
  return *this;
}

SpecBuilder& SpecBuilder::plan_batch(std::size_t batch) {
  spec_.plan.batch = batch;
  return *this;
}

SpecBuilder& SpecBuilder::plan_search(bool rows, bool dataflow) {
  spec_.plan.search_rows = rows;
  spec_.plan.search_dataflow = dataflow;
  return *this;
}

SpecBuilder& SpecBuilder::plan_probes(std::size_t probes) {
  spec_.plan.probes = probes;
  return *this;
}

SpecBuilder& SpecBuilder::plan_validate(bool on) {
  spec_.plan.validate = on;
  return *this;
}

SpecBuilder& SpecBuilder::json_output(std::string path) {
  spec_.outputs.json_path = std::move(path);
  return *this;
}

SpecBuilder& SpecBuilder::csv_output(bool on) {
  spec_.outputs.csv = on;
  return *this;
}

SpecBuilder& SpecBuilder::text_output(bool on) {
  spec_.outputs.text = on;
  return *this;
}

SpecBuilder& SpecBuilder::per_sample(bool on) {
  spec_.outputs.per_sample = on;
  return *this;
}

SpecBuilder& SpecBuilder::trace_output(std::string path) {
  spec_.outputs.trace_path = std::move(path);
  return *this;
}

SpecBuilder& SpecBuilder::metrics_output(std::string path) {
  spec_.outputs.metrics_path = std::move(path);
  return *this;
}

SpecBuilder& SpecBuilder::profile(bool on) {
  spec_.outputs.profile = on;
  return *this;
}

Spec SpecBuilder::build() const {
  spec_.validate();
  return spec_;
}

}  // namespace deepcam
