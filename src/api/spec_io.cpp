#include "api/spec_io.hpp"

#include "core/mapping.hpp"

namespace deepcam {

namespace {

// --- reading helpers ------------------------------------------------------

std::size_t as_size(const JsonValue& v) {
  return static_cast<std::size_t>(v.as_uint());
}

/// A thread-count field; its bound is checked here so the error carries
/// the value's line and column.
std::size_t as_thread_count(const JsonValue& v, const std::string& field) {
  const std::size_t n = as_size(v);
  if (n > kMaxSpecThreads)
    throw v.error(field + " must be <= " + std::to_string(kMaxSpecThreads) +
                  ", got " + std::to_string(n));
  return n;
}

std::vector<std::size_t> as_size_array(const JsonValue& v) {
  std::vector<std::size_t> out;
  for (const JsonValue& item : v.items()) out.push_back(as_size(item));
  return out;
}

std::vector<std::string> as_string_array(const JsonValue& v) {
  std::vector<std::string> out;
  for (const JsonValue& item : v.items()) out.push_back(item.as_string());
  return out;
}

[[noreturn]] void unknown_key(const std::string& section,
                              const std::string& key, const JsonValue& v) {
  throw v.error("unknown key \"" + key + "\" in " + section);
}

core::Dataflow dataflow_from_json(const JsonValue& v) {
  const std::string& s = v.as_string();
  if (s == "weight-stationary") return core::Dataflow::kWeightStationary;
  if (s == "activation-stationary")
    return core::Dataflow::kActivationStationary;
  throw v.error("dataflow must be \"weight-stationary\" or "
                "\"activation-stationary\", got \"" + s + "\"");
}

core::CyclePreset preset_from_json(const JsonValue& v) {
  const std::string& s = v.as_string();
  if (s == "conservative") return core::CyclePreset::kConservative;
  if (s == "idealized") return core::CyclePreset::kIdealized;
  throw v.error("preset must be \"conservative\" or \"idealized\", got \"" +
                s + "\"");
}

Mode mode_from_json(const JsonValue& v) {
  const std::string& s = v.as_string();
  try {
    return mode_from_name(s);
  } catch (const Error&) {
    throw v.error("mode must be offline, compare, serve, tune or plan, "
                  "got \"" + s + "\"");
  }
}

// --- section readers ------------------------------------------------------

LayerSpec parse_layer(const JsonValue& doc) {
  LayerSpec l;
  for (const auto& [key, v] : doc.members()) {
    if (key == "kind") l.kind = v.as_string();
    else if (key == "name") l.name = v.as_string();
    else if (key == "in_channels") l.in_channels = as_size(v);
    else if (key == "out_channels") l.out_channels = as_size(v);
    else if (key == "kernel") l.kernel = as_size(v);
    else if (key == "stride") l.stride = as_size(v);
    else if (key == "pad") l.pad = as_size(v);
    else if (key == "in_features") l.in_features = as_size(v);
    else if (key == "out_features") l.out_features = as_size(v);
    else if (key == "window") l.window = as_size(v);
    else unknown_key("layer", key, v);
  }
  if (l.kind.empty()) throw doc.error("layer needs a \"kind\"");
  return l;
}

Workload parse_workload(const JsonValue& doc) {
  Workload w;
  bool named = false, has_layers = false;
  for (const auto& [key, v] : doc.members()) {
    if (key == "topology") {
      w.topology = v.as_string();
      named = true;
    } else if (key == "name") {
      w.name = v.as_string();
    } else if (key == "input") {
      for (const auto& [ikey, iv] : v.members()) {
        if (ikey == "channels") w.channels = as_size(iv);
        else if (ikey == "height") w.height = as_size(iv);
        else if (ikey == "width") w.width = as_size(iv);
        else unknown_key("workload input", ikey, iv);
      }
    } else if (key == "seed") {
      w.seed = v.as_uint();
    } else if (key == "batch_sizes") {
      w.batch_sizes = as_size_array(v);
    } else if (key == "layers") {
      has_layers = true;
      w.layers.clear();
      for (const JsonValue& layer : v.items())
        w.layers.push_back(parse_layer(layer));
    } else {
      unknown_key("workload", key, v);
    }
  }
  if (named && has_layers)
    throw doc.error("workload is either a named topology or an inline "
                    "layer list, not both");
  if (!named && !has_layers)
    throw doc.error("workload needs a \"topology\" or a \"layers\" list");
  // Topologies carry their own input geometry and model name; accepting
  // the inline-only keys would silently ignore them.
  if (named && doc.find("input") != nullptr)
    throw doc.at("input").error(
        "\"input\" is meaningless for a named topology (its geometry is "
        "fixed); only inline workloads take it");
  if (named && doc.find("name") != nullptr)
    throw doc.at("name").error(
        "\"name\" is meaningless for a named topology (the topology is the "
        "name); only inline workloads take it");
  return w;
}

void parse_accelerator(const JsonValue& doc, AcceleratorSpec& acc) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "cam_rows") acc.cam_rows = as_size(v);
    else if (key == "dataflow") acc.dataflow = dataflow_from_json(v);
    else if (key == "preset") acc.preset = preset_from_json(v);
    else if (key == "hash_bits") acc.hash_bits = as_size(v);
    else if (key == "layer_hash_bits") acc.layer_hash_bits = as_size_array(v);
    else if (key == "hash_seed") acc.hash_seed = v.as_uint();
    else if (key == "engine_threads")
      acc.engine_threads = as_thread_count(v, "accelerator.engine_threads");
    else if (key == "vhl") {
      for (const auto& [vkey, vv] : v.members()) {
        if (vkey == "enabled") acc.vhl = vv.as_bool();
        else if (vkey == "max_rel_error") acc.vhl_max_rel_error = vv.as_number();
        else if (vkey == "probes") acc.vhl_probes = as_size(vv);
        else unknown_key("accelerator vhl", vkey, vv);
      }
    } else {
      unknown_key("accelerator", key, v);
    }
  }
}

void parse_offline(const JsonValue& doc, OfflineOptions& off) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "batch") off.batch = as_size(v);
    else if (key == "input_seed") off.input_seed = v.as_uint();
    else unknown_key("offline", key, v);
  }
}

void parse_compare(const JsonValue& doc, CompareOptions& cmp) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "backends") cmp.backends = as_string_array(v);
    else if (key == "include_vhl") cmp.include_vhl = v.as_bool();
    else unknown_key("compare", key, v);
  }
}

void parse_serve(const JsonValue& doc, ServeOptions& srv) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "hash_tiers") srv.hash_tiers = as_size_array(v);
    else if (key == "workers")
      srv.workers = as_thread_count(v, "serve.workers");
    else if (key == "queue_capacity") srv.queue_capacity = as_size(v);
    else if (key == "max_batch") srv.max_batch = as_size(v);
    else if (key == "max_delay_us") srv.max_delay_us = static_cast<long>(v.as_uint());
    else if (key == "trace") srv.trace = v.as_string();
    else if (key == "requests") srv.requests = as_size(v);
    else if (key == "rate_rps") srv.rate_rps = v.as_number();
    else if (key == "clients") srv.clients = as_size(v);
    else if (key == "trace_seed") srv.trace_seed = v.as_uint();
    else if (key == "deadline_interactive_us")
      srv.deadline_interactive_us = static_cast<long>(v.as_uint());
    else if (key == "deadline_standard_us")
      srv.deadline_standard_us = static_cast<long>(v.as_uint());
    else if (key == "deadline_batch_us")
      srv.deadline_batch_us = static_cast<long>(v.as_uint());
    else if (key == "shed_interactive") srv.shed_interactive = v.as_number();
    else if (key == "shed_standard") srv.shed_standard = v.as_number();
    else if (key == "shed_batch") srv.shed_batch = v.as_number();
    else if (key == "downgrade_fraction")
      srv.downgrade_fraction = v.as_number();
    else if (key == "class_mix") {
      srv.class_mix.clear();
      for (const JsonValue& item : v.items())
        srv.class_mix.push_back(item.as_number());
    } else if (key == "replicas") {
      srv.replicas = as_thread_count(v, "serve.replicas");
    } else if (key == "retry_limit") {
      srv.retry_limit = as_size_array(v);
    } else if (key == "retry_backoff_us") {
      srv.retry_backoff_us = static_cast<long>(v.as_uint());
    } else if (key == "retry_backoff_max_us") {
      srv.retry_backoff_max_us = static_cast<long>(v.as_uint());
    } else if (key == "hedge") {
      srv.hedge = v.as_bool();
    } else if (key == "hedge_delay_us") {
      srv.hedge_delay_us = static_cast<long>(v.as_uint());
    } else if (key == "breaker_failures") {
      srv.breaker_failures = as_size(v);
    } else if (key == "canary_successes") {
      srv.canary_successes = as_size(v);
    } else if (key == "quarantine_backoff_us") {
      srv.quarantine_backoff_us = static_cast<long>(v.as_uint());
    } else if (key == "virtual_time") {
      srv.virtual_time = v.as_bool();
    } else if (key == "chaos") {
      srv.chaos.clear();
      for (const JsonValue& item : v.items()) {
        ChaosEventSpec e;
        for (const auto& [ekey, ev] : item.members()) {
          if (ekey == "at") e.at = ev.as_number();
          else if (ekey == "kind") e.kind = ev.as_string();
          else if (ekey == "replica") e.replica = as_size(ev);
          else if (ekey == "param") e.param = ev.as_number();
          else unknown_key("serve chaos event", ekey, ev);
        }
        srv.chaos.push_back(std::move(e));
      }
    } else {
      unknown_key("serve", key, v);
    }
  }
}

void parse_plan(const JsonValue& doc, PlanOptions& plan) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "objective") plan.objective = v.as_string();
    else if (key == "batch") plan.batch = as_size(v);
    else if (key == "search_rows") plan.search_rows = v.as_bool();
    else if (key == "search_dataflow") plan.search_dataflow = v.as_bool();
    else if (key == "probes") plan.probes = as_size(v);
    else if (key == "validate") plan.validate = v.as_bool();
    else unknown_key("plan", key, v);
  }
}

void parse_outputs(const JsonValue& doc, OutputOptions& out) {
  for (const auto& [key, v] : doc.members()) {
    if (key == "json") out.json_path = v.as_string();
    else if (key == "csv") out.csv = v.as_bool();
    else if (key == "text") out.text = v.as_bool();
    else if (key == "per_sample") out.per_sample = v.as_bool();
    else if (key == "trace") out.trace_path = v.as_string();
    else if (key == "metrics") out.metrics_path = v.as_string();
    else if (key == "profile") out.profile = v.as_bool();
    else unknown_key("outputs", key, v);
  }
}

// --- writing helpers ------------------------------------------------------

void layer_json(JsonWriter& json, const LayerSpec& l) {
  json.begin_object();
  json.kv("kind", l.kind);
  if (!l.name.empty()) json.kv("name", l.name);
  if (l.kind == "conv2d") {
    json.kv("in_channels", l.in_channels);
    json.kv("out_channels", l.out_channels);
    json.kv("kernel", l.kernel);
    json.kv("stride", l.stride);
    json.kv("pad", l.pad);
  } else if (l.kind == "linear") {
    json.kv("in_features", l.in_features);
    json.kv("out_features", l.out_features);
  } else if (l.kind == "maxpool" || l.kind == "avgpool") {
    json.kv("window", l.window);
    json.kv("stride", l.stride);
  }
  json.end_object();
}

void workload_json(JsonWriter& json, const Workload& w) {
  json.begin_object();
  if (w.is_inline()) {
    json.kv("name", w.name);
    json.key("input").begin_object();
    json.kv("channels", w.channels);
    json.kv("height", w.height);
    json.kv("width", w.width);
    json.end_object();
  } else {
    json.kv("topology", w.topology);
  }
  json.kv("seed", w.seed);
  json.key("batch_sizes").begin_array();
  for (const std::size_t b : w.batch_sizes) json.value(b);
  json.end_array();
  if (w.is_inline()) {
    json.key("layers").begin_array();
    for (const LayerSpec& l : w.layers) layer_json(json, l);
    json.end_array();
  }
  json.end_object();
}

}  // namespace

Spec spec_from_json(const JsonValue& doc) {
  Spec spec;
  bool have_workloads = false;
  for (const auto& [key, v] : doc.members()) {
    if (key == "name") {
      spec.name = v.as_string();
    } else if (key == "mode") {
      spec.mode = mode_from_json(v);
    } else if (key == "workload" || key == "workloads") {
      if (have_workloads)
        throw v.error("give either \"workload\" or \"workloads\", not both");
      have_workloads = true;
      spec.workloads.clear();
      if (key == "workload") {
        spec.workloads.push_back(parse_workload(v));
      } else {
        for (const JsonValue& w : v.items())
          spec.workloads.push_back(parse_workload(w));
      }
    } else if (key == "accelerator") {
      parse_accelerator(v, spec.accelerator);
    } else if (key == "offline") {
      parse_offline(v, spec.offline);
    } else if (key == "compare") {
      parse_compare(v, spec.compare);
    } else if (key == "serve") {
      parse_serve(v, spec.serve);
    } else if (key == "plan") {
      parse_plan(v, spec.plan);
    } else if (key == "outputs") {
      parse_outputs(v, spec.outputs);
    } else {
      unknown_key("spec", key, v);
    }
  }
  if (!have_workloads)
    throw doc.error("spec needs a \"workload\" or \"workloads\" section");
  spec.validate();
  return spec;
}

Spec spec_from_json_text(const std::string& text) {
  return spec_from_json(parse_json(text));
}

Spec spec_from_file(const std::string& path) {
  return spec_from_json(parse_json_file(path));
}

std::string spec_to_json(const Spec& spec) {
  JsonWriter json;
  json.begin_object();
  json.kv("name", spec.name);
  json.kv("mode", mode_name(spec.mode));

  json.key("workloads").begin_array();
  for (const Workload& w : spec.workloads) workload_json(json, w);
  json.end_array();

  const AcceleratorSpec& acc = spec.accelerator;
  json.key("accelerator").begin_object();
  json.kv("cam_rows", acc.cam_rows);
  json.kv("dataflow", core::dataflow_name(acc.dataflow));
  json.kv("preset", acc.preset == core::CyclePreset::kConservative
                        ? "conservative"
                        : "idealized");
  json.kv("hash_bits", acc.hash_bits);
  json.key("layer_hash_bits").begin_array();
  for (const std::size_t k : acc.layer_hash_bits) json.value(k);
  json.end_array();
  json.kv("hash_seed", acc.hash_seed);
  json.kv("engine_threads", acc.engine_threads);
  json.key("vhl").begin_object();
  json.kv("enabled", acc.vhl);
  json.kv("max_rel_error", acc.vhl_max_rel_error);
  json.kv("probes", acc.vhl_probes);
  json.end_object();
  json.end_object();

  json.key("offline").begin_object();
  json.kv("batch", spec.offline.batch);
  json.kv("input_seed", spec.offline.input_seed);
  json.end_object();

  json.key("compare").begin_object();
  json.key("backends").begin_array();
  for (const std::string& b : spec.compare.backends) json.value(b);
  json.end_array();
  json.kv("include_vhl", spec.compare.include_vhl);
  json.end_object();

  const ServeOptions& srv = spec.serve;
  json.key("serve").begin_object();
  json.key("hash_tiers").begin_array();
  for (const std::size_t k : srv.hash_tiers) json.value(k);
  json.end_array();
  json.kv("workers", srv.workers);
  json.kv("queue_capacity", srv.queue_capacity);
  json.kv("max_batch", srv.max_batch);
  json.kv("max_delay_us", static_cast<std::int64_t>(srv.max_delay_us));
  json.kv("trace", srv.trace);
  json.kv("requests", srv.requests);
  json.kv("rate_rps", srv.rate_rps);
  json.kv("clients", srv.clients);
  json.kv("trace_seed", srv.trace_seed);
  json.kv("deadline_interactive_us",
          static_cast<std::int64_t>(srv.deadline_interactive_us));
  json.kv("deadline_standard_us",
          static_cast<std::int64_t>(srv.deadline_standard_us));
  json.kv("deadline_batch_us",
          static_cast<std::int64_t>(srv.deadline_batch_us));
  json.kv("shed_interactive", srv.shed_interactive);
  json.kv("shed_standard", srv.shed_standard);
  json.kv("shed_batch", srv.shed_batch);
  json.kv("downgrade_fraction", srv.downgrade_fraction);
  json.key("class_mix").begin_array();
  for (const double w : srv.class_mix) json.value(w);
  json.end_array();
  json.kv("replicas", srv.replicas);
  json.key("retry_limit").begin_array();
  for (const std::size_t r : srv.retry_limit) json.value(r);
  json.end_array();
  json.kv("retry_backoff_us", static_cast<std::int64_t>(srv.retry_backoff_us));
  json.kv("retry_backoff_max_us",
          static_cast<std::int64_t>(srv.retry_backoff_max_us));
  json.kv("hedge", srv.hedge);
  json.kv("hedge_delay_us", static_cast<std::int64_t>(srv.hedge_delay_us));
  json.kv("breaker_failures", srv.breaker_failures);
  json.kv("canary_successes", srv.canary_successes);
  json.kv("quarantine_backoff_us",
          static_cast<std::int64_t>(srv.quarantine_backoff_us));
  json.kv("virtual_time", srv.virtual_time);
  json.key("chaos").begin_array();
  for (const ChaosEventSpec& e : srv.chaos) {
    json.begin_object();
    json.kv("at", e.at);
    json.kv("kind", e.kind);
    json.kv("replica", e.replica);
    json.kv("param", e.param);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.key("plan").begin_object();
  json.kv("objective", spec.plan.objective);
  json.kv("batch", spec.plan.batch);
  json.kv("search_rows", spec.plan.search_rows);
  json.kv("search_dataflow", spec.plan.search_dataflow);
  json.kv("probes", spec.plan.probes);
  json.kv("validate", spec.plan.validate);
  json.end_object();

  json.key("outputs").begin_object();
  json.kv("json", spec.outputs.json_path);
  json.kv("csv", spec.outputs.csv);
  json.kv("text", spec.outputs.text);
  json.kv("per_sample", spec.outputs.per_sample);
  json.kv("trace", spec.outputs.trace_path);
  json.kv("metrics", spec.outputs.metrics_path);
  json.kv("profile", spec.outputs.profile);
  json.end_object();

  json.end_object();
  return json.str();
}

}  // namespace deepcam
