#include "bench.hpp"

#include <sys/resource.h>

#include <cstring>

#include "codelet/codelet.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "plan/cost_model.hpp"
#include "serve/loadgen.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<nn::Tensor> make_inputs(const nn::Shape& shape, std::size_t count,
                                    std::uint64_t seed) {
  std::vector<nn::Tensor> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(
        deepcam::serve::LoadGenerator::make_input(shape, mix_seed(seed, i)));
  return inputs;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Tier layer_table(const std::string& tier,
                 const deepcam::core::CompiledModel& compiled,
                 const nn::Shape& input,
                 const deepcam::core::RunReport& sample, Report& report) {
  namespace plan = deepcam::plan;
  const plan::CostModel cost(plan::extract_geometry(compiled.model(), input));
  const plan::CostEstimate est = cost.estimate(compiled.config());
  Tier t{tier, {}};
  std::uint64_t abs_err = 0;
  const bool same_layers = est.layers.size() == sample.layers.size();
  for (std::size_t i = 0; i < sample.layers.size(); ++i) {
    const deepcam::core::LayerReport& l = sample.layers[i];
    LayerWork w;
    w.name = l.name;
    w.macs = static_cast<std::uint64_t>(l.patches) * l.context_len *
             l.hash_bits;
    w.searches = l.plan.searches;
    w.rows = l.plan.rows_written;
    w.dots = l.plan.dot_products;
    w.sim_cycles = l.cycles;
    w.est_cycles = same_layers ? est.layers[i].cycles : 0;
    abs_err += w.sim_cycles > w.est_cycles ? w.sim_cycles - w.est_cycles
                                           : w.est_cycles - w.sim_cycles;
    t.layers.push_back(std::move(w));
  }
  const std::size_t sim_total = sample.total_cycles();
  const std::size_t est_total = est.sample_cycles();
  report.add_scalar("plan.cycles_abs_err", static_cast<double>(abs_err));
  report.check("cost_model." + tier,
               same_layers && abs_err == 0 && sim_total == est_total,
               "sim " + std::to_string(sim_total) + " vs estimate " +
                   std::to_string(est_total) +
                   " cycles/sample, per-layer |err| " +
                   std::to_string(abs_err));
  return t;
}

void bench_project_cols(const deepcam::core::RunReport& sample,
                        std::uint64_t seed, Report& report) {
  const deepcam::core::LayerReport* big = nullptr;
  for (const auto& l : sample.layers)
    if (big == nullptr || l.patches * l.context_len * l.hash_bits >
                              big->patches * big->context_len * big->hash_bits)
      big = &l;
  if (big == nullptr) return;
  const std::size_t p = big->patches, n = big->context_len, k = big->hash_bits;
  deepcam::Rng rng(mix_seed(seed, 0xC0DE));
  std::vector<float> xs(p * n), c(n * k), out(p * k);
  for (float& v : xs) v = static_cast<float>(rng.gaussian());
  for (float& v : c) v = static_cast<float>(rng.gaussian());
  const auto& kernels = deepcam::codelet::kernels();
  const double gmac = static_cast<double>(p * n * k) * 1e-9;
  kernels.project_cols(xs.data(), c.data(), p, n, k, k, out.data());  // warm
  const Clock::time_point t_end =
      Clock::now() + std::chrono::milliseconds(300);
  for (int i = 0; i < 100 && (i < 5 || Clock::now() < t_end); ++i) {
    const Clock::time_point t = Clock::now();
    kernels.project_cols(xs.data(), c.data(), p, n, k, k, out.data());
    report.sample("codelet.project_cols.gmac_per_s", gmac / seconds_since(t));
  }
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::spans(const std::vector<obs::SpanRecord>& spans,
                   std::uint64_t dropped) {
  for (const obs::SpanRecord& r : spans)
    spans_.push_back(SpanRow{r, span_repeats_});
  ++span_repeats_;
  spans_dropped_ += dropped;
}

bool Report::all_checks_ok() const {
  for (const Check& c : checks_)
    if (!c.ok) return false;
  return true;
}

namespace {

std::int64_t id_or_minus_one(std::uint64_t v) {
  return v == obs::kNoId ? -1 : static_cast<std::int64_t>(v);
}

}  // namespace

std::string Report::json(const Args& args) const {
  deepcam::JsonWriter w;
  w.begin_object();
  w.kv("workload", args.workload);
  w.kv("seed", args.seed);
  w.kv("seconds", args.seconds);
  w.kv("trace", args.trace);
  w.key("context").begin_object();
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("isa", deepcam::codelet::isa_name(deepcam::codelet::active_isa()));
  w.kv("compiler", PERFBENCH_COMPILER);
  w.end_object();

  w.key("series").begin_object();
  for (const auto& [name, values] : series_) {
    w.key(name).begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("scalars").begin_object();
  for (const auto& [name, v] : scalars_) w.kv(name, v);
  w.end_object();

  w.key("checks").begin_array();
  for (const Check& c : checks_) {
    w.begin_object();
    w.kv("name", c.name).kv("ok", c.ok).kv("detail", c.detail);
    w.end_object();
  }
  w.end_array();
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);

  w.key("tiers").begin_array();
  for (const Tier& t : tiers_) {
    w.begin_object();
    w.kv("name", t.name);
    w.key("layers").begin_array();
    for (const LayerWork& l : t.layers) {
      w.begin_object();
      w.kv("name", l.name).kv("macs", l.macs).kv("searches", l.searches);
      w.kv("rows", l.rows).kv("dots", l.dots);
      w.kv("sim_cycles", l.sim_cycles).kv("est_cycles", l.est_cycles);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Spans as compact rows: [name, begin_ns, end_ns, rid, batch, value,
  // repeat]; kNoId ids are written as -1.
  w.key("spans").begin_object();
  w.kv("repeats", static_cast<std::uint64_t>(span_repeats_));
  w.kv("dropped", spans_dropped_);
  w.key("rows").begin_array();
  for (const SpanRow& s : spans_) {
    w.begin_array();
    w.value(s.rec.name);
    w.value(static_cast<std::uint64_t>(s.rec.t_begin_ns));
    w.value(static_cast<std::uint64_t>(s.rec.t_end_ns));
    w.value(id_or_minus_one(s.rec.rid)).value(id_or_minus_one(s.rec.batch));
    w.value(id_or_minus_one(s.rec.value));
    w.value(static_cast<std::uint64_t>(s.repeat));
    w.end_array();
  }
  w.end_array();
  w.end_object();

  w.key("steps").begin_array();
  for (const LadderStep& s : steps_) {
    w.begin_object();
    w.kv("rate_rps", s.rate_rps).kv("seconds", s.seconds);
    w.kv("traced", s.traced).kv("role", s.role);
    w.end_object();
  }
  w.end_array();

  // Requests as rows, column order given by "request_columns".
  w.key("request_columns").begin_array();
  for (const char* c :
       {"step", "scheduled_ns", "sent_ns", "admit_ns", "done_ns",
        "admission", "ok", "expired", "slo_met", "downgraded",
        "queue_s", "total_s", "batch_size", "tier", "id"})
    w.value(c);
  w.end_array();
  w.key("requests").begin_array();
  for (const RequestRow& r : requests_) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(r.step));
    w.value(r.scheduled_ns).value(r.sent_ns).value(r.admit_ns);
    w.value(r.done_ns).value(r.admission);
    w.value(r.ok).value(r.expired).value(r.slo_met).value(r.downgraded);
    w.value(r.queue_s).value(r.total_s);
    w.value(static_cast<std::uint64_t>(r.batch_size));
    w.value(r.tier).value(r.id);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

TraceWindow::TraceWindow(bool on) : on_(on) {
  if (!on_) return;
  auto& rec = obs::TraceRecorder::instance();
  rec.set_level(obs::TraceLevel::kOff);
  rec.clear();
  rec.set_level(obs::TraceLevel::kFull);
}

TraceWindow::~TraceWindow() {
  if (on_) obs::TraceRecorder::instance().set_level(obs::TraceLevel::kOff);
}

void TraceWindow::finish(Report& report) {
  if (!on_) return;
  on_ = false;
  auto& rec = obs::TraceRecorder::instance();
  rec.set_level(obs::TraceLevel::kOff);
  report.spans(rec.collect(), rec.dropped());
  rec.clear();
}

}  // namespace perfbench
