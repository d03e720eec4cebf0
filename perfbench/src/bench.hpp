// Shared plumbing of deepcam_perfbench: arguments, timing, input
// generation and the raw-measurement report.
//
// The binary only measures and checks. It prints one JSON document of raw
// samples (per-repeat timings, per-request records, collected trace spans,
// per-layer work counts, check verdicts) and perfbench/analysis.py reduces
// it to the named metrics, so every statistic is computed in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "nn/tensor.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace nn = deepcam::nn;
namespace obs = deepcam::obs;

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nanoseconds of `t` on the steady clock (the trace recorder's default
/// time base, so request stamps and span stamps share one axis).
inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Set-up runs repeatedly so setup_s is a median: at least 3 times, and
/// cheap set-ups keep repeating until 1 s has gone by since `first` (at most
/// 50 times). True while another set-up should run.
inline bool more_setups(int done, Clock::time_point first) {
  return done < 3 || (done < 50 && seconds_since(first) < 1.0);
}

/// SplitMix64 step: derives independent sub-seeds from the run's --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` single-sample inputs of `shape`, one sub-seed each.
std::vector<nn::Tensor> make_inputs(const nn::Shape& shape, std::size_t count,
                                    std::uint64_t seed);

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Work of one CAM layer for one sample, next to its simulated cycles and
/// the cost model's prediction of them.
struct LayerWork {
  std::string name;
  std::uint64_t macs = 0;      // projection GEMM: patches * n * k
  std::uint64_t searches = 0;
  std::uint64_t rows = 0;      // CAM rows written
  std::uint64_t dots = 0;      // post-processed dot products
  std::uint64_t sim_cycles = 0;
  std::uint64_t est_cycles = 0;
};

/// One compiled configuration (a serve tier, or the single offline model).
struct Tier {
  std::string name;
  std::vector<LayerWork> layers;
};

/// One open-loop request, times in steady-clock nanoseconds.
struct RequestRow {
  std::size_t step = 0;     // ladder step index
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t admit_ns = 0;  // duration of the submit() call
  std::int64_t done_ns = -1;  // -1: never answered
  std::string admission;      // serve::to_string(Admission)
  int calls = 0;              // on_done invocations
  bool ok = false;
  bool expired = false;
  bool slo_met = false;
  bool downgraded = false;
  double queue_s = 0.0;
  double total_s = 0.0;
  std::size_t batch_size = 0;
  std::string tier;
  std::uint64_t id = 0;       // server request id (trace span rid)
};

struct LadderStep {
  double rate_rps = 0.0;
  double seconds = 0.0;
  bool traced = false;
  // "warmup", "ladder", "mid" (latency is reported here), or, in traced
  // runs only, "mid-untraced" and "top-traced".
  std::string role;
};

class Report;

/// Per-layer work of one sample's RunReport next to plan::CostModel's
/// estimate for the same model and configuration. Records the exact-match
/// check `cost_model.<tier>` and accumulates plan.cycles_abs_err.
Tier layer_table(const std::string& tier,
                 const deepcam::core::CompiledModel& compiled,
                 const nn::Shape& input,
                 const deepcam::core::RunReport& sample, Report& report);

/// Times codelet::kernels().project_cols directly on the largest hash
/// shape (patches x n x k) of `sample`, so kernel speed shows apart from
/// im2col and sign packing. Appends codelet.project_cols.gmac_per_s.
void bench_project_cols(const deepcam::core::RunReport& sample,
                        std::uint64_t seed, Report& report);

class Report {
 public:
  /// Appends one repeat of a series (analysis takes median/percentile).
  void sample(const std::string& series, double v) {
    series_[series].push_back(v);
  }
  void scalar(const std::string& name, double v) { scalars_[name] = v; }
  void add_scalar(const std::string& name, double v) { scalars_[name] += v; }
  void check(const std::string& name, bool ok, const std::string& detail);
  void ops(std::uint64_t n) { attempted_ += n; }
  void op_failed(std::uint64_t n) { failed_ += n; }
  void tier(Tier t) { tiers_.push_back(std::move(t)); }
  /// Collected spans of one traced repeat, tagged with its index.
  void spans(const std::vector<obs::SpanRecord>& spans,
             std::uint64_t dropped);
  void request(RequestRow r) { requests_.push_back(std::move(r)); }
  void step(LadderStep s) { steps_.push_back(std::move(s)); }

  bool all_checks_ok() const;
  std::string json(const Args& args) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct SpanRow {
    obs::SpanRecord rec;
    std::size_t repeat;
  };
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> scalars_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Tier> tiers_;
  std::vector<SpanRow> spans_;
  std::size_t span_repeats_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::vector<RequestRow> requests_;
  std::vector<LadderStep> steps_;
};

/// Arms the process-global recorder at TraceLevel::kFull for one scope
/// when `on`; the destructor stops recording. Spans are taken with
/// finish() (collect + drop count) before the next repeat clears them.
class TraceWindow {
 public:
  explicit TraceWindow(bool on);
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;
  /// Stops recording and hands the spans to `report`. Idempotent.
  void finish(Report& report);

 private:
  bool on_;
};

void run_offline_vgg11(const Args& args, Report& report);
void run_offline_wide(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);
void run_paper(const Args& args, Report& report);

}  // namespace perfbench
