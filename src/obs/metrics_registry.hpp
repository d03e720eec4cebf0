// Pull-based metrics registry with Prometheus text exposition.
//
// The registry holds no live counters of its own: producers register
// collector callbacks that are invoked at scrape time (expose()) and
// publish point-in-time samples via set_counter/set_gauge/set_histogram.
// That keeps the hot serving path free of registry coupling. The serving
// tier's collector (serve/report_io) renders one locked ServerMetrics
// snapshot, looping over the counter declarations in serve/metrics.hpp
// for names and help text.
//
// Exposition follows the Prometheus text format (0.0.4): families sorted
// by metric name, samples sorted by label signature, values formatted
// through std::to_chars (locale-proof, like every other serializer in
// this repo), histograms expanded to cumulative _bucket{le=...} series
// plus _sum and _count.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"

namespace deepcam::obs {

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One bucketed distribution snapshot (cumulative counts are computed at
/// render time from the per-bucket counts).
struct HistogramSnapshot {
  std::vector<double> upper_bounds;  // per-bucket le= upper edges
  std::vector<std::uint64_t> counts;  // per-bucket (non-cumulative)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Bucket edges, counts, count and sum of `h`: what set_histogram renders.
HistogramSnapshot histogram_snapshot(const Histogram& h);

class MetricsRegistry {
 public:
  using Collector = std::function<void(MetricsRegistry&)>;

  /// Registers a scrape-time callback; invoked (in registration order) by
  /// every expose().
  void add_collector(Collector c);

  /// Publish one sample. `help` is taken from the first publisher of a
  /// family per scrape. Re-publishing the same (name, labels) within one
  /// scrape overwrites.
  void set_counter(const std::string& name, const std::string& help,
                   MetricLabels labels, double value);
  void set_gauge(const std::string& name, const std::string& help,
                 MetricLabels labels, double value);
  void set_histogram(const std::string& name, const std::string& help,
                     MetricLabels labels, const Histogram& h);
  void set_histogram(const std::string& name, const std::string& help,
                     MetricLabels labels, HistogramSnapshot snapshot);

  /// Runs every collector over a fresh sample set and renders the
  /// Prometheus text exposition.
  std::string expose();

 private:
  struct Sample {
    MetricLabels labels;
    double value = 0.0;
    HistogramSnapshot histogram;  // kHistogram only
  };
  struct Family {
    MetricKind kind = MetricKind::kGauge;
    std::string help;
    std::vector<Sample> samples;
  };

  void publish(const std::string& name, MetricKind kind,
               const std::string& help, Sample sample);

  // Recursive because expose() holds the lock while collectors call back
  // into the set_* publishers.
  std::recursive_mutex mu_;
  std::vector<Collector> collectors_;
  std::vector<std::pair<std::string, Family>> families_;  // name-sorted
};

/// Writes `text` to `path`; throws Error on I/O failure.
void write_metrics_file(const std::string& path, const std::string& text);

}  // namespace deepcam::obs
