#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "common/error.hpp"

namespace deepcam::obs {

namespace {

// Shortest round-trip double, locale-independent (Prometheus values and
// le= bounds must not pick up a comma decimal separator from LC_NUMERIC).
std::string format_value(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  DEEPCAM_CHECK_MSG(res.ec == std::errc(), "metric value overflow");
  return std::string(buf, res.ptr);
}

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string label_block(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// le= bound plus the extra labels, for _bucket lines.
std::string bucket_label_block(const MetricLabels& labels,
                               const std::string& le) {
  MetricLabels with_le = labels;
  with_le.emplace_back("le", le);
  return label_block(with_le);
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

void MetricsRegistry::add_collector(Collector c) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  collectors_.push_back(std::move(c));
}

void MetricsRegistry::set_counter(const std::string& name,
                                  const std::string& help,
                                  MetricLabels labels, double value) {
  Sample s;
  s.labels = std::move(labels);
  s.value = value;
  publish(name, MetricKind::kCounter, help, std::move(s));
}

void MetricsRegistry::set_gauge(const std::string& name,
                                const std::string& help, MetricLabels labels,
                                double value) {
  Sample s;
  s.labels = std::move(labels);
  s.value = value;
  publish(name, MetricKind::kGauge, help, std::move(s));
}

HistogramSnapshot histogram_snapshot(const Histogram& h) {
  HistogramSnapshot snap;
  const auto& counts = h.bucket_counts();
  snap.counts = counts;
  snap.upper_bounds.reserve(counts.size());
  for (std::size_t b = 0; b < counts.size(); ++b) {
    snap.upper_bounds.push_back(h.bucket_upper(b));
  }
  snap.count = h.count();
  snap.sum = h.sum();
  return snap;
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& help,
                                    MetricLabels labels, const Histogram& h) {
  set_histogram(name, help, std::move(labels), histogram_snapshot(h));
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& help,
                                    MetricLabels labels,
                                    HistogramSnapshot snapshot) {
  DEEPCAM_CHECK_MSG(snapshot.upper_bounds.size() == snapshot.counts.size(),
                    "histogram snapshot bounds/counts size mismatch");
  Sample s;
  s.labels = std::move(labels);
  s.histogram = std::move(snapshot);
  publish(name, MetricKind::kHistogram, help, std::move(s));
}

void MetricsRegistry::publish(const std::string& name, MetricKind kind,
                              const std::string& help, Sample sample) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  auto it = std::lower_bound(
      families_.begin(), families_.end(), name,
      [](const auto& fam, const std::string& n) { return fam.first < n; });
  if (it == families_.end() || it->first != name) {
    Family fam;
    fam.kind = kind;
    fam.help = help;
    it = families_.insert(it, {name, std::move(fam)});
  }
  DEEPCAM_CHECK_MSG(it->second.kind == kind,
                    "metric family republished with a different kind");
  auto& samples = it->second.samples;
  const std::string sig = label_block(sample.labels);
  for (auto& existing : samples) {
    if (label_block(existing.labels) == sig) {
      existing = std::move(sample);
      return;
    }
  }
  samples.push_back(std::move(sample));
}

std::string MetricsRegistry::expose() {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  families_.clear();
  for (const auto& collector : collectors_) collector(*this);

  std::string out;
  for (auto& [name, fam] : families_) {
    out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " " + std::string(kind_name(fam.kind)) + "\n";
    std::sort(fam.samples.begin(), fam.samples.end(),
              [](const Sample& a, const Sample& b) {
                return label_block(a.labels) < label_block(b.labels);
              });
    for (const auto& s : fam.samples) {
      if (fam.kind != MetricKind::kHistogram) {
        out += name + label_block(s.labels) + " " + format_value(s.value) +
               "\n";
        continue;
      }
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < s.histogram.counts.size(); ++b) {
        cum += s.histogram.counts[b];
        out += name + "_bucket" +
               bucket_label_block(
                   s.labels, format_value(s.histogram.upper_bounds[b])) +
               " " + std::to_string(cum) + "\n";
      }
      out += name + "_bucket" + bucket_label_block(s.labels, "+Inf") + " " +
             std::to_string(s.histogram.count) + "\n";
      out += name + "_sum" + label_block(s.labels) + " " +
             format_value(s.histogram.sum) + "\n";
      out += name + "_count" + label_block(s.labels) + " " +
             std::to_string(s.histogram.count) + "\n";
    }
  }
  return out;
}

void write_metrics_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) throw Error("failed to write metrics file: " + path);
}

}  // namespace deepcam::obs
