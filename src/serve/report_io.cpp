#include "serve/report_io.hpp"

#include <cstdio>
#include <span>
#include <sstream>

#include "common/format.hpp"
#include "serve/server.hpp"

namespace deepcam::serve {

namespace {

/// Emits every declared counter of `row`, in declaration order.
template <typename Decls, typename Row>
void counters_json(JsonWriter& json, const Decls& decls, const Row& row) {
  for (const auto& c : decls) json.kv(c.key, row.*c.member);
}

/// Publishes every declared counter of `row` that has a family.
template <typename Decls, typename Row>
void publish_counters(obs::MetricsRegistry& reg, const Decls& decls,
                      const Row& row, const obs::MetricLabels& labels) {
  for (const auto& c : decls)
    if (c.family != nullptr)
      reg.set_counter(c.family, c.help, labels,
                      static_cast<double>(row.*c.member));
}

}  // namespace

void load_report_json(JsonWriter& json, const LoadReport& load) {
  json.begin_object();
  json.kv("sent", load.sent);
  json.kv("rejected", load.rejected);
  json.kv("shed", load.shed);
  json.kv("errors", load.errors);
  json.kv("expired", load.expired);
  json.kv("slo_met", load.slo_met);
  json.kv("duration_seconds", load.duration_seconds);
  json.kv("offered_rps", load.offered_rps);
  json.kv("achieved_rps", load.achieved_rps);
  json.kv("goodput_rps", load.goodput_rps);
  json.kv("latency_p50_ms", load.percentile_ms(50));
  json.kv("latency_p95_ms", load.percentile_ms(95));
  json.kv("latency_p99_ms", load.percentile_ms(99));
  json.kv("latency_p999_ms", load.percentile_ms(99.9));
  json.kv("latency_max_ms", load.latency.max() * 1e3);
  json.end_object();
}

void server_summary_json(JsonWriter& json, const ServerSummary& s) {
  json.begin_object();
  json.kv("elapsed_seconds", s.elapsed_seconds);
  json.kv("workers", s.workers);
  json.kv("queue_capacity", s.queue_capacity);
  json.kv("max_queue_depth", s.max_queue_depth);
  json.kv("queue_depth_p50", s.queue_depth_p50);
  json.kv("queue_depth_p99", s.queue_depth_p99);
  json.kv("queue_depth_extract_p50", s.queue_depth_extract_p50);
  json.kv("queue_depth_extract_p99", s.queue_depth_extract_p99);
  json.kv("max_in_flight_batches", s.max_in_flight_batches);
  // The derived totals sit between the first server counter
  // (unknown_session_rejected) and the fault-tolerance counters.
  const std::span<const CounterDecl<ServerSummary>> counters(kServerCounters);
  counters_json(json, counters.first(1), s);
  json.kv("total_completed", s.total_completed());
  json.kv("total_rejected", s.total_rejected());
  json.kv("total_shed", s.total_shed());
  json.kv("total_expired", s.total_expired());
  json.kv("total_downgraded", s.total_downgraded());
  json.kv("total_slo_met", s.total_slo_met());
  counters_json(json, counters.subspan(1), s);
  json.kv("throughput_rps", s.throughput_rps());
  json.kv("goodput_rps", s.goodput_rps());
  json.key("sessions").begin_array();
  for (const auto& sess : s.sessions) {
    json.begin_object();
    json.kv("name", sess.name);
    counters_json(json, kSessionCounters, sess);
    json.kv("mean_batch_size", sess.mean_batch_size);
    json.kv("batch_size_p50", sess.batch_size_p50);
    json.kv("max_batch_size", sess.max_batch_size);
    json.kv("max_in_flight_batches", sess.max_in_flight_batches);
    json.kv("latency_p50_ms", sess.latency_p50_ms);
    json.kv("latency_p95_ms", sess.latency_p95_ms);
    json.kv("latency_p99_ms", sess.latency_p99_ms);
    json.kv("latency_mean_ms", sess.latency_mean_ms);
    json.kv("latency_max_ms", sess.latency_max_ms);
    json.kv("queue_wait_p50_ms", sess.queue_wait_p50_ms);
    json.kv("queue_wait_p99_ms", sess.queue_wait_p99_ms);
    json.kv("throughput_rps", sess.throughput_rps);
    json.end_object();
  }
  json.end_array();
  json.key("replicas").begin_array();
  for (const auto& r : s.replicas) {
    json.begin_object();
    json.kv("session", r.session);
    json.kv("replica", r.replica);
    json.kv("health", r.health);
    json.kv("batches", r.batches);
    json.kv("failures", r.failures);
    json.kv("transitions", r.transitions);
    json.kv("canary_probes", r.canary_probes);
    json.kv("quarantine_seconds", r.quarantine_seconds);
    json.kv("error_ewma", r.error_ewma);
    json.kv("latency_ewma_ms", r.latency_ewma_ms);
    json.end_object();
  }
  json.end_array();
  json.key("classes").begin_array();
  for (const auto& c : s.classes) {
    json.begin_object();
    json.kv("name", c.name);
    counters_json(json, kClassCounters, c);
    json.kv("goodput_rps", c.goodput_rps);
    json.kv("slack_p50_ms", c.slack_p50_ms);
    json.kv("slack_p99_ms", c.slack_p99_ms);
    json.kv("overrun_p50_ms", c.overrun_p50_ms);
    json.kv("overrun_max_ms", c.overrun_max_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::string server_summary_to_json(const ServerSummary& summary) {
  JsonWriter json;
  server_summary_json(json, summary);
  return json.str();
}

std::string server_summary_text(const ServerSummary& s) {
  std::ostringstream os;
  char buf[320];
  // Float conversions go through format.hpp (locale-proof); snprintf only
  // assembles integers and pre-formatted strings.
  std::snprintf(buf, sizeof buf,
                "Server: %zu workers, queue %zu (max depth %llu, "
                "p99 %s admit / %s extract), "
                "%llu completed, %llu rejected in %s s (%s req/s, "
                "max %llu batches in flight)\n",
                s.workers, s.queue_capacity,
                static_cast<unsigned long long>(s.max_queue_depth),
                format_fixed(s.queue_depth_p99, 1).c_str(),
                format_fixed(s.queue_depth_extract_p99, 1).c_str(),
                static_cast<unsigned long long>(s.total_completed()),
                static_cast<unsigned long long>(s.total_rejected()),
                format_fixed(s.elapsed_seconds, 3).c_str(),
                format_fixed(s.throughput_rps(), 1).c_str(),
                static_cast<unsigned long long>(s.max_in_flight_batches));
  os << buf;
  std::snprintf(buf, sizeof buf,
                "SLO: %llu met (%s goodput req/s), %llu shed, "
                "%llu expired, %llu downgraded\n",
                static_cast<unsigned long long>(s.total_slo_met()),
                format_fixed(s.goodput_rps(), 1).c_str(),
                static_cast<unsigned long long>(s.total_shed()),
                static_cast<unsigned long long>(s.total_expired()),
                static_cast<unsigned long long>(s.total_downgraded()));
  os << buf;
  std::snprintf(buf, sizeof buf,
                "Faults: %llu retries (%llu failovers), %llu hedges "
                "(%llu won, %llu wasted)\n",
                static_cast<unsigned long long>(s.total_retries),
                static_cast<unsigned long long>(s.total_failovers),
                static_cast<unsigned long long>(s.total_hedges),
                static_cast<unsigned long long>(s.total_hedges_won),
                static_cast<unsigned long long>(s.total_hedges_wasted));
  os << buf;
  for (const auto& sess : s.sessions) {
    std::snprintf(
        buf, sizeof buf,
        "  %-14s %6llu ok %4llu err %4llu rej %4llu exp  batches=%-5llu "
        "(mean %s, max %llu)  p50=%s p95=%s p99=%s ms  %s req/s\n",
        sess.name.c_str(),
        static_cast<unsigned long long>(sess.completed - sess.errors -
                                        sess.expired),
        static_cast<unsigned long long>(sess.errors),
        static_cast<unsigned long long>(sess.rejected),
        static_cast<unsigned long long>(sess.expired),
        static_cast<unsigned long long>(sess.batches),
        format_fixed(sess.mean_batch_size, 2).c_str(),
        static_cast<unsigned long long>(sess.max_batch_size),
        format_fixed(sess.latency_p50_ms, 3).c_str(),
        format_fixed(sess.latency_p95_ms, 3).c_str(),
        format_fixed(sess.latency_p99_ms, 3).c_str(),
        format_fixed(sess.throughput_rps, 1).c_str());
    os << buf;
  }
  // Per-replica health lines only once the replica tier is actually
  // multi-replica — single-replica summaries keep the compact layout.
  if (s.replicas.size() > s.sessions.size()) {
    for (const auto& r : s.replicas) {
      std::snprintf(
          buf, sizeof buf,
          "  replica %-12s#%zu %-11s %6llu ok %4llu fail  "
          "transitions=%llu canaries=%llu quarantine=%s s\n",
          r.session.c_str(), r.replica, r.health.c_str(),
          static_cast<unsigned long long>(r.batches),
          static_cast<unsigned long long>(r.failures),
          static_cast<unsigned long long>(r.transitions),
          static_cast<unsigned long long>(r.canary_probes),
          format_fixed(r.quarantine_seconds, 3).c_str());
      os << buf;
    }
  }
  for (const auto& c : s.classes) {
    std::snprintf(
        buf, sizeof buf,
        "  class %-11s %6llu acc %4llu shed %4llu exp %4llu down  "
        "met=%-6llu (%s req/s)  slack p50=%s p99=%s ms\n",
        c.name.c_str(), static_cast<unsigned long long>(c.accepted),
        static_cast<unsigned long long>(c.shed),
        static_cast<unsigned long long>(c.expired),
        static_cast<unsigned long long>(c.downgraded),
        static_cast<unsigned long long>(c.slo_met),
        format_fixed(c.goodput_rps, 1).c_str(),
        format_fixed(c.slack_p50_ms, 3).c_str(),
        format_fixed(c.slack_p99_ms, 3).c_str());
    os << buf;
  }
  return os.str();
}

void register_prometheus_collector(obs::MetricsRegistry& registry,
                                   const Server& server) {
  registry.add_collector([&server](obs::MetricsRegistry& reg) {
    ServerSnapshot snap = server.snapshot();
    const ServerSummary& s = snap.summary;

    reg.set_gauge("deepcam_server_elapsed_seconds",
                  "Wall/virtual seconds since start()", {},
                  s.elapsed_seconds);
    reg.set_gauge("deepcam_server_workers", "Batcher/dispatch threads", {},
                  static_cast<double>(s.workers));
    reg.set_gauge("deepcam_queue_capacity", "Admission-control bound", {},
                  static_cast<double>(s.queue_capacity));
    reg.set_gauge("deepcam_queue_depth", "Current request-queue depth", {},
                  static_cast<double>(server.queue_depth()));
    reg.set_gauge("deepcam_queue_depth_max", "Peak request-queue depth", {},
                  static_cast<double>(s.max_queue_depth));
    reg.set_gauge("deepcam_batches_in_flight_max",
                  "Peak concurrently in-flight micro-batches", {},
                  static_cast<double>(s.max_in_flight_batches));
    publish_counters(reg, kServerCounters, s, {});

    // The two queue-depth sampling streams, labeled by sampling point.
    reg.set_histogram("deepcam_queue_depth_samples",
                      "Queue depth by sampling point",
                      {{"stream", "admission"}},
                      std::move(snap.queue_depth_admission));
    reg.set_histogram("deepcam_queue_depth_samples",
                      "Queue depth by sampling point",
                      {{"stream", "extract"}},
                      std::move(snap.queue_depth_extract));

    for (std::size_t i = 0; i < s.sessions.size(); ++i) {
      const SessionSummary& sess = s.sessions[i];
      const obs::MetricLabels labels{{"session", sess.name}};
      publish_counters(reg, kSessionCounters, sess, labels);
      reg.set_histogram("deepcam_request_latency_seconds",
                        "End-to-end request latency", labels,
                        std::move(snap.latency[i]));
      reg.set_histogram("deepcam_request_queue_wait_seconds",
                        "Admission-to-dispatch queue wait", labels,
                        std::move(snap.queue_wait[i]));
    }

    for (const SloClassSummary& c : s.classes) {
      const obs::MetricLabels labels{{"slo_class", c.name}};
      publish_counters(reg, kClassCounters, c, labels);
      reg.set_gauge("deepcam_goodput_rps",
                    "SLO-met responses per second", labels, c.goodput_rps);
    }

    for (const ReplicaSummary& r : s.replicas) {
      const obs::MetricLabels labels{
          {"session", r.session},
          {"replica", std::to_string(r.replica)},
          {"health", r.health}};
      reg.set_gauge("deepcam_replica_up",
                    "1 when the replica is healthy (label carries the "
                    "exact health state)",
                    labels, r.health == "healthy" ? 1.0 : 0.0);
      reg.set_counter("deepcam_replica_batches_total",
                      "Micro-batches served by this replica", labels,
                      static_cast<double>(r.batches));
      reg.set_counter("deepcam_replica_failures_total",
                      "Failed micro-batches on this replica", labels,
                      static_cast<double>(r.failures));
    }
  });
}

}  // namespace deepcam::serve
