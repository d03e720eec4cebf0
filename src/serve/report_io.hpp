// Serving report serialization: JSON + human-readable server summaries.
//
// One shared, locale-proof format (common/json.hpp + common/format.hpp)
// for every artifact the serving layer produces — the serve_loadgen
// example, bench/serve_throughput's --json artifact (BENCH_pr9.json in CI)
// all emit these serializers instead of ad-hoc printing. Both functions are
// pure: byte-identical output for equal summaries, pinned by the golden
// tests in tests/golden/.
#pragma once

#include <string>

#include "common/json.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/loadgen.hpp"
#include "serve/metrics.hpp"

namespace deepcam::serve {

/// Appends the load generator's view of one replay (admission counts,
/// offered/achieved rate, end-to-end latency percentiles) as one JSON
/// object — the client-side complement of the server summary.
void load_report_json(JsonWriter& json, const LoadReport& load);

/// Appends `summary` as one JSON object ({elapsed, workers, queue stats,
/// sessions:[...]}) to an in-progress writer — embeddable into larger
/// artifacts (bench/serve_throughput's --json output).
void server_summary_json(JsonWriter& json, const ServerSummary& summary);

/// Self-contained JSON document for one ServerSummary.
std::string server_summary_to_json(const ServerSummary& summary);

/// Multi-line human-readable view (totals + one line per session).
std::string server_summary_text(const ServerSummary& summary);

/// Registers a scrape-time collector on `registry` that renders one
/// Server::snapshot() per scrape as Prometheus families (the declared
/// counters of serve/metrics.hpp, server gauges, per-session
/// latency/queue-wait histograms, the two queue-depth streams, and one
/// labeled health gauge per replica). The server must outlive the
/// registry's scrapes. Every sample of a scrape comes from that one
/// locked snapshot, so the series agree with each other — the serving hot
/// path never touches the registry.
void register_prometheus_collector(obs::MetricsRegistry& registry,
                                   const Server& server);

}  // namespace deepcam::serve
