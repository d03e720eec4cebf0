// ServerMetrics: per-session, per-SLO-class and server-wide serving
// counters.
//
// Every serving counter is declared once, in one of the three lists
// below (DEEPCAM_SERVE_*_COUNTERS): its summary member, which is also its
// JSON key, and its Prometheus family and help text. The summary structs
// are generated from the lists, ServerMetrics counts in those structs'
// own fields, and the JSON and Prometheus views (serve/report_io) loop
// over the lists. Beside the counters, ServerMetrics keeps end-to-end
// latency and queue-wait histograms (p50/p95/p99 via
// common/histogram.hpp), the micro-batch size distribution, in-flight
// gauges, two queue-depth streams and, per SLO class, deadline-slack
// histograms (spare margin of met requests / lateness of missed ones).
//
// Updates come from several server worker threads; one mutex guards the
// whole object (all updates are O(1)-ish and off the engine's inner loop).
// The object never reads a clock: callers pass durations they computed
// with the server's injected ClockSource, so metrics inherit the virtual
// clock's determinism in tests. snapshot() freezes everything under one
// lock, so the summary, JSON and Prometheus views of it always agree.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/replica.hpp"
#include "serve/request.hpp"

// X(member, family, help): `member` is the summary field and its JSON key;
// `family` is the Prometheus counter it is exported as (labeled by session
// or SLO class on the row types), or nullptr for none; `help` documents
// the counter and is the family's HELP text.
#define DEEPCAM_SERVE_SESSION_COUNTERS(X)                                    \
  X(accepted, "deepcam_requests_accepted_total", "Admitted requests")        \
  X(rejected, "deepcam_requests_rejected_total",                             \
    "Admission rejections (backpressure + closed + shed)")                   \
  X(shed, "deepcam_requests_shed_total",                                     \
    "Watermark sheds (subset of rejected)")                                  \
  X(completed, "deepcam_requests_completed_total",                           \
    "Responses delivered (incl errors + expired)")                           \
  X(errors, "deepcam_requests_errors_total", "Engine failures")              \
  X(expired, "deepcam_requests_expired_total",                               \
    "Answered without running (deadline lapsed)")                            \
  X(downgraded, "deepcam_requests_downgraded_total",                         \
    "Rerouted to a fallback tier")                                           \
  X(batches, "deepcam_batches_dispatched_total", "Micro-batches dispatched")

#define DEEPCAM_SERVE_CLASS_COUNTERS(X)                                      \
  X(accepted, nullptr, "Admitted requests")                                  \
  X(shed, nullptr, "Admission-time watermark rejections")                    \
  X(completed, nullptr, "Responses delivered (incl errors + expired)")       \
  X(errors, nullptr, "Engine failures")                                      \
  X(expired, nullptr, "Answered without running (deadline lapsed)")          \
  X(downgraded, nullptr, "Served by a fallback tier")                        \
  X(slo_met, "deepcam_slo_met_total",                                        \
    "Responses completed within their deadline")

// Retries count re-queued riders; failovers are the subset whose retry
// succeeded on a different replica; hedges split into won (the
// duplicate's answer was used) and wasted (the loser executed anyway).
#define DEEPCAM_SERVE_SERVER_COUNTERS(X)                                     \
  X(unknown_session_rejected,                                                \
    "deepcam_requests_rejected_unknown_session_total",                       \
    "Rejections that resolved to no session")                                \
  X(total_retries, "deepcam_retries_total", "Re-queued failed riders")       \
  X(total_failovers, "deepcam_failovers_total",                              \
    "Retries that succeeded on another replica")                             \
  X(total_hedges, "deepcam_hedges_total", "Hedged micro-batches")            \
  X(total_hedges_won, "deepcam_hedges_won_total",                            \
    "Hedges whose duplicate answer was used")                                \
  X(total_hedges_wasted, "deepcam_hedges_wasted_total",                      \
    "Hedges whose loser executed anyway")

#define DEEPCAM_SERVE_COUNTER_FIELD(member, family, help) \
  std::uint64_t member = 0;

namespace deepcam::serve {

/// Frozen per-session statistics (all latencies in milliseconds).
struct SessionSummary {
  std::string name;
  DEEPCAM_SERVE_SESSION_COUNTERS(DEEPCAM_SERVE_COUNTER_FIELD)
  double mean_batch_size = 0.0;
  double batch_size_p50 = 0.0;
  std::uint64_t max_batch_size = 0;
  std::uint64_t max_in_flight_batches = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double throughput_rps = 0.0;  // completed / elapsed
};

/// Frozen per-SLO-class statistics across all sessions.
struct SloClassSummary {
  std::string name;             // interactive | standard | batch
  DEEPCAM_SERVE_CLASS_COUNTERS(DEEPCAM_SERVE_COUNTER_FIELD)
  double goodput_rps = 0.0;     // slo_met / elapsed
  double slack_p50_ms = 0.0;    // spare margin of deadline-met responses
  double slack_p99_ms = 0.0;
  double overrun_p50_ms = 0.0;  // lateness of deadline-missed responses
  double overrun_max_ms = 0.0;
};

/// Frozen whole-server statistics.
struct ServerSummary {
  double elapsed_seconds = 0.0;
  std::size_t workers = 0;         // batcher threads
  std::size_t queue_capacity = 0;
  std::uint64_t max_queue_depth = 0;
  double queue_depth_p50 = 0.0;    // depth observed at each admission
  double queue_depth_p99 = 0.0;
  // Depth sampled inside the queue at micro-batch extraction (what the
  // batcher saw), the second stream next to admission-time sampling.
  double queue_depth_extract_p50 = 0.0;
  double queue_depth_extract_p99 = 0.0;
  std::uint64_t max_in_flight_batches = 0;  // across all sessions
  // unknown_session_rejected has no SessionSummary row to live in.
  DEEPCAM_SERVE_SERVER_COUNTERS(DEEPCAM_SERVE_COUNTER_FIELD)
  std::vector<SessionSummary> sessions;
  /// One row per (session, replica): health at snapshot time, breaker and
  /// canary activity, quarantine time.
  std::vector<ReplicaSummary> replicas;
  /// One row per SLO class, in priority order (interactive first).
  std::vector<SloClassSummary> classes;

  std::uint64_t total_completed() const;
  /// Per-session rejections plus unknown_session_rejected.
  std::uint64_t total_rejected() const;
  std::uint64_t total_shed() const;
  std::uint64_t total_expired() const;
  std::uint64_t total_downgraded() const;
  std::uint64_t total_slo_met() const;
  /// Completed requests per second across all sessions.
  double throughput_rps() const;
  /// SLO-met responses per second across all classes.
  double goodput_rps() const;
};

#undef DEEPCAM_SERVE_COUNTER_FIELD

/// One declared counter of a summary row type.
template <typename Row>
struct CounterDecl {
  std::uint64_t Row::*member;
  const char* key;     // JSON key: the member's name
  const char* family;  // Prometheus counter family, or nullptr
  const char* help;
};

#define DEEPCAM_SERVE_DECL(row, member, family, help) \
  CounterDecl<row>{&row::member, #member, family, help},
#define DEEPCAM_SERVE_SESSION_DECL(member, family, help) \
  DEEPCAM_SERVE_DECL(SessionSummary, member, family, help)
#define DEEPCAM_SERVE_CLASS_DECL(member, family, help) \
  DEEPCAM_SERVE_DECL(SloClassSummary, member, family, help)
#define DEEPCAM_SERVE_SERVER_DECL(member, family, help) \
  DEEPCAM_SERVE_DECL(ServerSummary, member, family, help)

inline constexpr std::array kSessionCounters{
    DEEPCAM_SERVE_SESSION_COUNTERS(DEEPCAM_SERVE_SESSION_DECL)};
inline constexpr std::array kClassCounters{
    DEEPCAM_SERVE_CLASS_COUNTERS(DEEPCAM_SERVE_CLASS_DECL)};
inline constexpr std::array kServerCounters{
    DEEPCAM_SERVE_SERVER_COUNTERS(DEEPCAM_SERVE_SERVER_DECL)};

#undef DEEPCAM_SERVE_SERVER_DECL
#undef DEEPCAM_SERVE_CLASS_DECL
#undef DEEPCAM_SERVE_SESSION_DECL
#undef DEEPCAM_SERVE_DECL

/// One read of ServerMetrics, taken under one lock: the summary's counter
/// rows and derived fields (percentiles, means, rates), plus the bucket
/// copies the Prometheus view renders. The server-side fields (workers,
/// queue capacity and peak depth, replica rows) are the Server's to fill.
struct ServerSnapshot {
  ServerSummary summary;
  std::vector<obs::HistogramSnapshot> latency;     // per session, seconds
  std::vector<obs::HistogramSnapshot> queue_wait;  // per session, seconds
  obs::HistogramSnapshot queue_depth_admission;
  obs::HistogramSnapshot queue_depth_extract;
};

class ServerMetrics {
 public:
  /// Queue-depth sampling points: right after an accepted admission
  /// (producer view) vs. at micro-batch extraction (consumer view). The
  /// two distributions diverge under bursts — admission samples cluster
  /// at the spike, extraction samples show what the batcher drained.
  enum class DepthStream { kAdmission = 0, kExtract = 1 };

  explicit ServerMetrics(std::size_t num_sessions);

  void on_admission(std::size_t session, Admission verdict, SloClass slo);
  /// A request named a session that does not exist.
  void on_unknown_session();
  /// A pressured request was rerouted from `session` to its fallback tier.
  void on_downgrade(std::size_t session, SloClass slo);
  /// Queue depth observed at one of the two sampling points.
  void on_queue_depth(DepthStream stream, std::size_t depth);
  /// A micro-batch of `batch_size` requests entered the engine; `session`'s
  /// in-flight gauge rises until the matching on_batch_complete.
  void on_batch_dispatch(std::size_t session, std::size_t batch_size);
  void on_batch_complete(std::size_t session);
  /// A response was delivered (completed, failed, or expired).
  void on_response(const Response& response);

  /// A failed rider was re-queued onto the surviving replicas.
  void on_retry();
  /// A retried rider later succeeded on a different replica.
  void on_failover();
  /// A hedged micro-batch resolved; `won` = the duplicate's answer was
  /// used, `wasted` = the losing submission executed anyway.
  void on_hedge(bool won, bool wasted);

  /// Freezes everything. `names[i]` labels session i; `elapsed_seconds`
  /// converts counts into rates.
  ServerSnapshot snapshot(const std::vector<std::string>& names,
                          double elapsed_seconds) const;

 private:
  // The declared counters (and the peak gauges) are counted in the rows
  // snapshot() copies out; the rest is what the derived fields need.
  struct SessionState {
    SessionSummary row;
    std::uint64_t batched_requests = 0;
    std::uint64_t in_flight = 0;
    Histogram latency{1e-6, 1e3, 96, 65536};     // seconds
    Histogram queue_wait{1e-6, 1e3, 96, 65536};  // seconds
    Histogram batch_sizes{0.5, 4096.0, 64, 65536};
  };

  struct ClassState {
    SloClassSummary row;
    // Deadline slack is signed; histograms are positive-domain, so the
    // margin of met responses and the lateness of missed ones live apart.
    Histogram slack{1e-6, 1e3, 96, 65536};    // seconds, deadline met
    Histogram overrun{1e-6, 1e3, 96, 65536};  // seconds, deadline missed
  };

  mutable std::mutex mu_;
  std::vector<SessionState> sessions_;
  std::array<ClassState, kNumSloClasses> classes_;
  ServerSummary server_;  // server counters and max_in_flight_batches
  Histogram queue_depths_{0.5, 1 << 20, 64, 65536};          // admission
  Histogram queue_depths_extract_{0.5, 1 << 20, 64, 65536};  // extraction
  std::uint64_t in_flight_ = 0;
};

}  // namespace deepcam::serve
