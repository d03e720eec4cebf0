#include "serve/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace deepcam::serve {

std::uint64_t ServerSummary::total_completed() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.completed;
  return n;
}

std::uint64_t ServerSummary::total_rejected() const {
  std::uint64_t n = unknown_session_rejected;
  for (const auto& s : sessions) n += s.rejected;
  return n;
}

std::uint64_t ServerSummary::total_shed() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.shed;
  return n;
}

std::uint64_t ServerSummary::total_expired() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.expired;
  return n;
}

std::uint64_t ServerSummary::total_downgraded() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.downgraded;
  return n;
}

std::uint64_t ServerSummary::total_slo_met() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.slo_met;
  return n;
}

double ServerSummary::throughput_rps() const {
  return elapsed_seconds > 0.0
             ? static_cast<double>(total_completed()) / elapsed_seconds
             : 0.0;
}

double ServerSummary::goodput_rps() const {
  return elapsed_seconds > 0.0
             ? static_cast<double>(total_slo_met()) / elapsed_seconds
             : 0.0;
}

ServerMetrics::ServerMetrics(std::size_t num_sessions)
    : sessions_(num_sessions) {}

void ServerMetrics::on_admission(std::size_t session, Admission verdict,
                                 SloClass slo) {
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK(session < sessions_.size());
  SessionSummary& s = sessions_[session].row;
  SloClassSummary& c = classes_[static_cast<std::size_t>(slo)].row;
  if (verdict == Admission::kAccepted) {
    ++s.accepted;
    ++c.accepted;
  } else {
    ++s.rejected;
    if (verdict == Admission::kRejectedShed) {
      ++s.shed;
      ++c.shed;
    }
  }
}

void ServerMetrics::on_unknown_session() {
  std::lock_guard<std::mutex> lk(mu_);
  ++server_.unknown_session_rejected;
}

void ServerMetrics::on_downgrade(std::size_t session, SloClass slo) {
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK(session < sessions_.size());
  ++sessions_[session].row.downgraded;
  ++classes_[static_cast<std::size_t>(slo)].row.downgraded;
}

void ServerMetrics::on_queue_depth(DepthStream stream, std::size_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  (stream == DepthStream::kAdmission ? queue_depths_
                                     : queue_depths_extract_)
      .add(static_cast<double>(depth));
}

void ServerMetrics::on_batch_dispatch(std::size_t session,
                                      std::size_t batch_size) {
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK(session < sessions_.size());
  SessionState& s = sessions_[session];
  ++s.row.batches;
  s.batched_requests += batch_size;
  s.batch_sizes.add(static_cast<double>(batch_size));
  s.row.max_batch_size =
      std::max<std::uint64_t>(s.row.max_batch_size, batch_size);
  ++s.in_flight;
  s.row.max_in_flight_batches =
      std::max(s.row.max_in_flight_batches, s.in_flight);
  ++in_flight_;
  server_.max_in_flight_batches =
      std::max(server_.max_in_flight_batches, in_flight_);
}

void ServerMetrics::on_batch_complete(std::size_t session) {
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK(session < sessions_.size());
  DEEPCAM_CHECK(sessions_[session].in_flight > 0 && in_flight_ > 0);
  --sessions_[session].in_flight;
  --in_flight_;
}

void ServerMetrics::on_response(const Response& response) {
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK(response.session < sessions_.size());
  SessionState& st = sessions_[response.session];
  ClassState& ct = classes_[static_cast<std::size_t>(response.slo)];
  SessionSummary& s = st.row;
  SloClassSummary& c = ct.row;
  ++s.completed;
  ++c.completed;
  if (response.expired) {
    ++s.expired;
    ++c.expired;
  } else if (!response.ok()) {
    ++s.errors;
    ++c.errors;
  }
  if (response.slo_met()) ++c.slo_met;
  if (response.had_deadline && !response.expired && response.ok()) {
    if (response.slack_seconds >= 0.0)
      ct.slack.add(std::max(response.slack_seconds, 1e-9));
    else
      ct.overrun.add(std::max(-response.slack_seconds, 1e-9));
  }
  st.latency.add(response.total_seconds);
  st.queue_wait.add(response.queue_seconds);
}

void ServerMetrics::on_retry() {
  std::lock_guard<std::mutex> lk(mu_);
  ++server_.total_retries;
}

void ServerMetrics::on_failover() {
  std::lock_guard<std::mutex> lk(mu_);
  ++server_.total_failovers;
}

void ServerMetrics::on_hedge(bool won, bool wasted) {
  std::lock_guard<std::mutex> lk(mu_);
  ++server_.total_hedges;
  if (won) ++server_.total_hedges_won;
  if (wasted) ++server_.total_hedges_wasted;
}

ServerSnapshot ServerMetrics::snapshot(const std::vector<std::string>& names,
                                       double elapsed_seconds) const {
  const auto rate = [elapsed_seconds](std::uint64_t n) {
    return elapsed_seconds > 0.0
               ? static_cast<double>(n) / elapsed_seconds
               : 0.0;
  };
  ServerSnapshot out;
  std::lock_guard<std::mutex> lk(mu_);
  DEEPCAM_CHECK_MSG(names.size() == sessions_.size(),
                    "one name per session required");
  ServerSummary& s = out.summary;
  s = server_;
  s.elapsed_seconds = elapsed_seconds;
  s.queue_depth_p50 = queue_depths_.percentile(50.0);
  s.queue_depth_p99 = queue_depths_.percentile(99.0);
  s.queue_depth_extract_p50 = queue_depths_extract_.percentile(50.0);
  s.queue_depth_extract_p99 = queue_depths_extract_.percentile(99.0);
  out.queue_depth_admission = obs::histogram_snapshot(queue_depths_);
  out.queue_depth_extract = obs::histogram_snapshot(queue_depths_extract_);

  s.sessions.reserve(sessions_.size());
  out.latency.reserve(sessions_.size());
  out.queue_wait.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const SessionState& c = sessions_[i];
    SessionSummary& r = s.sessions.emplace_back(c.row);
    r.name = names[i];
    r.mean_batch_size =
        r.batches > 0 ? static_cast<double>(c.batched_requests) /
                            static_cast<double>(r.batches)
                      : 0.0;
    r.batch_size_p50 = c.batch_sizes.percentile(50.0);
    r.latency_p50_ms = c.latency.percentile(50.0) * 1e3;
    r.latency_p95_ms = c.latency.percentile(95.0) * 1e3;
    r.latency_p99_ms = c.latency.percentile(99.0) * 1e3;
    r.latency_mean_ms = c.latency.mean() * 1e3;
    r.latency_max_ms = c.latency.max() * 1e3;
    r.queue_wait_p50_ms = c.queue_wait.percentile(50.0) * 1e3;
    r.queue_wait_p99_ms = c.queue_wait.percentile(99.0) * 1e3;
    r.throughput_rps = rate(r.completed);
    out.latency.push_back(obs::histogram_snapshot(c.latency));
    out.queue_wait.push_back(obs::histogram_snapshot(c.queue_wait));
  }

  s.classes.reserve(kNumSloClasses);
  for (std::size_t i = 0; i < kNumSloClasses; ++i) {
    const ClassState& c = classes_[i];
    SloClassSummary& r = s.classes.emplace_back(c.row);
    r.name = to_string(static_cast<SloClass>(i));
    r.goodput_rps = rate(r.slo_met);
    r.slack_p50_ms = c.slack.percentile(50.0) * 1e3;
    r.slack_p99_ms = c.slack.percentile(99.0) * 1e3;
    r.overrun_p50_ms = c.overrun.percentile(50.0) * 1e3;
    r.overrun_max_ms = c.overrun.max() * 1e3;
  }
  return out;
}

}  // namespace deepcam::serve
