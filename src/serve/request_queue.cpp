#include "serve/request_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace deepcam::serve {

RequestQueue::RequestQueue(std::size_t capacity, AdmissionPolicy admission,
                           ClockSource* clock)
    : capacity_(capacity),
      admission_(admission),
      clock_(clock != nullptr ? clock : &ClockSource::steady()) {
  DEEPCAM_CHECK_MSG(capacity >= 1, "request queue needs capacity >= 1");
  for (const double f : admission_.shed_depth_fraction)
    DEEPCAM_CHECK_MSG(f >= 0.0 && f <= 1.0,
                      "shed_depth_fraction must be within [0, 1]");
}

bool RequestQueue::should_shed(SloClass c, std::size_t depth) const {
  const std::size_t idx = static_cast<std::size_t>(c);
  const double frac = admission_.shed_depth_fraction[idx];
  if (frac < 1.0 &&
      static_cast<double>(depth) >= frac * static_cast<double>(capacity_))
    return true;
  if (admission_.est_service_rps > 0.0 &&
      admission_.max_wait[idx] > Clock::duration::zero()) {
    const double est_wait_s =
        static_cast<double>(depth) / admission_.est_service_rps;
    const double budget_s =
        std::chrono::duration<double>(admission_.max_wait[idx]).count();
    if (est_wait_s > budget_s) return true;
  }
  return false;
}

namespace {

bool lapsed(const Request& r, Clock::time_point now) {
  return r.has_deadline() && r.deadline <= now;
}

/// Head order: most urgent class first, admission order within it.
bool more_urgent(const Request& a, const Request& b) {
  if (a.slo != b.slo) return a.slo < b.slo;
  return a.seq < b.seq;
}

}  // namespace

Admission RequestQueue::enqueue(Request&& r, Enqueue mode) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Blocking admission waits for space; watermarks don't apply (the
    // closed-loop caller self-limits).
    if (mode == Enqueue::kBlock)
      space_cv_.wait(lk, [this] { return closed_ || q_.size() < capacity_; });
    // Closed-during-retry edge: a retried request bounces back to the
    // caller for a terminal error answer — parking it in a closed queue
    // would leak an accepted-but-never-answered request past drain().
    if (closed_) return Admission::kRejectedClosed;
    if (mode == Enqueue::kTry) {
      if (q_.size() >= capacity_) return Admission::kRejectedFull;
      if (should_shed(r.slo, q_.size())) return Admission::kRejectedShed;
    }
    if (mode != Enqueue::kRetry) {  // a retry keeps its original stamps
      r.enqueued = clock_->now();
      r.seq = next_seq_++;
    }
    q_.push_back(std::move(r));
    max_depth_ = std::max(max_depth_, q_.size());
  }
  data_cv_.notify_all();
  return Admission::kAccepted;
}

Admission RequestQueue::try_push(Request&& r) {
  return enqueue(std::move(r), Enqueue::kTry);
}

bool RequestQueue::push(Request&& r) {
  return enqueue(std::move(r), Enqueue::kBlock) == Admission::kAccepted;
}

bool RequestQueue::push_retry(Request&& r) {
  return enqueue(std::move(r), Enqueue::kRetry) == Admission::kAccepted;
}

const Request& RequestQueue::head() const {
  const Request* h = &q_.front();
  for (const Request& r : q_)
    if (more_urgent(r, *h)) h = &r;
  return *h;
}

void RequestQueue::extract(std::size_t session, std::size_t max_n,
                           Clock::time_point now, std::vector<Request>& batch,
                           std::vector<Request>* expired) {
  for (auto it = q_.begin(); it != q_.end() && batch.size() < max_n;) {
    if (it->session != session) {
      ++it;
      continue;
    }
    // Deadline already missed: answering it with an expiry beats burning a
    // batch slot on an answer nobody can use.
    if (expired != nullptr && lapsed(*it, now))
      expired->push_back(std::move(*it));
    else
      batch.push_back(std::move(*it));
    it = q_.erase(it);
  }
  space_cv_.notify_all();
}

std::vector<Request> RequestQueue::pop_micro_batch(
    const BatchPolicy& policy, std::vector<Request>* expired) {
  const std::size_t max_n = std::max<std::size_t>(policy.max_batch_size, 1);
  std::vector<Request> batch;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    data_cv_.wait(lk, [this] { return closed_ || !q_.empty(); });
    if (q_.empty()) return batch;  // closed and drained

    // Selection and first extraction are atomic (we hold the lock), so
    // concurrent dispatch loops always leave with distinct heads.
    const Request& h = head();
    const std::size_t session = h.session;
    Clock::time_point release = h.enqueued + policy.max_queue_delay;
    if (depth_observer_) depth_observer_(q_.size());
    extract(session, max_n, clock_->now(), batch, expired);

    if (batch.empty()) {
      // Every extracted request had already expired: hand them to the
      // caller right away (their answers are overdue) rather than waiting
      // out the coalescing window. The caller distinguishes this from
      // "closed and drained" by the non-empty sink.
      if (expired != nullptr && !expired->empty()) return batch;
      continue;  // nothing extractable this round; re-wait
    }

    // Coalesce late same-session arrivals until the batch is full or the
    // head hits its delay bound, capped by the earliest deadline on board
    // so waiting for company never expires a collected rider. close()
    // flushes early.
    while (batch.size() < max_n && !closed_) {
      for (const Request& r : batch)
        if (r.has_deadline() && r.deadline < release) release = r.deadline;
      if (clock_->wait_until(data_cv_, lk, release)) break;
      extract(session, max_n, clock_->now(), batch, expired);
    }
    return batch;
  }
}

std::vector<Request> RequestQueue::try_pop_micro_batch(
    const BatchPolicy& policy, std::vector<Request>* expired) {
  const std::size_t max_n = std::max<std::size_t>(policy.max_batch_size, 1);
  std::vector<Request> batch;
  std::lock_guard<std::mutex> lk(mu_);
  if (q_.empty()) return batch;
  const Request& h = head();  // re-selected on every call
  const std::size_t session = h.session;
  const Clock::time_point now = clock_->now();

  // Due-ness at the current (virtual) time: a closed queue flushes, the
  // head has aged past the coalescing window, a same-session rider has
  // already expired (its answer is overdue), or a full batch's worth of
  // riders is pending. This differs from the blocking pop in one way: no
  // rider deadline caps the window here, so a rider whose deadline falls
  // inside it is expired by a later pump, where a blocking pop would have
  // collected it and released the batch at that deadline.
  bool due = closed_ || now >= h.enqueued + policy.max_queue_delay;
  if (!due) {
    std::size_t extractable = 0;
    for (const Request& r : q_) {
      if (r.session != session) continue;
      if (expired != nullptr && lapsed(r, now)) {
        due = true;
        break;
      }
      ++extractable;
    }
    if (extractable >= max_n) due = true;
  }
  if (!due) return batch;

  if (depth_observer_) depth_observer_(q_.size());
  extract(session, max_n, now, batch, expired);
  return batch;
}

void RequestQueue::set_depth_observer(
    std::function<void(std::size_t)> observer) {
  std::lock_guard<std::mutex> lk(mu_);
  depth_observer_ = std::move(observer);
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  data_cv_.notify_all();
  space_cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return q_.size();
}

std::size_t RequestQueue::max_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_depth_;
}

bool RequestQueue::pressured(double fraction) const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<double>(q_.size()) >=
         fraction * static_cast<double>(capacity_);
}

}  // namespace deepcam::serve
