// Bounded MPMC request queue with SLO-aware admission control.
//
// Producers are client threads (Server::submit / LoadGenerator); consumers
// are the server's dispatch loops pulling micro-batches. The queue is the
// admission-control point: try_push() rejects instead of blocking when the
// queue is at capacity (open-loop backpressure) and *sheds* lower-priority
// classes earlier — per-class depth watermarks plus an optional
// estimated-queue-wait bound (depth / est_service_rps vs the class's wait
// budget) — push() blocks for space (closed-loop clients), and close()
// flushes: pending requests still drain through pop_micro_batch(), which
// returns empty only when closed AND drained.
//
// Micro-batch formation lives here (under the queue's one mutex) because it
// must be atomic with head selection: a dispatch loop picks the most
// urgent pending request (priority class, then admission order), then
// collects same-session requests — possibly waiting for late arrivals —
// without another loop stealing its head. Requests whose deadline already
// passed at extraction are diverted to the caller's expired sink instead
// of wasting a batch slot (deadline-aware batching). Both pops share that
// head selection and extraction; they differ only in when a batch is
// released (see try_pop_micro_batch). The Server owns the policy and the
// expiry switch and calls the pops directly.
//
// All time reads and timed waits go through the injected ClockSource so a
// VirtualClock makes every shed/expire decision a deterministic function
// of a crafted arrival timeline (serve/clock.hpp).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "serve/clock.hpp"
#include "serve/request.hpp"

namespace deepcam::serve {

/// Micro-batching policy: dispatch when `max_batch_size` same-session
/// requests are pending, or when the oldest of them has waited
/// `max_queue_delay`, whichever happens first. The coalescing wait is
/// additionally capped by the earliest deadline among collected requests,
/// so waiting for company never expires a rider.
struct BatchPolicy {
  std::size_t max_batch_size = 8;
  std::chrono::microseconds max_queue_delay{2000};
};

/// One formation round: `run` is the single-session batch to execute
/// (possibly empty when everything due had expired); `expired` are the
/// requests whose deadline passed while queued — answer, don't run.
struct MicroBatch {
  std::vector<Request> run;
  std::vector<Request> expired;

  bool empty() const { return run.empty() && expired.empty(); }
};

/// Per-class load-shedding watermarks. A class-c request is shed
/// (kRejectedShed) when the queue depth has crossed
/// shed_depth_fraction[c] * capacity, or — when est_service_rps is set —
/// when the estimated queue wait depth/est_service_rps exceeds
/// max_wait[c]. Defaults shed nothing before the hard capacity bound.
struct AdmissionPolicy {
  std::array<double, kNumSloClasses> shed_depth_fraction{1.0, 1.0, 1.0};
  /// Server-wide service-rate estimate (requests/s) used to turn depth
  /// into an expected queue wait; 0 disables wait-based shedding.
  double est_service_rps = 0.0;
  /// Per-class queue-wait budget; zero duration = no bound.
  std::array<Clock::duration, kNumSloClasses> max_wait{};
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity, AdmissionPolicy admission = {},
                        ClockSource* clock = nullptr);

  /// Non-blocking admission: stamps `r.enqueued`/`r.seq` and accepts, or
  /// rejects when at capacity (kRejectedFull) / shed watermark crossed
  /// (kRejectedShed) / closed (kRejectedClosed). `r` is untouched on
  /// rejection.
  Admission try_push(Request&& r);

  /// Blocking admission: waits for space (watermarks don't apply — the
  /// closed-loop caller self-limits). Returns false (request dropped)
  /// only when the queue is closed while waiting.
  bool push(Request&& r);

  /// Re-queues a request the retry path pulled out of a failed micro-batch.
  /// The request was already admitted once, so capacity and shed
  /// watermarks do not apply (rejecting it here would double-count it) and
  /// its original `enqueued`/`seq` stamps are kept — latency accounting
  /// spans all attempts and head selection keeps admission order. Returns
  /// false only when the queue is closed; the caller MUST then answer the
  /// request with a terminal error itself (it is no longer anywhere a
  /// batcher could find it).
  bool push_retry(Request&& r);

  /// Waits until at least one request is pending, then collects up to
  /// `policy.max_batch_size` requests of the head request's session — the
  /// head being the highest-priority class's earliest admission — waiting
  /// for late same-session arrivals until the head has been queued for
  /// `policy.max_queue_delay` (capped by the earliest collected deadline).
  /// Requests of other sessions keep their relative order.
  ///
  /// With a non-null `expired` sink, collected requests whose deadline
  /// already passed are moved there instead of into the batch (the caller
  /// must answer them); with a null sink expiry is disabled and they ride
  /// in the batch. Returns an empty vector only when the queue is closed
  /// and fully drained (the sink may still receive requests then).
  std::vector<Request> pop_micro_batch(const BatchPolicy& policy,
                                       std::vector<Request>* expired = nullptr);

  /// Non-blocking variant for manual-dispatch pumping: re-selects the head
  /// on every call and forms a batch only when one is *due* right now —
  /// the queue is closed, a same-session rider of the head has already
  /// expired, enough riders are pending to fill the batch, or the head has
  /// aged past `max_queue_delay` — and returns empty otherwise (no
  /// coalescing wait, never blocks). Unlike pop_micro_batch, no rider
  /// deadline caps the window: a rider whose deadline lapses before the
  /// batch is due is expired here, where the blocking pop would have
  /// collected it and released the batch at that deadline.
  std::vector<Request> try_pop_micro_batch(
      const BatchPolicy& policy, std::vector<Request>* expired = nullptr);

  /// Observer invoked (under the queue mutex) with the pre-extraction
  /// depth each time a batcher starts extracting a micro-batch — the
  /// second depth stream next to admission-time sampling. Set before
  /// consumers run; not synchronized against in-flight pops.
  void set_depth_observer(std::function<void(std::size_t)> observer);

  /// Rejects future pushes and wakes every waiter; pending requests still
  /// drain through pop_micro_batch.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  const AdmissionPolicy& admission() const { return admission_; }
  /// Highest depth() ever observed after a push.
  std::size_t max_depth() const;
  /// Depth has crossed `fraction` * capacity — the pressure signal the
  /// server's downgrade dial reads before admission.
  bool pressured(double fraction) const;

 private:
  /// How a request enters the queue: try_push, push, or push_retry.
  enum class Enqueue { kTry, kBlock, kRetry };

  /// The one locked enqueue behind the three pushes. Only first admissions
  /// (kTry/kBlock) stamp `enqueued`/`seq`; `r` is untouched on rejection.
  Admission enqueue(Request&& r, Enqueue mode);
  /// Shed verdict for class `c` at depth `depth` (mu_ held).
  bool should_shed(SloClass c, std::size_t depth) const;
  /// The most urgent pending request: highest-priority class, earliest
  /// admission within it (mu_ held, queue non-empty).
  const Request& head() const;
  /// Moves `session`'s pending requests, in queue order, into `batch`
  /// until it holds `max_n` — or into `expired` (when non-null) for those
  /// whose deadline passed by `now` — and wakes blocked producers (mu_
  /// held).
  void extract(std::size_t session, std::size_t max_n, Clock::time_point now,
               std::vector<Request>& batch, std::vector<Request>* expired);

  const std::size_t capacity_;
  const AdmissionPolicy admission_;
  ClockSource* clock_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // producers wait for capacity
  std::condition_variable data_cv_;   // batchers wait for requests
  std::deque<Request> q_;
  std::uint64_t next_seq_ = 0;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
  std::function<void(std::size_t)> depth_observer_;
};

}  // namespace deepcam::serve
