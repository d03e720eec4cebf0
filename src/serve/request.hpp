// Online serving request/response types.
//
// The serving subsystem (src/serve) turns the batched InferenceEngine into
// an online, multi-tenant service: single-sample requests arrive at a
// bounded RequestQueue, which coalesces them into micro-batches per
// session, and Server workers pipeline those micro-batches through the
// engine's non-blocking submit() path. These are the plain-data types that
// flow through that pipeline.
//
// Every request carries an SLO class (deadline + priority): interactive
// traffic preempts standard, standard preempts batch, and each class maps
// to a relative deadline the server stamps at admission. Under overload
// the tier reacts per class — shed at admission, expire at batch
// formation, downgrade to a lower-k session — instead of treating every
// request identically (the saturation cliff bench/serve_throughput measures).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "nn/tensor.hpp"

namespace deepcam::serve {

using Clock = std::chrono::steady_clock;

/// Priority classes, highest first: the batcher always serves the most
/// urgent pending class, admission sheds the least urgent first, and each
/// class carries its own deadline. The numeric value is the array index
/// used by every per-class table (deadlines, watermarks, metrics).
enum class SloClass : std::size_t {
  kInteractive = 0,  // user-facing: tight deadline, shed last
  kStandard = 1,     // default tier
  kBatch = 2,        // throughput traffic: no/loose deadline, shed first
};

inline constexpr std::size_t kNumSloClasses = 3;

inline const char* to_string(SloClass c) {
  switch (c) {
    case SloClass::kInteractive: return "interactive";
    case SloClass::kStandard: return "standard";
    case SloClass::kBatch: return "batch";
  }
  return "?";
}

/// All SLO classes, in priority order, for table-driven iteration.
inline constexpr std::array<SloClass, kNumSloClasses> kAllSloClasses = {
    SloClass::kInteractive, SloClass::kStandard, SloClass::kBatch};

struct Response;

/// One single-sample inference request. `session` is the index the
/// SessionManager resolved from the session name; `on_done` is invoked
/// exactly once, from a server worker thread, after the micro-batch the
/// request rode in completed (or failed, expired, or the server shut down
/// first).
struct Request {
  std::uint64_t id = 0;
  std::size_t session = 0;
  nn::Tensor input;
  SloClass slo = SloClass::kStandard;
  /// Absolute completion deadline; time_point{} (the default) = none.
  /// Stamped by Server::submit from the class's configured deadline.
  Clock::time_point deadline{};
  bool downgraded = false;  // rerouted to a fallback (lower-k) session
  Clock::time_point enqueued{};
  std::uint64_t seq = 0;  // queue admission order (stamped by the queue)
  /// Failure-retry bookkeeping (serve/router.hpp): how many times this
  /// request has been re-queued after a replica failure, and the replica
  /// the last attempt failed on (kNoReplica sentinel when none).
  std::size_t attempt = 0;
  std::size_t last_replica = static_cast<std::size_t>(-1);
  std::function<void(Response&&)> on_done;

  bool has_deadline() const { return deadline != Clock::time_point{}; }
};

/// Completion record handed to Request::on_done.
struct Response {
  std::uint64_t id = 0;
  std::size_t session = 0;
  nn::Tensor logits;           // valid iff error == nullptr
  std::exception_ptr error;    // per-sample failure (or shutdown/expiry)
  SloClass slo = SloClass::kStandard;
  bool expired = false;        // answered without running: deadline passed
  bool downgraded = false;     // served by the fallback (lower-k) session
  bool had_deadline = false;
  /// deadline - completion time, seconds: positive slack = met with margin,
  /// negative = completed late. 0 when no deadline was set.
  double slack_seconds = 0.0;
  double queue_seconds = 0.0;  // enqueue -> micro-batch dispatch
  double total_seconds = 0.0;  // enqueue -> completion
  std::size_t batch_size = 0;  // size of the micro-batch it rode in

  bool ok() const { return error == nullptr; }
  /// Goodput criterion: answered successfully and within its deadline
  /// (trivially met when the request carried none).
  bool slo_met() const {
    return ok() && !expired && (!had_deadline || slack_seconds >= 0.0);
  }
};

/// Admission-control verdict of Server::submit / RequestQueue::try_push.
enum class Admission {
  kAccepted,
  kRejectedFull,           // backpressure: queue at capacity
  kRejectedClosed,         // server stopping
  kRejectedUnknownSession, // no session with that name
  kRejectedShed,           // load shedding: class watermark crossed
};

inline const char* to_string(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kRejectedFull: return "rejected-full";
    case Admission::kRejectedClosed: return "rejected-closed";
    case Admission::kRejectedUnknownSession: return "rejected-unknown-session";
    case Admission::kRejectedShed: return "rejected-shed";
  }
  return "?";
}

}  // namespace deepcam::serve
