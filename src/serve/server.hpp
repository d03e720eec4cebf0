// Server: online multi-tenant serving front-end over InferenceEngine.
//
//   clients ──submit()/run()──▶ RequestQueue ─────────▶ worker threads
//             (one admission:   (bounded, SLO shed;   │ one micro-batch
//              try_push or      micro-batch formation: ▼ each, pipelined
//              blocking push)   max batch / max delay,   Router -> replica
//                               deadline-aware)          InferenceEngine
//                                                        per session
//
// Each of the N server workers loops: poll chaos, form a micro-batch (one
// session) straight from the queue, submit it to that session's engine,
// wait for completion, answer the riders. Pump mode (manual_dispatch)
// runs the same step inline with the queue's non-blocking pop. With
// N >= 2 workers, micro-batches are concurrently in flight — the engine's
// per-batch completion state (core/engine.hpp) is what makes that legal;
// the old engine-global single-flight path would have serialized them.
//
// Overload behavior is SLO-aware (ServerConfig::slo): every request
// carries a class whose configured deadline is stamped at admission; the
// queue sheds lower classes first at depth/wait watermarks; pressured
// requests reroute to their session's lower-k fallback tier (the quality
// dial); requests whose deadline lapses in the queue are expired — and a
// whole batch whose deadlines all lapse while queued behind the engine is
// cancelled through its BatchFuture — instead of burning engine time on
// answers nobody can use. Every decision reads the injected ClockSource,
// so a VirtualClock makes the whole policy deterministic under test.
//
// Lifecycle: construct -> sessions().add_session(...) -> start() ->
// submit()/run() -> stop() (close + drain + join; also run by the
// destructor). Every accepted request is answered exactly once — with a
// completion, an error, or an expiry — even when stop() races new
// submissions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/chaos.hpp"
#include "serve/clock.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"
#include "serve/router.hpp"
#include "serve/session.hpp"

namespace deepcam::serve {

/// SLO policy of one server: per-class deadlines, admission watermarks,
/// the downgrade dial, and the expiry switch. The defaults are a plain
/// FIFO server (no deadlines, no shedding, no downgrades) — existing
/// callers see unchanged behavior.
struct SloConfig {
  /// Relative completion deadline per class, stamped at admission;
  /// zero duration = the class carries no deadline.
  std::array<Clock::duration, kNumSloClasses> deadline{};
  /// Per-class shed watermarks enforced by the RequestQueue.
  AdmissionPolicy admission;
  /// Queue-depth fraction above which admissions reroute to the session's
  /// fallback tier (SessionManager::set_fallback); >= 1.0 disables.
  double downgrade_fraction = 1.0;
  /// Expire deadline-lapsed requests at batch formation (and cancel fully
  /// doomed batches through their BatchFuture) instead of running them.
  /// false = FIFO baseline: deadlines are recorded for goodput accounting
  /// but never enforced.
  bool expire_doomed = true;
};

struct ServerConfig {
  std::size_t num_workers = 2;      // batcher/dispatch threads
  std::size_t queue_capacity = 256; // admission-control bound
  BatchPolicy batch;
  SloConfig slo;
  /// Engine replicas per session (serve/replica.hpp). One replica keeps
  /// the pre-replica behavior; more buys failover capacity.
  std::size_t replicas = 1;
  /// Fault-tolerance policies: consistent-hash placement, retry backoff,
  /// hedging, and the per-replica health/breaker knobs (router.replica).
  RouterConfig router;
  /// Scripted faults injected while serving (serve/chaos.hpp); empty =
  /// no chaos. Armed at start(), applied by the workers.
  ChaosScript chaos;
  /// Time source for every scheduling decision; nullptr = the real
  /// steady clock. Tests inject a VirtualClock (serve/clock.hpp).
  ClockSource* clock = nullptr;
  /// Pump mode: start() spawns no worker threads; the owner drives batch
  /// formation + dispatch inline via pump(). Combined with a VirtualClock
  /// and LoadGenerator::replay_deterministic this makes an entire serve
  /// run single-threaded and replay-identical (byte-identical traces).
  bool manual_dispatch = false;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Session registry; register every model (and fallback links) before
  /// start().
  SessionManager& sessions() { return sessions_; }
  const SessionManager& session_manager() const { return sessions_; }
  const ServerConfig& config() const { return cfg_; }

  /// Spawns the worker threads. Requires >= 1 registered session.
  void start();

  /// Non-blocking admission of one single-sample request for `session` at
  /// SLO class `slo`. On kAccepted, `on_done` fires exactly once from a
  /// worker thread — with a completion, an error, or an expiry; on any
  /// rejection (including kRejectedShed) it never fires. Thread-safe.
  Admission submit(const std::string& session, nn::Tensor input,
                   std::function<void(Response&&)> on_done,
                   SloClass slo = SloClass::kStandard);

  /// Blocking closed-loop convenience: admits (waiting for queue space if
  /// needed; watermark shedding does not apply) and returns the response.
  /// Unknown sessions / closed server yield an error response rather than
  /// throwing.
  Response run(const std::string& session, nn::Tensor input,
               SloClass slo = SloClass::kStandard);

  /// Blocks until every accepted request has been answered.
  void drain();

  /// Manual-dispatch drive: polls the chaos injector, then forms and
  /// dispatches at most one due micro-batch inline on the calling thread.
  /// Returns true when a batch (or expiry sweep) was dispatched — callers
  /// loop `while (pump()) {}` to reach quiescence at the current virtual
  /// time. Only valid with ServerConfig::manual_dispatch, after start().
  bool pump();

  /// Closes admission, drains pending requests, joins the workers.
  /// Idempotent.
  void stop();

  bool running() const { return running_; }
  std::size_t queue_depth() const { return queue_.depth(); }
  /// The routing/fault-handling policy engine (tests read hedge_delay()).
  Router& router() { return *router_; }
  /// The chaos harness (tests read applied()).
  FaultInjector& injector() { return *injector_; }

  /// Frozen whole-server statistics plus the histogram buckets behind
  /// them, all from one locked read of the metrics (valid once start()
  /// ran, while running or after stop()).
  ServerSnapshot snapshot() const;
  /// snapshot().summary.
  ServerSummary summary() const;

 private:
  /// How a request's answer came about: the micro-batch it rode (n == 0
  /// for a request expired in the queue, never dispatched), the replica
  /// that produced the outcome, and when the batch left and came back.
  struct Delivery {
    std::size_t n = 0;
    std::uint64_t batch = obs::kNoId;
    std::size_t replica = kNoReplica;
    Clock::time_point t_dispatch{};
    Clock::time_point t_done{};
    bool expired = false;  // deadline lapsed: queued (n == 0) or cancelled
  };

  /// One dispatch-loop step for a worker thread (blocking pop) and pump()
  /// (non-blocking pop): fire due chaos events, sleep out a pending
  /// worker stall, form a micro-batch and dispatch it. False when the pop
  /// came back empty.
  bool step(bool blocking);
  void dispatch(MicroBatch&& mb);
  /// Answers `req` exactly once: builds the Response, emits the complete
  /// instant, records metrics, calls on_done (a throw is swallowed) and
  /// counts the request answered.
  void answer(Request& req, const Delivery& d, std::exception_ptr err,
              nn::Tensor logits = {});
  /// The one admission behind submit() and run(): resolves the session
  /// (downgrade dial, deadline), stamps the id, counts it accepted, pushes
  /// it — try_push, or the blocking push when `blocking` — then records
  /// the verdict's metrics and admission instant.
  Admission admit(const std::string& session, nn::Tensor input,
                  std::function<void(Response&&)> on_done, SloClass slo,
                  bool blocking);
  /// Builds the shared admission state: resolves the session, applies the
  /// downgrade dial, stamps the deadline. Returns false when the session
  /// is unknown.
  bool prepare(const std::string& session, SloClass slo, Request& req,
               bool& downgraded_out);

  ServerConfig cfg_;
  ClockSource* clock_;
  SessionManager sessions_;
  RequestQueue queue_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ServerMetrics> metrics_;  // sized at start()
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};  // trace span batch ids
  std::atomic<bool> running_{false};

  // accepted/answered bookkeeping for drain(), guarded by done_mu_.
  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t accepted_ = 0;
  std::uint64_t answered_ = 0;

  Clock::time_point t_start_{};
  Clock::time_point t_stop_{};
  bool stopped_ = false;
};

}  // namespace deepcam::serve
