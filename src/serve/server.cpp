#include "serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace deepcam::serve {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Trace timestamp for a clock reading: nanoseconds since the clock's
/// epoch, matching the NowFn adapter the Runner installs on the recorder.
std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

const char* admission_span_name(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accept";
    case Admission::kRejectedFull: return "reject_full";
    case Admission::kRejectedClosed: return "reject_closed";
    case Admission::kRejectedUnknownSession: return "reject_unknown";
    case Admission::kRejectedShed: return "shed";
  }
  return "unknown";
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(cfg),
      clock_(cfg.clock != nullptr ? cfg.clock : &ClockSource::steady()),
      queue_(cfg.queue_capacity, cfg.slo.admission, clock_) {
  DEEPCAM_CHECK_MSG(cfg.num_workers >= 1, "server needs >= 1 worker");
  DEEPCAM_CHECK_MSG(cfg.replicas >= 1, "server needs >= 1 replica");
  DEEPCAM_CHECK_MSG(cfg.batch.max_batch_size >= 1,
                    "batch policy needs max_batch_size >= 1");
  sessions_.set_replica_config(cfg_.replicas, cfg_.router.replica, clock_);
  router_ = std::make_unique<Router>(cfg_.router, clock_);
  injector_ = std::make_unique<FaultInjector>(cfg_.chaos);
}

Server::~Server() { stop(); }

void Server::start() {
  DEEPCAM_CHECK_MSG(!running_ && !stopped_, "server already started");
  DEEPCAM_CHECK_MSG(sessions_.count() >= 1,
                    "register at least one session before start()");
  metrics_ = std::make_unique<ServerMetrics>(sessions_.count());
  // Second depth stream: sampled inside the queue at micro-batch
  // extraction (what the batcher actually saw), vs. the admission-time
  // stream sampled in submit()/run().
  queue_.set_depth_observer([this](std::size_t depth) {
    metrics_->on_queue_depth(ServerMetrics::DepthStream::kExtract, depth);
  });
  t_start_ = clock_->now();
  injector_->arm(t_start_);
  running_ = true;
  if (cfg_.manual_dispatch) return;  // pump mode: no threads
  workers_.reserve(cfg_.num_workers);
  try {
    // A worker exits on an empty blocking pop: the queue is closed and
    // drained.
    for (std::size_t i = 0; i < cfg_.num_workers; ++i)
      workers_.emplace_back([this] {
        while (step(/*blocking=*/true)) {
        }
      });
  } catch (...) {
    queue_.close();
    for (auto& w : workers_) w.join();
    workers_.clear();
    running_ = false;
    throw;
  }
}

bool Server::prepare(const std::string& session, SloClass slo, Request& req,
                     bool& downgraded_out) {
  const auto idx = sessions_.find(session);
  if (!idx.has_value()) return false;
  std::size_t target = *idx;
  downgraded_out = false;
  // Quality dial: under queue pressure, reroute to the lower-k fallback
  // tier — a cheaper search that keeps latency bounded at a small accuracy
  // cost (the paper's variable hash length as a live serving control).
  if (cfg_.slo.downgrade_fraction < 1.0 &&
      queue_.pressured(cfg_.slo.downgrade_fraction)) {
    const auto fb = sessions_.fallback(target);
    if (fb.has_value()) {
      target = *fb;
      downgraded_out = true;
    }
  }
  req.session = target;
  req.slo = slo;
  req.downgraded = downgraded_out;
  const Clock::duration d =
      cfg_.slo.deadline[static_cast<std::size_t>(slo)];
  if (d > Clock::duration::zero()) req.deadline = clock_->now() + d;
  return true;
}

Admission Server::admit(const std::string& session, nn::Tensor input,
                        std::function<void(Response&&)> on_done, SloClass slo,
                        bool blocking) {
  Request req;
  bool downgraded = false;
  if (!prepare(session, slo, req, downgraded)) {
    metrics_->on_unknown_session();
    obs::SpanRecord tr;
    tr.slo = static_cast<std::uint64_t>(slo);
    obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kAdmission,
                 "reject_unknown", tr);
    return Admission::kRejectedUnknownSession;
  }
  const std::size_t idx = req.session;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.input = std::move(input);
  req.on_done = std::move(on_done);
  const std::uint64_t trace_rid = req.id;
  // Count the admission *before* the push: once the request is visible to a
  // batcher it can be answered, and drain() must never see answered_ >
  // accepted_.
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    ++accepted_;
  }
  const Admission verdict =
      blocking ? (queue_.push(std::move(req)) ? Admission::kAccepted
                                              : Admission::kRejectedClosed)
               : queue_.try_push(std::move(req));
  if (verdict != Admission::kAccepted) {
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      --accepted_;
    }
    done_cv_.notify_all();
  }
  metrics_->on_admission(idx, verdict, slo);
  if (verdict == Admission::kAccepted) {
    if (downgraded) metrics_->on_downgrade(idx, slo);
    metrics_->on_queue_depth(ServerMetrics::DepthStream::kAdmission,
                             queue_.depth());
  }
  {
    obs::SpanRecord tr;
    tr.rid = trace_rid;
    tr.session = idx;
    tr.slo = static_cast<std::uint64_t>(slo);
    tr.value = downgraded ? 1 : 0;
    obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kAdmission,
                 admission_span_name(verdict), tr);
  }
  return verdict;
}

Admission Server::submit(const std::string& session, nn::Tensor input,
                         std::function<void(Response&&)> on_done,
                         SloClass slo) {
  if (!running_) return Admission::kRejectedClosed;
  return admit(session, std::move(input), std::move(on_done), slo,
               /*blocking=*/false);
}

Response Server::run(const std::string& session, nn::Tensor input,
                     SloClass slo) {
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response response;
  };
  auto slot = std::make_shared<Slot>();

  auto fail = [&](const std::string& why) {
    Response r;
    r.slo = slo;
    r.error = std::make_exception_ptr(Error("serve: " + why));
    return r;
  };
  if (!running_) return fail("server not running");
  const Admission verdict = admit(
      session, std::move(input),
      [slot](Response&& r) {
        {
          std::lock_guard<std::mutex> lk(slot->mu);
          slot->response = std::move(r);
          slot->done = true;
        }
        slot->cv.notify_one();
      },
      slo, /*blocking=*/true);
  if (verdict == Admission::kRejectedUnknownSession)
    return fail("unknown session: " + session);
  if (verdict != Admission::kAccepted)
    return fail("server stopped while waiting for queue space");

  std::unique_lock<std::mutex> lk(slot->mu);
  slot->cv.wait(lk, [&] { return slot->done; });
  return std::move(slot->response);
}

bool Server::step(bool blocking) {
  // Fire chaos events that came due; a pending worker-stall fault is
  // served by this loop sleeping it out through the clock.
  injector_->poll(clock_->now(), sessions_);
  const Clock::duration stall = injector_->take_stall();
  if (stall > Clock::duration::zero())
    clock_->sleep_until(clock_->now() + stall);
  // With expire_doomed off (the FIFO baseline bench/serve_throughput
  // compares against) there is no expired sink: deadline-carrying
  // requests always run.
  MicroBatch mb;
  std::vector<Request>* sink = cfg_.slo.expire_doomed ? &mb.expired : nullptr;
  mb.run = blocking ? queue_.pop_micro_batch(cfg_.batch, sink)
                    : queue_.try_pop_micro_batch(cfg_.batch, sink);
  if (mb.empty()) return false;
  dispatch(std::move(mb));
  return true;
}

void Server::answer(Request& req, const Delivery& d, std::exception_ptr err,
                    nn::Tensor logits) {
  Response resp;
  resp.id = req.id;
  resp.session = req.session;
  resp.slo = req.slo;
  resp.downgraded = req.downgraded;
  resp.had_deadline = req.has_deadline();
  resp.expired = d.expired;
  resp.batch_size = d.n;
  resp.queue_seconds = seconds_between(req.enqueued, d.t_dispatch);
  resp.total_seconds = seconds_between(req.enqueued, d.t_done);
  if (req.has_deadline())
    resp.slack_seconds = seconds_between(d.t_done, req.deadline);
  if (err != nullptr)
    resp.error = err;
  else
    resp.logits = std::move(logits);
  {
    obs::SpanRecord c;
    c.rid = req.id;
    c.session = req.session;
    c.slo = static_cast<std::uint64_t>(req.slo);
    if (d.replica != kNoReplica) c.replica = d.replica;
    c.batch = d.batch;
    const char* outcome = err == nullptr ? "ok"
                          : !d.expired   ? "error"
                          : d.n == 0     ? "expired"
                                         : "cancelled";
    obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kComplete, outcome,
                 c);
  }
  metrics_->on_response(resp);
  if (req.on_done) {
    try {
      req.on_done(std::move(resp));
    } catch (...) {
      // A throwing completion callback must not take down the worker;
      // the request still counts as answered.
    }
  }
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    ++answered_;
  }
  done_cv_.notify_all();
}

void Server::dispatch(MicroBatch&& mb) {
  // Queue-wait span of one request, reconstructed from its admission stamp
  // (no hooks needed inside the queue).
  const auto emit_wait = [](const Request& r, Clock::time_point end,
                            std::uint64_t batch_id) {
    obs::SpanRecord q;
    q.t_begin_ns = to_ns(r.enqueued);
    q.t_end_ns = to_ns(end);
    q.name = "wait";
    q.cat = obs::SpanCat::kQueue;
    q.rid = r.id;
    q.session = r.session;
    q.slo = static_cast<std::uint64_t>(r.slo);
    q.batch = batch_id;
    obs::emit(obs::TraceLevel::kServe, q);
  };
  const bool traced =
      obs::TraceRecorder::instance().enabled(obs::TraceLevel::kServe);

  // Deadline-lapsed requests are answered first — their answers are
  // already overdue and they never touch the engine.
  for (Request& req : mb.expired) {
    Delivery d;
    d.t_dispatch = d.t_done = clock_->now();
    d.expired = true;
    if (traced) emit_wait(req, d.t_done, obs::kNoId);
    answer(req, d,
           std::make_exception_ptr(
               Error("serve: deadline expired before dispatch")));
  }
  std::vector<Request>& batch = mb.run;
  if (batch.empty()) return;

  injector_->poll(clock_->now(), sessions_);

  const std::size_t session = batch.front().session;
  Delivery d;
  d.n = batch.size();
  d.t_dispatch = clock_->now();
  d.batch = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t head_slo =
      static_cast<std::uint64_t>(batch.front().slo);

  // Per-rider queue-wait spans plus one batch-formation span covering
  // head-enqueue -> dispatch.
  if (traced) {
    for (const Request& r : batch) emit_wait(r, d.t_dispatch, d.batch);
    obs::SpanRecord f;
    f.t_begin_ns = to_ns(batch.front().enqueued);
    f.t_end_ns = to_ns(d.t_dispatch);
    f.name = "form";
    f.cat = obs::SpanCat::kBatch;
    f.rid = batch.front().id;
    f.session = session;
    f.slo = head_slo;
    f.batch = d.batch;
    f.value = d.n;
    obs::emit(obs::TraceLevel::kServe, f);
  }

  // Keep rider inputs intact when any of them still has retry budget: a
  // failed attempt re-queues the rider, input and all.
  const auto budget = [&](const Request& r) {
    return cfg_.router.retry_limit[static_cast<std::size_t>(r.slo)];
  };
  bool may_retry = false;
  for (const Request& r : batch)
    if (r.attempt < budget(r)) may_retry = true;

  std::vector<nn::Tensor> inputs;
  inputs.reserve(d.n);
  for (auto& r : batch)
    inputs.push_back(may_retry ? r.input : std::move(r.input));

  // A batch is cancellable only when *every* rider carries a deadline:
  // one deadline-free request means someone always wants the result.
  Clock::time_point latest_deadline = Clock::time_point::min();
  bool cancellable = cfg_.slo.expire_doomed;
  for (const Request& r : batch) {
    if (!r.has_deadline()) {
      cancellable = false;
      break;
    }
    latest_deadline = std::max(latest_deadline, r.deadline);
  }

  // The Router picks the replica (consistent hash on the head rider's id —
  // stable across retries, so `avoid` meaningfully dodges the replica the
  // last attempt failed on), hedges interactive batches, and records
  // health outcomes. While this worker waits, sibling workers keep their
  // own micro-batches in flight.
  metrics_->on_batch_dispatch(session, d.n);
  obs::Span dispatch_sp(obs::TraceLevel::kServe, obs::SpanCat::kDispatch,
                        "dispatch");
  dispatch_sp.rid(batch.front().id)
      .session(session)
      .slo(head_slo)
      .batch(d.batch)
      .value(d.n);
  Router::Attempt a = router_->run(
      sessions_.replicas(session), batch.front().id, batch.front().slo,
      std::move(inputs),
      batch.front().attempt > 0 ? batch.front().last_replica : kNoReplica,
      latest_deadline, cancellable, d.batch);
  if (a.replica != kNoReplica) dispatch_sp.replica(a.replica);
  dispatch_sp.finish();
  metrics_->on_batch_complete(session);
  if (a.hedged) metrics_->on_hedge(a.hedge_won, a.hedge_wasted);

  d.t_done = clock_->now();
  d.replica = a.replica;
  d.expired = a.cancelled;
  std::exception_ptr batch_error = a.error;
  if (!a.ok && batch_error == nullptr)
    batch_error = std::make_exception_ptr(
        Error("serve: batch cancelled at deadline"));

  if (a.ok) {
    for (std::size_t i = 0; i < d.n; ++i) {
      Request& req = batch[i];
      if (req.attempt > 0 && a.replica != req.last_replica)
        metrics_->on_failover();
      answer(req, d, nullptr, std::move(a.outputs[i]));
    }
    return;
  }

  if (a.cancelled) {
    for (Request& req : batch) answer(req, d, batch_error);
    return;
  }

  // Failure: riders with retry budget left go back into the queue for
  // another attempt on a surviving replica; the rest get the error.
  std::vector<Request> to_retry;
  for (Request& req : batch) {
    if (req.attempt < budget(req)) {
      req.attempt += 1;
      req.last_replica = a.replica;
      to_retry.push_back(std::move(req));
    } else {
      answer(req, d, batch_error);
    }
  }
  if (to_retry.empty()) return;

  // One jittered exponential backoff per failed batch (attempt was just
  // bumped, so attempt-1 prior failures), slept through the clock so a
  // VirtualClock paces retries deterministically.
  const Clock::duration pause =
      router_->backoff(to_retry.front().attempt - 1, to_retry.front().id);
  if (pause > Clock::duration::zero()) {
    obs::Span backoff_sp(obs::TraceLevel::kServe, obs::SpanCat::kRetry,
                         "backoff");
    backoff_sp.rid(to_retry.front().id)
        .session(session)
        .batch(d.batch)
        .value(to_retry.front().attempt);
    clock_->sleep_until(clock_->now() + pause);
  }
  for (Request& req : to_retry) {
    metrics_->on_retry();
    {
      obs::SpanRecord tr;
      tr.rid = req.id;
      tr.session = session;
      tr.slo = static_cast<std::uint64_t>(req.slo);
      if (a.replica != kNoReplica) tr.replica = a.replica;
      tr.batch = d.batch;
      tr.value = req.attempt;
      obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kRetry, "requeue",
                   tr);
    }
    if (!queue_.push_retry(std::move(req))) {
      // Queue closed mid-retry: the rider is nowhere a batcher could find
      // it, so it must be answered — with a terminal error, not dropped —
      // to keep the exactly-once contract (and drain()) honest.
      answer(req, d,
             std::make_exception_ptr(
                 Error("serve: server stopped before retry could run")));
    }
  }
}

void Server::drain() {
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] { return answered_ == accepted_; });
}

bool Server::pump() {
  DEEPCAM_CHECK_MSG(cfg_.manual_dispatch,
                    "pump() requires ServerConfig::manual_dispatch");
  DEEPCAM_CHECK_MSG(metrics_ != nullptr, "pump() requires start()");
  return step(/*blocking=*/false);
}

void Server::stop() {
  // exchange makes concurrent stop() calls (destructor vs explicit) safe.
  if (!running_.exchange(false)) return;  // also rejects new admissions
  queue_.close();    // flushes partial micro-batches; drains pending
  if (cfg_.manual_dispatch) {
    // Manual dispatch: no workers to drain the closed queue — pump it dry
    // inline (terminal errors for retries that can no longer requeue).
    while (pump()) {
    }
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lk(done_mu_);
  t_stop_ = clock_->now();
  stopped_ = true;
}

ServerSnapshot Server::snapshot() const {
  DEEPCAM_CHECK_MSG(metrics_ != nullptr, "metrics exist once start() ran");
  Clock::time_point at;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    at = stopped_ ? t_stop_ : clock_->now();
  }
  ServerSnapshot snap =
      metrics_->snapshot(sessions_.names(), seconds_between(t_start_, at));
  ServerSummary& s = snap.summary;
  s.workers = cfg_.num_workers;
  s.queue_capacity = cfg_.queue_capacity;
  s.max_queue_depth = queue_.max_depth();
  for (std::size_t i = 0; i < sessions_.count(); ++i) {
    std::vector<ReplicaSummary> rows = sessions_.replicas(i).summarize(at);
    for (ReplicaSummary& r : rows) {
      r.session = sessions_.name(i);
      s.replicas.push_back(std::move(r));
    }
  }
  return snap;
}

ServerSummary Server::summary() const { return snapshot().summary; }

}  // namespace deepcam::serve
