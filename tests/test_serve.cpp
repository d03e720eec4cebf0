// Serving subsystem tests: queue admission/backpressure, micro-batch
// coalescing, multi-model sessions, end-to-end correctness against the
// single-sample accelerator, the serving determinism contract — a seeded
// trace replayed at 1 and 8 server workers yields bitwise-identical
// per-request outputs (order-independent) — and the SLO tier: table-driven
// virtual-clock scheduler tests pinning exact shed/expire/downgrade
// decisions, a deterministic flash-crowd simulation proving SLO-aware
// goodput beats the FIFO baseline at 2x saturation with zero lost
// requests, and property tests (accepted => answered exactly once;
// per-class accounting sums to offered load).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "core/accelerator.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/clock.hpp"
#include "serve/loadgen.hpp"
#include "serve/report_io.hpp"
#include "serve/request_queue.hpp"

namespace deepcam::serve {
namespace {

std::unique_ptr<nn::Model> tiny_cnn(std::uint64_t seed) {
  auto m = std::make_unique<nn::Model>("tiny_cnn");
  m->add(std::make_unique<nn::Conv2D>("conv1",
                                      nn::ConvSpec{1, 4, 3, 3, 1, 0}, seed));
  m->add(std::make_unique<nn::ReLU>("relu1"));
  m->add(std::make_unique<nn::MaxPool>("pool1", 2, 2));
  m->add(std::make_unique<nn::Flatten>("flat"));
  m->add(std::make_unique<nn::Linear>("fc", 4 * 3 * 3, 5, seed + 1));
  return m;
}

constexpr nn::Shape kTinyShape{1, 1, 8, 8};

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.shape() == b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)));
}

Request make_request(std::size_t session, std::uint64_t id = 0) {
  Request r;
  r.id = id;
  r.session = session;
  r.input = LoadGenerator::make_input(kTinyShape, id);
  return r;
}

// --- RequestQueue ---------------------------------------------------------

TEST(RequestQueue, TryPushRejectsWhenFull) {
  RequestQueue q(2);
  EXPECT_EQ(q.try_push(make_request(0)), Admission::kAccepted);
  EXPECT_EQ(q.try_push(make_request(0)), Admission::kAccepted);
  EXPECT_EQ(q.try_push(make_request(0)), Admission::kRejectedFull);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(RequestQueue, CloseRejectsAndDrains) {
  RequestQueue q(4);
  ASSERT_EQ(q.try_push(make_request(0)), Admission::kAccepted);
  q.close();
  EXPECT_EQ(q.try_push(make_request(0)), Admission::kRejectedClosed);
  BatchPolicy policy;
  // Pending request still drains...
  EXPECT_EQ(q.pop_micro_batch(policy).size(), 1u);
  // ...then pop returns empty (the worker-exit signal).
  EXPECT_TRUE(q.pop_micro_batch(policy).empty());
}

TEST(RequestQueue, MicroBatchFillsToMaxWithoutWaiting) {
  RequestQueue q(16);
  BatchPolicy policy;
  policy.max_batch_size = 4;
  policy.max_queue_delay = std::chrono::microseconds(60'000'000);  // no-op
  for (std::uint64_t i = 0; i < 6; ++i)
    ASSERT_EQ(q.try_push(make_request(0, i)), Admission::kAccepted);
  // A full batch is available: pop must not wait for the delay bound.
  const auto t0 = Clock::now();
  const auto batch = q.pop_micro_batch(policy);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - t0).count(), 10.0);
  ASSERT_EQ(batch.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);  // FIFO
  BatchPolicy flush = policy;  // the 2-request tail leaves on its delay bound
  flush.max_queue_delay = std::chrono::microseconds(0);
  EXPECT_EQ(q.pop_micro_batch(flush).size(), 2u);
}

TEST(RequestQueue, MicroBatchIsSingleSessionAndPreservesOtherSessions) {
  RequestQueue q(16);
  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_queue_delay = std::chrono::microseconds(0);  // flush instantly
  ASSERT_EQ(q.try_push(make_request(0, 1)), Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_request(1, 2)), Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_request(0, 3)), Admission::kAccepted);
  // Head is session 0: coalesces ids {1,3} around the session-1 request.
  const auto batch0 = q.pop_micro_batch(policy);
  ASSERT_EQ(batch0.size(), 2u);
  EXPECT_EQ(batch0[0].session, 0u);
  EXPECT_EQ(batch0[0].id, 1u);
  EXPECT_EQ(batch0[1].id, 3u);
  // Session 1 kept its place.
  const auto batch1 = q.pop_micro_batch(policy);
  ASSERT_EQ(batch1.size(), 1u);
  EXPECT_EQ(batch1[0].session, 1u);
}

TEST(RequestQueue, DelayBoundDispatchesPartialBatch) {
  RequestQueue q(16);
  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_queue_delay = std::chrono::microseconds(2000);
  ASSERT_EQ(q.try_push(make_request(0, 7)), Admission::kAccepted);
  const auto t0 = Clock::now();
  const auto batch = q.pop_micro_batch(policy);  // waits out the delay
  const double waited =
      std::chrono::duration<double>(Clock::now() - t0).count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 7u);
  EXPECT_LT(waited, 1.0);  // delay-bounded, not stuck until a full batch
}

TEST(RequestQueue, LateArrivalsJoinTheWaitingBatch) {
  RequestQueue q(16);
  BatchPolicy policy;
  policy.max_batch_size = 2;
  policy.max_queue_delay = std::chrono::microseconds(10'000'000);
  ASSERT_EQ(q.try_push(make_request(0, 1)), Admission::kAccepted);
  std::thread late([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(q.try_push(make_request(0, 2)), Admission::kAccepted);
  });
  // Blocks on the partial batch until the late arrival completes it (well
  // before the 10 s delay bound).
  const auto batch = q.pop_micro_batch(policy);
  late.join();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
}

// --- Server end-to-end ----------------------------------------------------

struct ServerFixture {
  std::unique_ptr<nn::Model> model = tiny_cnn(90);
  std::shared_ptr<const core::CompiledModel> fast;
  std::shared_ptr<const core::CompiledModel> small;

  ServerFixture() {
    core::DeepCamConfig cfg;
    cfg.cam_rows = 16;
    fast = std::make_shared<const core::CompiledModel>(*model, cfg);
    core::DeepCamConfig cfg_small = cfg;
    cfg_small.default_hash_bits = 256;
    small = std::make_shared<const core::CompiledModel>(*model, cfg_small);
  }

  std::unique_ptr<Server> make_server(std::size_t workers,
                                      std::size_t capacity = 64) {
    ServerConfig sc;
    sc.num_workers = workers;
    sc.queue_capacity = capacity;
    sc.batch.max_batch_size = 4;
    sc.batch.max_queue_delay = std::chrono::microseconds(500);
    auto server = std::make_unique<Server>(sc);
    server->sessions().add_session("tiny", fast, /*engine_threads=*/2);
    server->sessions().add_session("tiny-k256", small, /*engine_threads=*/2);
    server->start();
    return server;
  }
};

TEST(SessionManager, NamedLookupAndDuplicateRejection) {
  ServerFixture fx;
  SessionManager mgr;
  EXPECT_EQ(mgr.add_session("a", fx.fast, 1), 0u);
  EXPECT_EQ(mgr.add_session("b", fx.small, 1), 1u);
  EXPECT_EQ(mgr.count(), 2u);
  EXPECT_EQ(mgr.find("a").value(), 0u);
  EXPECT_EQ(mgr.find("b").value(), 1u);
  EXPECT_FALSE(mgr.find("c").has_value());
  EXPECT_EQ(mgr.name(1), "b");
  EXPECT_THROW(mgr.add_session("a", fx.fast, 1), Error);
  EXPECT_THROW(mgr.add_session("", fx.fast, 1), Error);
}

TEST(Server, BlockingRunMatchesAcceleratorBitwisePerSession) {
  ServerFixture fx;
  auto server = fx.make_server(2);
  core::DeepCamConfig cfg;
  cfg.cam_rows = 16;
  core::DeepCamAccelerator acc(*fx.model, cfg);
  cfg.default_hash_bits = 256;
  core::DeepCamAccelerator acc_small(*fx.model, cfg);

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const nn::Tensor input = LoadGenerator::make_input(kTinyShape, seed);
    Response r = server->run("tiny", input);
    ASSERT_TRUE(r.ok());
    expect_bitwise_equal(r.logits, acc.run(input));
    EXPECT_GT(r.total_seconds, 0.0);
    EXPECT_GE(r.batch_size, 1u);
    Response r2 = server->run("tiny-k256", input);
    ASSERT_TRUE(r2.ok());
    expect_bitwise_equal(r2.logits, acc_small.run(input));
  }
  server->stop();
  const ServerSummary summary = server->summary();
  EXPECT_EQ(summary.total_completed(), 12u);
  EXPECT_EQ(summary.sessions.size(), 2u);
  EXPECT_EQ(summary.sessions[0].name, "tiny");
  EXPECT_EQ(summary.sessions[0].completed, 6u);
  EXPECT_EQ(summary.sessions[0].errors, 0u);
  EXPECT_GT(summary.sessions[0].latency_p99_ms, 0.0);
  EXPECT_GE(summary.sessions[0].latency_p99_ms,
            summary.sessions[0].latency_p50_ms);
}

TEST(Server, UnknownSessionAndStoppedServerAreRejected) {
  ServerFixture fx;
  auto server = fx.make_server(1);
  // run() admits through the same path as submit(): an unknown session
  // leaves the same reject_unknown admission instant through either.
  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_level(obs::TraceLevel::kServe);
  EXPECT_EQ(server->submit("nope", LoadGenerator::make_input(kTinyShape, 0),
                           nullptr),
            Admission::kRejectedUnknownSession);
  Response r = server->run("nope", LoadGenerator::make_input(kTinyShape, 0));
  const std::vector<obs::SpanRecord> spans = rec.collect();
  rec.set_level(obs::TraceLevel::kOff);
  rec.clear();
  EXPECT_FALSE(r.ok());
  std::size_t reject_unknown = 0;
  for (const obs::SpanRecord& sp : spans)
    if (sp.cat == obs::SpanCat::kAdmission &&
        std::strcmp(sp.name, "reject_unknown") == 0)
      ++reject_unknown;
  EXPECT_EQ(reject_unknown, 2u);  // one from submit(), one from run()
  server->stop();
  EXPECT_EQ(server->submit("tiny", LoadGenerator::make_input(kTinyShape, 0),
                           nullptr),
            Admission::kRejectedClosed);
  // Unknown-session turn-aways are visible in the summary even though they
  // resolve to no per-session row.
  const ServerSummary summary = server->summary();
  EXPECT_EQ(summary.unknown_session_rejected, 2u);
  EXPECT_EQ(summary.total_rejected(), 2u);
}

TEST(Server, BackpressureRejectsInsteadOfBlocking) {
  // One worker, tiny queue: flood submit() far beyond capacity and verify
  // the overflow is rejected (kRejectedFull), everything accepted is
  // answered, and the server survives.
  ServerFixture fx;
  auto server = fx.make_server(1, /*capacity=*/4);
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Admission verdict =
        server->submit("tiny", LoadGenerator::make_input(kTinyShape, i),
                       [&done](Response&&) { ++done; });
    if (verdict == Admission::kAccepted)
      ++accepted;
    else if (verdict == Admission::kRejectedFull)
      ++rejected;
  }
  server->drain();
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(done.load(), accepted);
  server->stop();
  const ServerSummary summary = server->summary();
  EXPECT_EQ(summary.sessions[0].completed, accepted);
  EXPECT_EQ(summary.sessions[0].rejected, rejected);
  EXPECT_LE(summary.max_queue_depth, 4u);
}

TEST(Server, StopAnswersEveryAcceptedRequest) {
  ServerFixture fx;
  auto server = fx.make_server(2, /*capacity=*/128);
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < 32; ++i)
    if (server->submit("tiny", LoadGenerator::make_input(kTinyShape, i),
                       [&done](Response&&) { ++done; }) ==
        Admission::kAccepted)
      ++accepted;
  server->stop();  // close + drain + join, without an explicit drain()
  EXPECT_EQ(done.load(), accepted);
}

TEST(Server, MicroBatchingCoalescesBurst) {
  // A burst submitted while one worker is busy must ride in micro-batches
  // (mean batch size > 1), not one engine call per request.
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = 64;
  sc.batch.max_batch_size = 8;
  sc.batch.max_queue_delay = std::chrono::microseconds(4000);
  Server server(sc);
  server.sessions().add_session("tiny", fx.fast, 1);
  server.start();
  for (std::uint64_t i = 0; i < 32; ++i)
    server.submit("tiny", LoadGenerator::make_input(kTinyShape, i), nullptr);
  server.drain();
  server.stop();
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.sessions[0].completed, 32u);
  EXPECT_GT(summary.sessions[0].mean_batch_size, 1.0);
  EXPECT_LE(summary.sessions[0].max_batch_size, 8u);
  EXPECT_LT(summary.sessions[0].batches, 32u);
}

// --- LoadGenerator + determinism -------------------------------------------

TEST(LoadGenerator, TraceIsDeterministicAndWellFormed) {
  TraceConfig tc;
  tc.requests = 50;
  tc.rate_rps = 500.0;
  tc.sessions = {"a", "b"};
  tc.seed = 11;
  const Trace t1 = make_trace(tc);
  const Trace t2 = make_trace(tc);
  ASSERT_EQ(t1.events.size(), 50u);
  double prev = 0.0;
  bool saw_both = false;
  for (std::size_t i = 0; i < t1.events.size(); ++i) {
    EXPECT_EQ(t1.events[i].t_seconds, t2.events[i].t_seconds);
    EXPECT_EQ(t1.events[i].session, t2.events[i].session);
    EXPECT_EQ(t1.events[i].input_seed, t2.events[i].input_seed);
    EXPECT_GT(t1.events[i].t_seconds, prev);  // strictly increasing
    prev = t1.events[i].t_seconds;
    if (t1.events[i].session != t1.events[0].session) saw_both = true;
  }
  EXPECT_TRUE(saw_both);

  tc.seed = 12;
  const Trace t3 = make_trace(tc);
  EXPECT_NE(t1.events[0].input_seed, t3.events[0].input_seed);

  tc.arrivals = ArrivalProcess::kBursty;
  tc.burst_rate_rps = 5000.0;
  const Trace bursty = make_trace(tc);
  EXPECT_EQ(bursty.events.size(), 50u);
  EXPECT_GT(bursty.duration_seconds(), 0.0);
}

/// Replays one seeded trace and returns the per-event logits.
std::vector<nn::Tensor> replay_logits(ServerFixture& fx, const Trace& trace,
                                      std::size_t workers,
                                      ReplayOptions opts) {
  auto server = fx.make_server(workers);
  LoadGenerator loadgen(*server, {kTinyShape, kTinyShape});
  const LoadReport load = loadgen.replay(trace, opts);
  server->drain();
  server->stop();
  EXPECT_EQ(load.sent, trace.events.size());
  EXPECT_EQ(load.rejected, 0u);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_GT(load.achieved_rps, 0.0);
  std::vector<nn::Tensor> logits;
  logits.reserve(load.records.size());
  for (const RequestRecord& rec : load.records) {
    EXPECT_TRUE(rec.completed);
    EXPECT_TRUE(rec.response.ok());
    logits.push_back(rec.response.logits);
  }
  return logits;
}

TEST(LoadGenerator, SeededReplayIsBitwiseStableAcrossWorkerCounts) {
  // The ISSUE 4 determinism contract: the same seeded trace, replayed
  // closed-loop at 1 and 8 server workers, produces bitwise-identical
  // per-request outputs (order-independent), each equal to the
  // single-sample accelerator on the same deterministic input.
  ServerFixture fx;
  TraceConfig tc;
  tc.requests = 24;
  tc.rate_rps = 2000.0;
  tc.sessions = {"tiny", "tiny-k256"};
  tc.seed = 21;
  const Trace trace = make_trace(tc);

  ReplayOptions closed;
  closed.mode = ReplayOptions::Mode::kClosedLoop;
  closed.closed_loop_clients = 6;
  const auto logits_1w = replay_logits(fx, trace, 1, closed);
  const auto logits_8w = replay_logits(fx, trace, 8, closed);

  core::DeepCamConfig cfg;
  cfg.cam_rows = 16;
  core::DeepCamAccelerator acc(*fx.model, cfg);
  cfg.default_hash_bits = 256;
  core::DeepCamAccelerator acc_small(*fx.model, cfg);

  ASSERT_EQ(logits_1w.size(), trace.events.size());
  ASSERT_EQ(logits_8w.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    expect_bitwise_equal(logits_1w[i], logits_8w[i]);
    const TraceEvent& e = trace.events[i];
    const nn::Tensor input =
        LoadGenerator::make_input(kTinyShape, e.input_seed);
    expect_bitwise_equal(
        logits_1w[i],
        e.session == 0 ? acc.run(input) : acc_small.run(input));
  }
}

TEST(LoadGenerator, OpenLoopReplayDeliversEverythingUnderBackpressure) {
  // Open-loop at a rate far beyond capacity with a small queue: some
  // requests get rejected (that is the point of admission control), every
  // accepted one completes, and the latency histogram is populated.
  ServerFixture fx;
  auto server = fx.make_server(2, /*capacity=*/8);
  TraceConfig tc;
  tc.requests = 48;
  tc.rate_rps = 20000.0;
  tc.sessions = {"tiny"};
  tc.seed = 31;
  LoadGenerator loadgen(*server, {kTinyShape});
  ReplayOptions opts;  // open loop
  const LoadReport load = loadgen.replay(make_trace(tc), opts);
  server->drain();
  server->stop();
  EXPECT_EQ(load.sent + load.rejected, 48u);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_EQ(load.latency.count(), load.sent);
  if (load.sent > 0) {
    EXPECT_GT(load.percentile_ms(50), 0.0);
    EXPECT_GE(load.percentile_ms(99), load.percentile_ms(50));
  }
  const ServerSummary summary = server->summary();
  EXPECT_EQ(summary.sessions[0].completed, load.sent);
  EXPECT_EQ(summary.sessions[0].rejected, load.rejected);
}

// --- VirtualClock ----------------------------------------------------------

TEST(VirtualClock, TimeOnlyMovesOnAdvance) {
  VirtualClock clock;
  const Clock::time_point t0 = clock.now();
  EXPECT_EQ(clock.now(), t0);
  clock.advance(std::chrono::milliseconds(5));
  EXPECT_EQ(clock.now(), t0 + std::chrono::milliseconds(5));
  clock.advance_to(t0 + std::chrono::milliseconds(3));  // never backwards
  EXPECT_EQ(clock.now(), t0 + std::chrono::milliseconds(5));
  clock.sleep_until(t0 + std::chrono::milliseconds(9));  // = advance_to
  EXPECT_EQ(clock.now(), t0 + std::chrono::milliseconds(9));
}

TEST(VirtualClock, WaitUntilTimesOutExactlyAtVirtualDeadline) {
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lk(mu);
  const Clock::time_point deadline =
      clock.now() + std::chrono::milliseconds(2);
  EXPECT_FALSE(clock.wait_until(cv, lk, deadline));  // time never moved
  clock.advance(std::chrono::milliseconds(2));
  EXPECT_TRUE(clock.wait_until(cv, lk, deadline));  // already reached
}

// --- Table-driven SLO scheduler decisions (virtual clock, no sleeps) -------

Request make_slo_request(SloClass slo, std::uint64_t id,
                         Clock::time_point deadline = {}) {
  Request r;
  r.id = id;
  r.session = 0;
  r.slo = slo;
  r.deadline = deadline;
  return r;
}

TEST(SloAdmission, DepthWatermarksShedExactlyPerTable) {
  // Capacity 8, watermarks: interactive never sheds, standard at depth
  // >= 6, batch at depth >= 4. Each row pins the exact verdict at the
  // depth reached by the preceding rows — one deterministic decision
  // sequence, replayed identically on every run.
  AdmissionPolicy adm;
  adm.shed_depth_fraction = {1.0, 0.75, 0.5};
  RequestQueue q(8, adm);
  struct Row {
    SloClass slo;
    Admission want;  // verdict at the depth accumulated so far
  };
  const Row table[] = {
      {SloClass::kBatch, Admission::kAccepted},        // depth 0
      {SloClass::kBatch, Admission::kAccepted},        // depth 1
      {SloClass::kStandard, Admission::kAccepted},     // depth 2
      {SloClass::kInteractive, Admission::kAccepted},  // depth 3
      {SloClass::kBatch, Admission::kRejectedShed},    // depth 4 >= 0.5*8
      {SloClass::kStandard, Admission::kAccepted},     // depth 4
      {SloClass::kStandard, Admission::kAccepted},     // depth 5
      {SloClass::kStandard, Admission::kRejectedShed}, // depth 6 >= 0.75*8
      {SloClass::kBatch, Admission::kRejectedShed},    // depth 6
      {SloClass::kInteractive, Admission::kAccepted},  // depth 6
      {SloClass::kInteractive, Admission::kAccepted},  // depth 7
      {SloClass::kInteractive, Admission::kRejectedFull},  // depth 8 = cap
  };
  std::uint64_t id = 0;
  for (const Row& row : table) {
    SCOPED_TRACE("row " + std::to_string(id));
    EXPECT_EQ(q.try_push(make_slo_request(row.slo, id++)), row.want);
  }
  EXPECT_EQ(q.depth(), 8u);
}

TEST(SloAdmission, EstimatedWaitShedsSlowClassesFirst) {
  // est_service_rps = 100 => estimated wait = depth / 100 s. Batch budget
  // 50 ms (sheds once depth > 5), standard budget 90 ms (sheds once depth
  // > 9), interactive unlimited.
  AdmissionPolicy adm;
  adm.est_service_rps = 100.0;
  adm.max_wait[static_cast<std::size_t>(SloClass::kBatch)] =
      std::chrono::milliseconds(50);
  adm.max_wait[static_cast<std::size_t>(SloClass::kStandard)] =
      std::chrono::milliseconds(90);
  RequestQueue q(64, adm);
  std::uint64_t id = 0;
  for (int i = 0; i < 6; ++i)  // depth 0..5: every class admitted
    ASSERT_EQ(q.try_push(make_slo_request(SloClass::kBatch, id++)),
              Admission::kAccepted);
  // depth 6: 60 ms estimated wait kills batch, spares standard.
  EXPECT_EQ(q.try_push(make_slo_request(SloClass::kBatch, id++)),
            Admission::kRejectedShed);
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, id++)),
              Admission::kAccepted);
  // depth 10: 100 ms estimated wait kills standard too; interactive rides.
  EXPECT_EQ(q.try_push(make_slo_request(SloClass::kStandard, id++)),
            Admission::kRejectedShed);
  EXPECT_EQ(q.try_push(make_slo_request(SloClass::kInteractive, id++)),
            Admission::kAccepted);
}

TEST(SloExpiry, BatchFormationDivertsLapsedDeadlinesPerTable) {
  VirtualClock clock;
  RequestQueue q(16, AdmissionPolicy{}, &clock);
  BatchPolicy bp;
  bp.max_batch_size = 8;
  bp.max_queue_delay = std::chrono::microseconds(0);
  const Clock::time_point t0 = clock.now();
  // Deadlines at +10/+20/+30 ms and one deadline-free request.
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 0,
                                        t0 + std::chrono::milliseconds(10))),
            Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 1,
                                        t0 + std::chrono::milliseconds(20))),
            Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 2,
                                        t0 + std::chrono::milliseconds(30))),
            Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 3)),
            Admission::kAccepted);
  clock.advance(std::chrono::milliseconds(15));  // only id 0 has lapsed
  std::vector<Request> expired;
  const auto batch = q.pop_micro_batch(bp, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 0u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batch[2].id, 3u);
}

TEST(SloExpiry, FullyLapsedBatchReturnsExpiredOnlyWithoutWaiting) {
  VirtualClock clock;
  RequestQueue q(16, AdmissionPolicy{}, &clock);
  BatchPolicy bp;
  bp.max_batch_size = 8;
  // A huge coalescing window that must NOT be waited out when every
  // extracted request has already expired.
  bp.max_queue_delay = std::chrono::hours(1);
  const Clock::time_point t0 = clock.now();
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 0,
                                        t0 + std::chrono::milliseconds(1))),
            Admission::kAccepted);
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 1,
                                        t0 + std::chrono::milliseconds(2))),
            Admission::kAccepted);
  clock.advance(std::chrono::milliseconds(5));
  std::vector<Request> expired;
  const auto batch = q.pop_micro_batch(bp, &expired);
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 0u);
  EXPECT_EQ(expired[1].id, 1u);
}

TEST(SloExpiry, EarliestRiderDeadlineCapsTheCoalescingWait) {
  // One request with a 5 ms (virtual) deadline under a 1 h delay bound:
  // the pop must return when the *deadline* lapses, not the delay bound.
  VirtualClock clock;
  RequestQueue q(16, AdmissionPolicy{}, &clock);
  BatchPolicy bp;
  bp.max_batch_size = 8;
  bp.max_queue_delay = std::chrono::hours(1);
  const Clock::time_point t0 = clock.now();
  ASSERT_EQ(q.try_push(make_slo_request(SloClass::kStandard, 0,
                                        t0 + std::chrono::milliseconds(5))),
            Admission::kAccepted);
  std::vector<Request> expired;
  std::vector<Request> batch;
  std::thread popper([&] { batch = q.pop_micro_batch(bp, &expired); });
  // Wait (real time) until the popper has extracted the head — its
  // decision is then pinned at virtual t0 — before lapsing the deadline.
  while (q.depth() != 0) std::this_thread::yield();
  clock.advance(std::chrono::milliseconds(6));  // lapse the rider's deadline
  popper.join();
  ASSERT_EQ(batch.size(), 1u);  // extracted before it lapsed -> it runs
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_TRUE(expired.empty());
}

TEST(SloPriority, HeadSelectionPrefersUrgentClasses) {
  RequestQueue q(16);
  BatchPolicy bp;
  bp.max_batch_size = 8;
  bp.max_queue_delay = std::chrono::microseconds(0);
  // Batch class arrives first but interactive must be served first.
  Request a = make_slo_request(SloClass::kBatch, 0);
  Request b = make_slo_request(SloClass::kInteractive, 1);
  Request c = make_slo_request(SloClass::kBatch, 2);
  a.session = b.session = c.session = 1;  // same session: all coalesce
  ASSERT_EQ(q.try_push(std::move(a)), Admission::kAccepted);
  ASSERT_EQ(q.try_push(std::move(b)), Admission::kAccepted);
  ASSERT_EQ(q.try_push(std::move(c)), Admission::kAccepted);
  const auto batch = q.pop_micro_batch(bp);
  ASSERT_EQ(batch.size(), 3u);
  // Head picked by (class, seq); extraction preserves queue order.
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batch[2].id, 2u);

  // Across sessions the urgent class wins the whole micro-batch.
  Request d = make_slo_request(SloClass::kBatch, 10);
  d.session = 0;
  Request e = make_slo_request(SloClass::kInteractive, 11);
  e.session = 2;
  ASSERT_EQ(q.try_push(std::move(d)), Admission::kAccepted);
  ASSERT_EQ(q.try_push(std::move(e)), Admission::kAccepted);
  const auto urgent = q.pop_micro_batch(bp);
  ASSERT_EQ(urgent.size(), 1u);
  EXPECT_EQ(urgent[0].id, 11u);  // session 2 jumped the session-0 request
  EXPECT_EQ(urgent[0].session, 2u);
}

TEST(PumpFormation, DueRulesPerTable) {
  // The non-blocking pop behind Server::pump(). Each row enqueues its
  // riders (ids 0, 1, ... in push order) at virtual t0, optionally closes
  // the queue, then runs its steps: advance the clock, pump once, and pin
  // what was released and the depth left behind.
  struct Rider {
    std::size_t session;
    int deadline_ms;  // relative to t0; 0 = no deadline
  };
  struct Step {
    int advance_ms;
    std::vector<std::uint64_t> run, expired;
    std::size_t depth;
  };
  struct Row {
    const char* name;
    std::vector<Rider> riders;
    std::size_t max_batch;
    Clock::duration delay;
    bool close;
    bool sink;  // expired sink present (expiry enabled)
    std::vector<Step> steps;
  };
  const Clock::duration window = std::chrono::milliseconds(10);
  const Clock::duration hour = std::chrono::hours(1);
  const Row table[] = {
      {"empty queue", {}, 8, window, false, true, {{0, {}, {}, 0}}},
      {"not yet due: nothing extracted",
       {{0, 0}, {0, 0}}, 8, window, false, true,
       {{5, {}, {}, 2}}},
      {"head aged past max_queue_delay",
       {{0, 0}, {1, 0}, {0, 0}}, 8, window, false, true,
       {{5, {}, {}, 3}, {5, {0, 2}, {}, 1}}},
      {"a full batch's worth of same-session riders",
       {{0, 0}, {1, 0}, {0, 0}, {0, 0}, {0, 0}}, 3, window, false, true,
       {{0, {0, 2, 3}, {}, 2}}},
      {"a lapsed same-session rider makes the batch due",
       {{0, 0}, {0, 2}, {0, 30}}, 8, window, false, true,
       {{1, {}, {}, 3}, {2, {0, 2}, {1}, 0}}},
      {"a closed queue flushes",
       {{0, 0}, {1, 0}}, 8, window, true, true,
       {{0, {0}, {}, 1}, {0, {1}, {}, 0}}},
      {"no expired sink: deadlines are ignored",
       {{0, 2}}, 8, window, false, false,
       {{3, {}, {}, 1}, {7, {0}, {}, 0}}},
      // Where the pump differs from the blocking pop: no rider deadline
      // caps the window, so a rider whose deadline falls inside it is
      // expired once it lapses. SloExpiry.EarliestRiderDeadlineCapsThe-
      // CoalescingWait shows the blocking pop running the same rider.
      {"a deadline inside the window expires the rider",
       {{0, 5}}, 8, hour, false, true,
       {{0, {}, {}, 1}, {6, {}, {0}, 0}}},
  };
  const auto ids = [](const std::vector<Request>& v) {
    std::vector<std::uint64_t> out;
    for (const Request& r : v) out.push_back(r.id);
    return out;
  };
  for (const Row& row : table) {
    SCOPED_TRACE(row.name);
    VirtualClock clock;
    RequestQueue q(16, AdmissionPolicy{}, &clock);
    BatchPolicy bp;
    bp.max_batch_size = row.max_batch;
    bp.max_queue_delay =
        std::chrono::duration_cast<std::chrono::microseconds>(row.delay);
    const Clock::time_point t0 = clock.now();
    std::uint64_t id = 0;
    for (const Rider& rider : row.riders) {
      Request r = make_slo_request(
          SloClass::kStandard, id++,
          rider.deadline_ms > 0
              ? t0 + std::chrono::milliseconds(rider.deadline_ms)
              : Clock::time_point{});
      r.session = rider.session;
      ASSERT_EQ(q.try_push(std::move(r)), Admission::kAccepted);
    }
    if (row.close) q.close();
    for (const Step& step : row.steps) {
      clock.advance(std::chrono::milliseconds(step.advance_ms));
      std::vector<Request> expired;
      const std::vector<Request> run =
          q.try_pop_micro_batch(bp, row.sink ? &expired : nullptr);
      EXPECT_EQ(ids(run), step.run);
      EXPECT_EQ(ids(expired), step.expired);
      EXPECT_EQ(q.depth(), step.depth);
    }
  }
}

// --- k-fallback (quality dial) ---------------------------------------------

TEST(SessionManager, FallbackLinksValidateAndResolve) {
  ServerFixture fx;
  SessionManager mgr;
  mgr.add_session("hi", fx.fast, 1);
  mgr.add_session("lo", fx.small, 1);
  EXPECT_FALSE(mgr.fallback(0).has_value());
  mgr.set_fallback("hi", "lo");
  ASSERT_TRUE(mgr.fallback(0).has_value());
  EXPECT_EQ(*mgr.fallback(0), 1u);
  EXPECT_FALSE(mgr.fallback(1).has_value());
  EXPECT_THROW(mgr.set_fallback("hi", "nope"), Error);
  EXPECT_THROW(mgr.set_fallback("nope", "lo"), Error);
  EXPECT_THROW(mgr.set_fallback("hi", "hi"), Error);
}

TEST(Server, DowngradeDialReroutesPressuredRequestsToFallbackTier) {
  // downgrade_fraction = 0.0: every admission counts as pressured, so
  // every "tiny" request deterministically reroutes to "tiny-k256" — and
  // its logits are bitwise the k=256 engine's, proving the dial trades
  // accuracy (hash length), not correctness.
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 2;
  sc.queue_capacity = 64;
  sc.batch.max_batch_size = 4;
  sc.batch.max_queue_delay = std::chrono::microseconds(500);
  sc.slo.downgrade_fraction = 0.0;
  Server server(sc);
  server.sessions().add_session("tiny", fx.fast, 2);
  server.sessions().add_session("tiny-k256", fx.small, 2);
  server.sessions().set_fallback("tiny", "tiny-k256");
  server.start();

  core::DeepCamConfig cfg;
  cfg.cam_rows = 16;
  cfg.default_hash_bits = 256;
  core::DeepCamAccelerator acc_small(*fx.model, cfg);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const nn::Tensor input = LoadGenerator::make_input(kTinyShape, seed);
    Response r = server.run("tiny", input);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.downgraded);
    expect_bitwise_equal(r.logits, acc_small.run(input));
  }
  server.stop();
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.sessions[0].completed, 0u);   // "tiny" never ran
  EXPECT_EQ(summary.sessions[1].completed, 8u);   // all served by fallback
  EXPECT_EQ(summary.sessions[1].downgraded, 8u);
  EXPECT_EQ(summary.total_downgraded(), 8u);
}

TEST(Server, NoFallbackMeansNoDowngradeEvenUnderPressure) {
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = 8;
  sc.batch.max_batch_size = 4;
  sc.batch.max_queue_delay = std::chrono::microseconds(100);
  sc.slo.downgrade_fraction = 0.0;  // always pressured...
  Server server(sc);
  server.sessions().add_session("tiny", fx.fast, 1);  // ...but nowhere to go
  server.start();
  Response r = server.run("tiny", LoadGenerator::make_input(kTinyShape, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.downgraded);
  server.stop();
  EXPECT_EQ(server.summary().total_downgraded(), 0u);
}

// --- Deterministic flash-crowd goodput: SLO-aware vs FIFO ------------------

struct SimOutcome {
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t shed = 0;          // watermark rejections
  std::size_t rejected_full = 0; // capacity rejections
  std::size_t completed = 0;     // ran through "service"
  std::size_t expired = 0;       // answered without running
  std::size_t slo_met = 0;       // completed within deadline
};

/// Single-threaded virtual-clock simulation of one server worker draining
/// the SLO queue at a fixed service rate (8 requests / 10 ms = 800 rps).
/// Every scheduling decision — shed at admission, expiry at batch
/// formation, completion-vs-deadline — is a pure function of the trace and
/// the policy, so both policies are compared on identical arrivals with
/// zero nondeterminism and zero real-time sleeps.
SimOutcome simulate_service(const Trace& trace, bool slo_aware) {
  constexpr auto kService = std::chrono::milliseconds(10);  // per batch
  const std::array<Clock::duration, kNumSloClasses> kDeadline = {
      std::chrono::milliseconds(25), std::chrono::milliseconds(50),
      std::chrono::milliseconds(100)};

  VirtualClock clock;
  const Clock::time_point t0 = clock.now();
  AdmissionPolicy adm;  // FIFO baseline: no watermarks
  if (slo_aware) adm.shed_depth_fraction = {1.0, 0.75, 0.35};
  RequestQueue q(40, adm, &clock);
  BatchPolicy bp;
  bp.max_batch_size = 8;
  bp.max_queue_delay = std::chrono::microseconds(0);

  SimOutcome out;
  out.arrivals = trace.events.size();
  auto to_duration = [](double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  };
  std::size_t next = 0;
  std::vector<Request> expired;
  while (next < trace.events.size() || q.depth() > 0) {
    // Admit everything that has arrived by virtual-now.
    while (next < trace.events.size() &&
           t0 + to_duration(trace.events[next].t_seconds) <= clock.now()) {
      const TraceEvent& e = trace.events[next];
      Request r = make_slo_request(e.slo, next);
      // Deadline anchored at the true arrival instant, not admission.
      r.deadline = t0 + to_duration(e.t_seconds) +
                   kDeadline[static_cast<std::size_t>(e.slo)];
      switch (q.try_push(std::move(r))) {
        case Admission::kAccepted: ++out.accepted; break;
        case Admission::kRejectedShed: ++out.shed; break;
        default: ++out.rejected_full; break;
      }
      ++next;
    }
    if (q.depth() == 0) {
      clock.advance_to(t0 + to_duration(trace.events[next].t_seconds));
      continue;
    }
    expired.clear();
    const auto batch =
        q.pop_micro_batch(bp, slo_aware ? &expired : nullptr);
    out.expired += expired.size();  // answered instantly, no service cost
    if (batch.empty()) continue;
    clock.advance(kService);  // the batch occupies the engine
    for (const Request& r : batch) {
      ++out.completed;
      if (r.deadline >= clock.now()) ++out.slo_met;
    }
  }
  return out;
}

TEST(SloGoodput, FlashCrowdSloAwareBeatsFifoWithZeroLostRequests) {
  // ISSUE 7 acceptance criterion. Flash crowd at 2x saturation: service
  // capacity is 800 rps, the spike offers 1600 rps. The SLO-aware policy
  // (shed batch-class early, expire doomed requests) must deliver strictly
  // more deadline-met responses than the FIFO baseline (no shedding, no
  // expiry), and neither may lose a single request: every arrival is
  // accepted+answered, shed, or backpressure-rejected.
  TraceConfig tc;
  tc.arrivals = ArrivalProcess::kFlash;
  tc.rate_rps = 400.0;
  tc.flash_rate_rps = 1600.0;   // 2x the 800 rps service rate
  tc.flash_start_seconds = 0.05;
  tc.flash_duration_seconds = 0.2;
  tc.requests = 200;
  tc.sessions = {"tiny"};
  tc.class_weights = {0.25, 0.5, 0.25};
  tc.seed = 7;
  const Trace trace = make_trace(tc);

  const SimOutcome slo = simulate_service(trace, /*slo_aware=*/true);
  const SimOutcome fifo = simulate_service(trace, /*slo_aware=*/false);

  // Zero lost requests, both policies: accounting is exhaustive.
  EXPECT_EQ(slo.accepted + slo.shed + slo.rejected_full, slo.arrivals);
  EXPECT_EQ(slo.completed + slo.expired, slo.accepted);
  EXPECT_EQ(fifo.accepted + fifo.shed + fifo.rejected_full, fifo.arrivals);
  EXPECT_EQ(fifo.completed + fifo.expired, fifo.accepted);
  // The FIFO baseline never sheds or expires by construction.
  EXPECT_EQ(fifo.shed, 0u);
  EXPECT_EQ(fifo.expired, 0u);
  // The headline claim: SLO-aware goodput strictly exceeds FIFO goodput
  // under the flash crowd (identical arrivals, identical service model).
  EXPECT_GT(slo.slo_met, fifo.slo_met);
  // And the win comes from the overload controls actually engaging.
  EXPECT_GT(slo.shed + slo.expired, 0u);
  // Determinism double-check: a second run reproduces both outcomes bit
  // for bit (same trace object, virtual time only).
  const SimOutcome slo2 = simulate_service(trace, /*slo_aware=*/true);
  EXPECT_EQ(slo2.slo_met, slo.slo_met);
  EXPECT_EQ(slo2.shed, slo.shed);
  EXPECT_EQ(slo2.expired, slo.expired);
}

// --- Property tests: conservation under SLO pressure -----------------------

TEST(SloProperty, AcceptedRequestsAreAnsweredExactlyOnceNeverLost) {
  // Tight deadlines + watermarks + tiny queue: sheds, expiries and
  // completions all occur, and still every accepted request is answered
  // exactly once — the on_done callback for request i fires once or (iff
  // rejected) never.
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 2;
  sc.queue_capacity = 8;
  sc.batch.max_batch_size = 4;
  sc.batch.max_queue_delay = std::chrono::microseconds(200);
  sc.slo.deadline = {std::chrono::microseconds(300),
                     std::chrono::milliseconds(2),
                     std::chrono::milliseconds(50)};
  sc.slo.admission.shed_depth_fraction = {1.0, 0.75, 0.5};
  Server server(sc);
  server.sessions().add_session("tiny", fx.fast, 2);
  server.start();

  constexpr std::size_t kN = 96;
  std::vector<std::atomic<std::uint32_t>> answers(kN);
  std::size_t accepted = 0, shed = 0, rejected = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const SloClass slo = static_cast<SloClass>(i % kNumSloClasses);
    const Admission verdict = server.submit(
        "tiny", LoadGenerator::make_input(kTinyShape, i),
        [&answers, i](Response&&) { ++answers[i]; }, slo);
    if (verdict == Admission::kAccepted)
      ++accepted;
    else if (verdict == Admission::kRejectedShed)
      ++shed;
    else
      ++rejected;
  }
  server.drain();
  server.stop();

  std::size_t answered = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_LE(answers[i].load(), 1u) << "request " << i << " answered twice";
    answered += answers[i].load();
  }
  EXPECT_EQ(answered, accepted);            // exactly once, never lost
  EXPECT_EQ(accepted + shed + rejected, kN);
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.total_completed(), accepted);
  EXPECT_EQ(summary.total_shed(), shed);
}

TEST(SloProperty, PerClassAccountingSumsToOfferedLoadAcrossSeeds) {
  // For several seeded mixed-class traces: per class, accepted == answered
  // (completed incl. errors + expired), and accepted + shed + other
  // rejections across classes equals the offered load. Holds with every
  // overload control turned on.
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    ServerFixture fx;
    ServerConfig sc;
    sc.num_workers = 2;
    sc.queue_capacity = 12;
    sc.batch.max_batch_size = 4;
    sc.batch.max_queue_delay = std::chrono::microseconds(300);
    sc.slo.deadline = {std::chrono::milliseconds(1),
                       std::chrono::milliseconds(5),
                       std::chrono::milliseconds(80)};
    sc.slo.admission.shed_depth_fraction = {1.0, 0.8, 0.4};
    sc.slo.downgrade_fraction = 0.5;
    Server server(sc);
    server.sessions().add_session("tiny", fx.fast, 2);
    server.sessions().add_session("tiny-k256", fx.small, 2);
    server.sessions().set_fallback("tiny", "tiny-k256");
    server.start();

    TraceConfig tc;
    tc.arrivals = ArrivalProcess::kFlash;
    tc.rate_rps = 500.0;
    tc.flash_rate_rps = 20000.0;
    tc.flash_start_seconds = 0.01;
    tc.flash_duration_seconds = 0.05;
    tc.requests = 80;
    tc.sessions = {"tiny"};
    tc.class_weights = {1.0, 1.0, 1.0};
    tc.seed = seed;
    const Trace trace = make_trace(tc);
    LoadGenerator loadgen(server, {kTinyShape});
    ReplayOptions opts;
    opts.time_scale = 2.0;
    const LoadReport load = loadgen.replay(trace, opts);
    server.drain();
    server.stop();
    const ServerSummary summary = server.summary();
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Load-generator view: every event accounted for, sheds within
    // rejections, SLO-met within completions.
    EXPECT_EQ(load.sent + load.rejected, trace.events.size());
    EXPECT_LE(load.shed, load.rejected);
    EXPECT_EQ(load.sent,
              load.latency.count() + load.errors + load.expired);
    EXPECT_LE(load.slo_met, load.sent - load.errors - load.expired);

    // Server view agrees with the client view.
    EXPECT_EQ(summary.total_completed(), load.sent);
    EXPECT_EQ(summary.total_shed(), load.shed);
    EXPECT_EQ(summary.total_expired(), load.expired);

    // Per class: accepted == answered, and goodput pieces stay within it.
    ASSERT_EQ(summary.classes.size(), kNumSloClasses);
    std::uint64_t class_accepted = 0, class_shed = 0;
    for (const SloClassSummary& c : summary.classes) {
      EXPECT_EQ(c.accepted, c.completed) << c.name;
      EXPECT_LE(c.slo_met + c.expired + c.errors, c.completed) << c.name;
      class_accepted += c.accepted;
      class_shed += c.shed;
    }
    EXPECT_EQ(class_accepted, load.sent);
    EXPECT_EQ(class_shed, load.shed);
  }
}

TEST(SloServer, VirtualClockReplayExpiresEverythingPastDeadline) {
  // End-to-end virtual-clock run: with deadlines stamped and the clock
  // advanced far beyond them while requests sit in a 1-worker queue, the
  // backlog is answered as expirations, not run through the engine late.
  ServerFixture fx;
  VirtualClock clock;
  ServerConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = 64;
  sc.batch.max_batch_size = 2;
  sc.batch.max_queue_delay = std::chrono::milliseconds(5);
  sc.slo.deadline = {std::chrono::milliseconds(10),
                     std::chrono::milliseconds(10),
                     std::chrono::milliseconds(10)};
  sc.clock = &clock;
  Server server(sc);
  server.sessions().add_session("tiny", fx.fast, 1);
  server.start();

  std::atomic<std::size_t> expired{0}, completed{0};
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 24; ++i)
    if (server.submit("tiny", LoadGenerator::make_input(kTinyShape, i),
                      [&](Response&& r) {
                        if (r.expired)
                          ++expired;
                        else
                          ++completed;
                      }) == Admission::kAccepted)
      ++accepted;
  // Push virtual time far past every deadline; the worker observes it at
  // its next poll and expires whatever is still queued.
  clock.advance(std::chrono::seconds(5));
  server.drain();
  server.stop();
  EXPECT_EQ(expired.load() + completed.load(), accepted);
  EXPECT_GT(expired.load(), 0u);  // the backlog could not all dispatch
  EXPECT_EQ(server.summary().total_expired(), expired.load());
}

// --- Fault tolerance: replicas, router, chaos harness -----------------------

std::uint64_t test_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ChaosScript, GeneratorIsDeterministicAndSorted) {
  ChaosScriptConfig cc;
  cc.seed = 42;
  cc.duration_seconds = 2.0;
  cc.replicas = 3;
  cc.crashes = 2;
  cc.stalls = 1;
  cc.poisons = 2;
  cc.slows = 1;
  const ChaosScript a = make_chaos_script(cc);
  const ChaosScript b = make_chaos_script(cc);
  // Crashes and slows come with a paired heal/clear event each.
  ASSERT_EQ(a.size(), 2 * cc.crashes + cc.stalls + cc.poisons + 2 * cc.slows);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_seconds, b[i].at_seconds);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].replica, b[i].replica);
    EXPECT_EQ(a[i].param, b[i].param);
    if (i > 0) EXPECT_GE(a[i].at_seconds, a[i - 1].at_seconds);
    EXPECT_GE(a[i].at_seconds, 0.0);
    EXPECT_LT(a[i].replica, cc.replicas);
  }
  std::size_t crashes = 0, heals = 0;
  for (const FaultEvent& e : a) {
    crashes += e.kind == FaultKind::kReplicaCrash;
    heals += e.kind == FaultKind::kReplicaHeal;
  }
  EXPECT_EQ(crashes, cc.crashes);
  EXPECT_EQ(heals, cc.crashes);  // every crash is healed
}

TEST(RequestQueue, PushRetryBypassesCapacityButNotClose) {
  RequestQueue q(1);
  ASSERT_EQ(q.try_push(make_request(0, 1)), Admission::kAccepted);
  // A retry re-push succeeds even at capacity (the rider was already
  // admitted once; bouncing it now would lose an accepted request).
  Request retry = make_request(0, 2);
  retry.attempt = 1;
  EXPECT_TRUE(q.push_retry(std::move(retry)));
  EXPECT_EQ(q.depth(), 2u);
  q.close();
  // After close() the worker must answer the rider itself: push_retry
  // refuses instead of dropping the request into a queue nobody drains.
  Request late = make_request(0, 3);
  late.attempt = 1;
  EXPECT_FALSE(q.push_retry(std::move(late)));
  BatchPolicy bp;
  bp.max_batch_size = 8;
  bp.max_queue_delay = std::chrono::microseconds(0);
  EXPECT_EQ(q.pop_micro_batch(bp).size(), 2u);  // pre-close riders drain
}

TEST(ReplicaHealth, BreakerQuarantineThenCanaryReadmission) {
  // Drives one replica through the full state machine on a virtual clock:
  // healthy -> (breaker trips) quarantined -> (backoff lapses) recovering
  // -> (canary successes) healthy, with the router picking a survivor in
  // between. No real time passes.
  ServerFixture fx;
  VirtualClock clock;
  ReplicaConfig rc;
  rc.breaker_failures = 2;
  rc.canary_successes = 2;
  rc.quarantine_backoff = std::chrono::milliseconds(10);
  ReplicaSet set(fx.fast, /*replicas=*/2, /*engine_threads=*/1, rc, &clock);
  RouterConfig rtc;
  rtc.replica = rc;
  Router router(rtc, &clock);
  const Clock::time_point far = clock.now() + std::chrono::hours(1);

  auto run_one = [&](std::uint64_t key) {
    std::vector<nn::Tensor> in;
    in.push_back(LoadGenerator::make_input(kTinyShape, key));
    return router.run(set, key, SloClass::kBatch, std::move(in), kNoReplica,
                      far, /*cancellable=*/false);
  };

  // A single crashed replica just gets routed around (that's the point of
  // the ring) — crash both so the breaker provably trips on each.
  const std::size_t owner =
      router.pick(set, 0, SloClass::kBatch, kNoReplica).value();
  set.replica(0).chaos_crash();
  set.replica(1).chaos_crash();

  // Failures accumulate round-robin as health degrades; two consecutive
  // failures per replica open its breaker.
  Router::Attempt a1 = run_one(0);
  EXPECT_FALSE(a1.ok);
  EXPECT_EQ(a1.replica, owner);
  std::size_t attempts = 1;
  while (attempts < 8 &&
         (set.replica(0).health() != ReplicaHealth::kQuarantined ||
          set.replica(1).health() != ReplicaHealth::kQuarantined)) {
    clock.advance(std::chrono::milliseconds(1));
    EXPECT_FALSE(run_one(0).ok);
    ++attempts;
  }
  EXPECT_EQ(set.replica(0).health(), ReplicaHealth::kQuarantined);
  EXPECT_EQ(set.replica(1).health(), ReplicaHealth::kQuarantined);
  // With every replica quarantined the router reports total outage rather
  // than hanging.
  Router::Attempt none = run_one(0);
  EXPECT_FALSE(none.ok);
  EXPECT_EQ(none.replica, kNoReplica);

  // Heal the faults and let the quarantine backoff lapse: the next refresh
  // moves the replicas to recovering and the router feeds them canary
  // probes until canary_successes readmits each.
  set.replica(0).chaos_heal();
  set.replica(1).chaos_heal();
  clock.advance(std::chrono::milliseconds(20));
  for (int i = 0; i < 6; ++i) {
    clock.advance(std::chrono::milliseconds(1));
    EXPECT_TRUE(run_one(0).ok);
  }
  EXPECT_EQ(set.replica(owner).health(), ReplicaHealth::kHealthy);

  const ReplicaSummary s = set.replica(owner).summarize(clock.now());
  EXPECT_GE(s.transitions, 3u);  // quarantined -> recovering -> healthy
  EXPECT_GE(s.canary_probes, 1u);
  EXPECT_GT(s.quarantine_seconds, 0.0);
  EXPECT_EQ(s.health, "healthy");
  EXPECT_GE(s.failures, 2u);
}

// Single-threaded virtual-clock chaos run: a RequestQueue drained through
// the Router over a 3-replica set, with a scripted crash+heal applied when
// virtual time crosses the event offsets. Every scheduling and routing
// decision is a pure function of (trace, crash_replica, knobs), so two runs
// must agree byte for byte — the replay contract of the chaos harness.
struct ChaosSimOutcome {
  std::size_t accepted = 0;
  std::size_t completed = 0;
  std::size_t expired = 0;
  std::size_t errors = 0;
  std::size_t retries = 0;
  std::size_t slo_met = 0;
  std::uint64_t checksum = 0;  // order-independent logits digest
  std::array<std::size_t, 10> met_window{};
  std::vector<ReplicaSummary> replicas;
};

ChaosSimOutcome simulate_chaos(
    const Trace& trace, std::shared_ptr<const core::CompiledModel> model,
    std::size_t crash_replica) {
  constexpr auto kService = std::chrono::milliseconds(2);
  const std::array<Clock::duration, kNumSloClasses> kDeadline = {
      std::chrono::milliseconds(60), std::chrono::milliseconds(120),
      std::chrono::milliseconds(250)};
  VirtualClock clock;
  const Clock::time_point t0 = clock.now();
  ReplicaConfig rc;
  rc.breaker_failures = 2;
  rc.canary_successes = 2;
  rc.quarantine_backoff = std::chrono::milliseconds(30);
  ReplicaSet set(std::move(model), /*replicas=*/3, /*engine_threads=*/1, rc,
                 &clock);
  RouterConfig rtc;
  rtc.replica = rc;
  Router router(rtc, &clock);
  RequestQueue q(512, AdmissionPolicy{}, &clock);
  BatchPolicy bp;
  bp.max_batch_size = 4;
  bp.max_queue_delay = std::chrono::microseconds(0);

  const double span = trace.events.back().t_seconds;
  const Clock::time_point t_crash =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(0.3 * span));
  const Clock::time_point t_heal =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(0.55 * span));
  const Clock::duration window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(span / 8.0));
  bool crashed = false, healed = false;

  auto to_duration = [](double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  };
  ChaosSimOutcome out;
  std::size_t next = 0;
  std::vector<Request> expired;
  while (next < trace.events.size() || q.depth() > 0) {
    if (!crashed && clock.now() >= t_crash) {
      set.replica(crash_replica).chaos_crash();
      crashed = true;
    }
    if (!healed && clock.now() >= t_heal) {
      set.replica(crash_replica).chaos_heal();
      healed = true;
    }
    while (next < trace.events.size() &&
           t0 + to_duration(trace.events[next].t_seconds) <= clock.now()) {
      const TraceEvent& e = trace.events[next];
      Request r = make_slo_request(e.slo, next);
      r.input = LoadGenerator::make_input(kTinyShape, next);
      r.deadline = t0 + to_duration(e.t_seconds) +
                   kDeadline[static_cast<std::size_t>(e.slo)];
      if (q.try_push(std::move(r)) == Admission::kAccepted) ++out.accepted;
      ++next;
    }
    if (q.depth() == 0) {
      clock.advance_to(t0 + to_duration(trace.events[next].t_seconds));
      continue;
    }
    expired.clear();
    std::vector<Request> batch = q.pop_micro_batch(bp, &expired);
    out.expired += expired.size();
    if (batch.empty()) continue;
    std::vector<nn::Tensor> inputs;
    inputs.reserve(batch.size());
    for (const Request& r : batch) inputs.push_back(r.input);  // keep for retry
    const Request& front = batch.front();
    const std::size_t avoid =
        front.attempt > 0 ? front.last_replica : kNoReplica;
    Router::Attempt a =
        router.run(set, front.id, front.slo, std::move(inputs), avoid,
                   Clock::time_point::max(), /*cancellable=*/false);
    clock.advance(kService);
    if (a.ok) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ++out.completed;
        std::uint32_t word = 0;
        std::memcpy(&word, a.outputs[i].data(), sizeof word);
        out.checksum ^= test_mix64(batch[i].id * 0x10001 + word);
        if (batch[i].deadline >= clock.now()) {
          ++out.slo_met;
          const auto w = static_cast<std::size_t>(
              (clock.now() - t0) / window);
          ++out.met_window[std::min(w, out.met_window.size() - 1)];
        }
      }
    } else {
      const std::array<std::size_t, kNumSloClasses> budget{1, 2, 3};
      for (Request& r : batch) {
        if (r.attempt < budget[static_cast<std::size_t>(r.slo)]) {
          ++r.attempt;
          r.last_replica = a.replica;
          ++out.retries;
          EXPECT_TRUE(q.push_retry(std::move(r)));
        } else {
          ++out.errors;
        }
      }
      clock.advance(router.backoff(front.attempt, front.id));
    }
  }
  out.replicas = set.summarize(clock.now());
  return out;
}

TEST(ChaosAcceptance, CrashOneOfThreeMidFlashCrowdIsLosslessAndReplays) {
  // ISSUE 8 acceptance: kill 1 of 3 replicas in the middle of a flash
  // crowd. Zero accepted requests may be lost, goodput must survive the
  // crash window and recover after the heal, the crashed replica must be
  // quarantined and readmitted through canary probes, and the entire run
  // must replay bit-identically.
  ServerFixture fx;
  TraceConfig tc;
  tc.arrivals = ArrivalProcess::kFlash;
  tc.rate_rps = 300.0;
  tc.flash_rate_rps = 900.0;
  tc.flash_start_seconds = 0.1;
  tc.flash_duration_seconds = 0.2;
  tc.requests = 240;
  tc.sessions = {"tiny"};
  tc.class_weights = {0.25, 0.5, 0.25};
  tc.seed = 11;
  const Trace trace = make_trace(tc);

  const ChaosSimOutcome run1 = simulate_chaos(trace, fx.fast, 1);

  // Conservation: every accepted request was answered exactly once.
  EXPECT_EQ(run1.completed + run1.expired + run1.errors, run1.accepted);
  // The survivors absorbed the crashed replica's keys: nothing had to be
  // terminally failed, and retries actually happened.
  EXPECT_EQ(run1.errors, 0u);
  EXPECT_GT(run1.retries, 0u);
  // Goodput: the crash costs at most a modest dip (instant failover keeps
  // the other 2/3 of keys untouched) and the tail of the run recovers.
  EXPECT_GE(run1.slo_met, run1.accepted * 2 / 3);
  EXPECT_GT(run1.met_window[7], 0u);  // still meeting deadlines at the end

  // The crashed replica went through the full lifecycle and came back.
  const ReplicaSummary& crashed = run1.replicas[1];
  EXPECT_GE(crashed.transitions, 3u);
  EXPECT_GE(crashed.canary_probes, 1u);
  EXPECT_GT(crashed.quarantine_seconds, 0.0);
  EXPECT_EQ(crashed.health, "healthy");
  // The survivors took real traffic throughout.
  EXPECT_GT(run1.replicas[0].batches, 0u);
  EXPECT_GT(run1.replicas[2].batches, 0u);

  // Bit-identical replay: same trace, same script, same everything.
  const ChaosSimOutcome run2 = simulate_chaos(trace, fx.fast, 1);
  EXPECT_EQ(run2.checksum, run1.checksum);
  EXPECT_EQ(run2.accepted, run1.accepted);
  EXPECT_EQ(run2.completed, run1.completed);
  EXPECT_EQ(run2.expired, run1.expired);
  EXPECT_EQ(run2.errors, run1.errors);
  EXPECT_EQ(run2.retries, run1.retries);
  EXPECT_EQ(run2.slo_met, run1.slo_met);
  EXPECT_EQ(run2.met_window, run1.met_window);
  ASSERT_EQ(run2.replicas.size(), run1.replicas.size());
  for (std::size_t r = 0; r < run1.replicas.size(); ++r) {
    EXPECT_EQ(run2.replicas[r].batches, run1.replicas[r].batches);
    EXPECT_EQ(run2.replicas[r].failures, run1.replicas[r].failures);
    EXPECT_EQ(run2.replicas[r].transitions, run1.replicas[r].transitions);
    EXPECT_EQ(run2.replicas[r].canary_probes,
              run1.replicas[r].canary_probes);
    EXPECT_DOUBLE_EQ(run2.replicas[r].quarantine_seconds,
                     run1.replicas[r].quarantine_seconds);
  }
}

TEST(FaultProperty, ExactlyOnceUnderRetriesHedgesAndChaosAcrossSeeds) {
  // Real multi-threaded server, 3 replicas, generated chaos script with
  // crashes, stalls, poisons and slows, hedging on: across seeds, every
  // accepted request is answered exactly once (success or error), and the
  // fault counters stay internally consistent.
  for (const std::uint64_t seed : {5u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ServerFixture fx;
    ServerConfig sc;
    sc.num_workers = 2;
    sc.queue_capacity = 64;
    sc.batch.max_batch_size = 4;
    sc.batch.max_queue_delay = std::chrono::microseconds(300);
    sc.replicas = 3;
    sc.router.hedge_interactive = true;
    sc.router.hedge_delay = std::chrono::milliseconds(2);
    sc.router.retry_backoff = std::chrono::microseconds(100);
    sc.router.replica.quarantine_backoff = std::chrono::milliseconds(5);
    ChaosScriptConfig cc;
    cc.seed = seed;
    cc.duration_seconds = 0.05;  // every event is due within ~65 ms
    cc.replicas = 3;
    cc.crashes = 1;
    cc.stalls = 1;
    cc.poisons = 2;
    cc.slows = 1;
    sc.chaos = make_chaos_script(cc);
    Server server(sc);
    server.sessions().add_session("tiny", fx.fast, 1);
    server.start();

    constexpr std::size_t kN = 120;
    std::vector<std::atomic<std::uint32_t>> answers(kN);
    std::size_t accepted = 0;
    std::size_t ok_responses = 0;
    std::mutex ok_mu;
    auto send_one = [&](std::size_t i) {
      const SloClass slo = static_cast<SloClass>(i % kNumSloClasses);
      if (server.submit(
              "tiny", LoadGenerator::make_input(kTinyShape, i),
              [&answers, &ok_mu, &ok_responses, i](Response&& r) {
                ++answers[i];
                if (r.ok()) {
                  std::lock_guard<std::mutex> lk(ok_mu);
                  ++ok_responses;
                }
              },
              slo) == Admission::kAccepted)
        ++accepted;
    };
    // First wave lands inside the chaos window; the pause pushes real time
    // past every scripted offset so the second wave's worker polls fire
    // whatever is left (workers only poll while traffic flows).
    for (std::size_t i = 0; i < kN / 2; ++i) {
      send_one(i);
      if (i % 8 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    for (std::size_t i = kN / 2; i < kN; ++i) send_one(i);
    server.drain();
    server.stop();

    std::size_t answered = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_LE(answers[i].load(), 1u) << "request " << i;
      answered += answers[i].load();
    }
    EXPECT_EQ(answered, accepted);
    const ServerSummary summary = server.summary();
    EXPECT_EQ(summary.total_completed(), accepted);
    EXPECT_GT(ok_responses, 0u);
    EXPECT_GE(summary.total_retries, summary.total_failovers);
    EXPECT_GE(summary.total_hedges, summary.total_hedges_won);
    EXPECT_GE(summary.total_hedges, summary.total_hedges_wasted);
    ASSERT_EQ(summary.replicas.size(), 3u);
    for (const ReplicaSummary& r : summary.replicas)
      EXPECT_GE(r.quarantine_seconds, 0.0);
    // Every scripted fault fired: the second wave polled past the window.
    EXPECT_EQ(server.injector().applied(), server.injector().total());
  }
}

TEST(Router, HedgeWinsAroundSlowOwner) {
  // 2 replicas, one chaos-slowed by 30 ms, hedge delay 1 ms: interactive
  // requests owned by the slow replica are hedged onto the fast one and
  // the hedge wins. Answers stay bitwise correct either way.
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 2;
  sc.queue_capacity = 64;
  sc.batch.max_batch_size = 2;
  sc.batch.max_queue_delay = std::chrono::microseconds(100);
  sc.replicas = 2;
  sc.router.hedge_interactive = true;
  sc.router.hedge_delay = std::chrono::milliseconds(1);
  Server server(sc);
  const std::size_t idx = server.sessions().add_session("tiny", fx.fast, 1);
  server.sessions().replicas(idx).replica(0).chaos_slow(
      std::chrono::milliseconds(30));
  server.start();

  core::DeepCamConfig cfg;
  cfg.cam_rows = 16;
  core::DeepCamAccelerator acc(*fx.model, cfg);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const nn::Tensor input = LoadGenerator::make_input(kTinyShape, i);
    Response r = server.run("tiny", input, SloClass::kInteractive);
    ASSERT_TRUE(r.ok());
    expect_bitwise_equal(r.logits, acc.run(input));
  }
  server.stop();
  const ServerSummary summary = server.summary();
  // With 16 distinct routing keys over 2 replicas, some land on the slow
  // owner; those must have hedged, and the fast replica's copy won.
  EXPECT_GE(summary.total_hedges, 1u);
  EXPECT_GE(summary.total_hedges_won, 1u);
  EXPECT_LE(summary.total_hedges_won, summary.total_hedges);
}

TEST(Server, AllReplicasCrashedAnswersEveryRequestWithError) {
  // Every replica dead: the server must not lose or hang a single request
  // — each accepted one is answered with a terminal error after its retry
  // budget is spent.
  ServerFixture fx;
  ServerConfig sc;
  sc.num_workers = 2;
  sc.queue_capacity = 32;
  sc.batch.max_batch_size = 4;
  sc.batch.max_queue_delay = std::chrono::microseconds(100);
  sc.replicas = 2;
  sc.router.retry_backoff = std::chrono::microseconds(50);
  Server server(sc);
  const std::size_t idx = server.sessions().add_session("tiny", fx.fast, 1);
  server.sessions().replicas(idx).replica(0).chaos_crash();
  server.sessions().replicas(idx).replica(1).chaos_crash();
  server.start();

  std::atomic<std::size_t> answered{0}, failed{0};
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 12; ++i)
    if (server.submit("tiny", LoadGenerator::make_input(kTinyShape, i),
                      [&](Response&& r) {
                        ++answered;
                        if (!r.ok()) ++failed;
                      }) == Admission::kAccepted)
      ++accepted;
  server.drain();
  server.stop();
  EXPECT_EQ(answered.load(), accepted);
  EXPECT_EQ(failed.load(), accepted);  // nothing could possibly succeed
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.total_completed(), accepted);
  EXPECT_EQ(summary.sessions[0].errors, accepted);
  EXPECT_GT(summary.total_retries, 0u);
}

// --- Metric views ----------------------------------------------------------

/// Value of the sample line for `series` in a Prometheus scrape, or -1 when
/// the scrape has no such line.
long long scrape_value(const std::string& text, const std::string& series) {
  const std::size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + series.size() + 2));
}

TEST(ServerViews, LiveSummaryAndScrapeEachReadOneSnapshot) {
  // on_response bumps a session's completed counter, its latency
  // histogram and its class's completed counter in one critical section,
  // so any single snapshot has them agree. A view assembled from several
  // locked reads tears under live traffic.
  ServerFixture fx;
  auto server = fx.make_server(2, /*capacity=*/256);
  obs::MetricsRegistry registry;
  register_prometheus_collector(registry, *server);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; !stop.load(); ++i) {
      server->submit("tiny", LoadGenerator::make_input(kTinyShape, i),
                     nullptr, static_cast<SloClass>(i % kNumSloClasses));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::size_t scrapes = 0, torn_scrapes = 0;
  std::size_t summaries = 0, torn_summaries = 0;
  long long scraped = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < until) {
    const ServerSummary s = server->summary();
    std::uint64_t class_completed = 0;
    for (const SloClassSummary& c : s.classes) class_completed += c.completed;
    ++summaries;
    if (class_completed != s.total_completed()) ++torn_summaries;

    const std::string text = registry.expose();
    scraped = scrape_value(
        text, "deepcam_requests_completed_total{session=\"tiny\"}");
    ++scrapes;
    if (scraped != scrape_value(text, "deepcam_request_latency_seconds_count"
                                      "{session=\"tiny\"}"))
      ++torn_scrapes;
  }
  stop = true;
  producer.join();
  server->stop();
  EXPECT_GT(scraped, 0);  // traffic flowed while scraping
  EXPECT_EQ(torn_scrapes, 0u) << "of " << scrapes << " scrapes";
  EXPECT_EQ(torn_summaries, 0u) << "of " << summaries << " summaries";
}

TEST(ServerViews, CounterDeclarationsAreWellFormed) {
  // MetricsRegistry::publish overwrites a republished (name, labels) pair,
  // so a duplicated family would silently drop a counter from scrapes.
  std::set<std::string> families;
  const auto check = [&families](const auto& decls) {
    std::set<std::string> keys;
    for (const auto& c : decls) {
      ASSERT_NE(c.key, nullptr);
      ASSERT_NE(c.help, nullptr);
      EXPECT_TRUE(keys.insert(c.key).second) << "duplicate key " << c.key;
      if (c.family != nullptr) {
        EXPECT_TRUE(families.insert(c.family).second)
            << "duplicate family " << c.family;
      }
    }
  };
  check(kServerCounters);
  check(kSessionCounters);
  check(kClassCounters);
  EXPECT_EQ(families.size(), 15u);
}

}  // namespace
}  // namespace deepcam::serve
