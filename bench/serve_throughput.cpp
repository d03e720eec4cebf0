// Serving throughput/latency bench: offered load vs p99, and saturation
// throughput vs the offline run_batch() upper bound.
//
// Five phases on one LeNet-5 session (k=256 operating point):
//
//  1. offline  — InferenceEngine::run_batch over a fixed batch, repeated;
//     best samples/s is the no-serving-overhead upper bound.
//  2. saturation — closed-loop replay (every client keeps one request
//     outstanding) through the full Server stack: RequestQueue ->
//     micro-batch formation -> engine submit(). Reported as achieved req/s, the
//     ratio to offline, and the high-water mark of concurrently in-flight
//     micro-batches (>= 2 proves batches pipeline instead of serializing).
//  3. sweep — seeded open-loop Poisson traces at rising fractions of the
//     measured saturation rate; reports p50/p95/p99 end-to-end latency per
//     offered load (the paper-style latency/throughput operating curve).
//  4. flash crowd — one seeded trace whose spike offers >= 2x the measured
//     saturation rate, replayed twice: through a FIFO server (deadlines
//     recorded, never enforced) and through the SLO-aware server
//     (watermark shedding + deadline expiry). Compares goodput and p99.9.
//  5. replica failover — the same paced trace through a clean 3-replica
//     server and one whose replica 1 is crash+healed mid-run by a chaos
//     script. Gates deadline-met of the faulted run at >= 80% of the
//     clean run, zero lost requests, and canary readmission of the
//     crashed replica.
//
// Results print as a table and (with --json PATH) are written as one JSON
// artifact (BENCH_pr9.json in CI) through the shared locale-proof
// serializers. --check exits nonzero unless saturation >= 90% of offline
// with >= 2 concurrent in-flight micro-batches AND the flash-crowd SLO
// server strictly beats FIFO on deadline-met responses with every trace
// event accounted for; --quick shrinks every phase for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "core/report_io.hpp"
#include "nn/topologies.hpp"
#include "serve/loadgen.hpp"
#include "serve/report_io.hpp"
#include "serve/server.hpp"

using namespace deepcam;

namespace {

struct SweepRow {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::size_t sent = 0;
  std::size_t rejected = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_batch = 0.0;
};

/// Build configuration context mirrored into the printout and the JSON
/// artifact (micro_kernels.cpp reports the same pair through the
/// google-benchmark context) so every emitted artifact is self-describing.
const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, check = false;
  std::string json_path, baseline_path;
  cli::Flags flags("serve_throughput",
                   "offline vs saturation vs offered-load serving sweep");
  flags.flag("quick", &quick, "shrink every phase for CI smoke runs")
      .flag("check", &check, "gate saturation >= 90% of offline, >= 2 in "
                             "flight")
      .option("json", &json_path, "write the bench JSON artifact here")
      .option("baseline", &baseline_path,
              "prior artifact; with --check, gate saturation >= 99% of its "
              "saturation.achieved_rps");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  std::printf("deepcam_build_type: %s\ndeepcam_codelet_isa: %s\n",
              build_type(), codelet::isa_name(codelet::active_isa()));

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t offline_samples = quick ? 32 : 64;
  const std::size_t offline_reps = quick ? 3 : 5;
  const std::size_t saturation_reps = quick ? 2 : 3;
  const std::size_t saturation_requests = quick ? 96 : 256;
  const std::size_t sweep_requests = quick ? 48 : 128;
  const std::size_t num_workers = std::max<std::size_t>(2, hw);

  auto model = nn::make_lenet5(/*seed=*/7);
  core::DeepCamConfig dc;
  dc.default_hash_bits = 256;
  auto compiled = std::make_shared<const core::CompiledModel>(*model, dc);
  const nn::Shape input_shape = nn::input_spec_for("lenet5").shape();

  // --- phase 1: offline upper bound --------------------------------------
  double offline_rps = 0.0;
  core::BatchReport offline_report;
  {
    core::InferenceEngine engine(compiled, hw);
    std::vector<nn::Tensor> batch;
    batch.reserve(offline_samples);
    for (std::size_t i = 0; i < offline_samples; ++i)
      batch.push_back(
          serve::LoadGenerator::make_input(input_shape, 1000 + i));
    for (std::size_t rep = 0; rep < offline_reps; ++rep) {
      core::BatchReport br;
      engine.run_batch(batch, &br);
      if (br.throughput() > offline_rps) {
        offline_rps = br.throughput();
        offline_report = br;
      }
    }
  }
  std::printf("offline run_batch: %.1f samples/s (%zu samples, %zu engine "
              "threads, best of %zu)\n",
              offline_rps, offline_samples, hw, offline_reps);

  auto make_server = [&] {
    serve::ServerConfig cfg;
    cfg.num_workers = num_workers;
    cfg.queue_capacity = 1024;
    cfg.batch.max_batch_size = 8;
    cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
    auto server = std::make_unique<serve::Server>(cfg);
    server->sessions().add_session("lenet5-k256", compiled, hw);
    server->start();
    return server;
  };

  // --- phase 2: closed-loop saturation ------------------------------------
  // Best-of-N like the offline phase: an asymmetric single run would bias
  // the ratio gate downward under CI timing noise.
  double saturation_rps = 0.0;
  std::uint64_t max_in_flight = 0;
  serve::ServerSummary saturation_summary;
  for (std::size_t rep = 0; rep < saturation_reps; ++rep) {
    auto server = make_server();
    serve::TraceConfig tc;
    tc.requests = saturation_requests;
    tc.sessions = {"lenet5-k256"};
    tc.seed = 42 + rep;
    serve::ReplayOptions opts;
    opts.mode = serve::ReplayOptions::Mode::kClosedLoop;
    opts.closed_loop_clients = 2 * num_workers * 8;  // keep batches full
    serve::LoadGenerator loadgen(*server, {input_shape});
    const serve::LoadReport load =
        loadgen.replay(serve::make_trace(tc), opts);
    server->drain();
    server->stop();
    const serve::ServerSummary summary = server->summary();
    max_in_flight = std::max(max_in_flight, summary.max_in_flight_batches);
    if (load.achieved_rps > saturation_rps) {
      saturation_rps = load.achieved_rps;
      saturation_summary = summary;
    }
  }
  std::printf("saturation (closed loop): %.1f req/s = %.1f%% of offline, "
              "max %llu micro-batches in flight, mean batch %.2f "
              "(best of %zu)\n",
              saturation_rps, 100.0 * saturation_rps / offline_rps,
              static_cast<unsigned long long>(max_in_flight),
              saturation_summary.sessions[0].mean_batch_size,
              saturation_reps);

  // --- phase 3: offered-load sweep (open-loop Poisson) --------------------
  std::vector<SweepRow> sweep;
  const double fractions[] = {0.25, 0.5, 0.75, 0.9, 1.1};
  std::printf("\n%10s %10s %6s %6s %9s %9s %9s %7s\n", "offered", "achieved",
              "ok", "rej", "p50_ms", "p95_ms", "p99_ms", "batch");
  for (const double f : fractions) {
    auto server = make_server();
    serve::TraceConfig tc;
    tc.requests = sweep_requests;
    tc.rate_rps = std::max(1.0, f * saturation_rps);
    tc.sessions = {"lenet5-k256"};
    tc.seed = 7000 + static_cast<std::uint64_t>(100 * f);
    serve::LoadGenerator loadgen(*server, {input_shape});
    const serve::LoadReport load = loadgen.replay(serve::make_trace(tc));
    server->drain();
    server->stop();
    const serve::ServerSummary sum = server->summary();
    SweepRow row;
    row.offered_rps = load.offered_rps;
    row.achieved_rps = load.achieved_rps;
    row.sent = load.sent;
    row.rejected = load.rejected;
    row.p50_ms = load.percentile_ms(50);
    row.p95_ms = load.percentile_ms(95);
    row.p99_ms = load.percentile_ms(99);
    row.mean_batch = sum.sessions[0].mean_batch_size;
    sweep.push_back(row);
    std::printf("%10.1f %10.1f %6zu %6zu %9.3f %9.3f %9.3f %7.2f\n",
                row.offered_rps, row.achieved_rps, row.sent, row.rejected,
                row.p50_ms, row.p95_ms, row.p99_ms, row.mean_batch);
  }

  const double ratio = offline_rps > 0.0 ? saturation_rps / offline_rps : 0.0;

  // --- phase 4: flash crowd at >= 2x saturation — SLO-aware vs FIFO -------
  // Deadlines and trace rates scale with the OFFLINE rate, not the
  // measured saturation: serving throughput never exceeds offline, so a
  // 4x-offline spike is at least 4x the actual service rate on any host —
  // the overload severity does not ride on the noisier saturation
  // measurement. Absolute floors keep deadlines clear of the coalescing
  // delay on very fast machines.
  const double batch_service = offline_rps > 0.0 ? 8.0 / offline_rps : 1e-3;
  const auto slo_us = [](double seconds) {
    return std::chrono::microseconds(
        static_cast<long long>(seconds * 1e6));
  };
  auto make_crowd_server = [&](bool slo_aware) {
    serve::ServerConfig cfg;
    cfg.num_workers = num_workers;
    // Deep queue, tight deadlines: draining a full queue costs ~32 batch
    // services while the furthest deadline is 10 — so a FIFO server under
    // the spike burns most of its capacity completing hopeless (already
    // doomed) requests, which is exactly what expiry + shedding avoid.
    cfg.queue_capacity = 256;
    cfg.batch.max_batch_size = 8;
    cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
    cfg.slo.deadline = {slo_us(std::max(2 * batch_service, 0.006)),
                        slo_us(std::max(5 * batch_service, 0.015)),
                        slo_us(std::max(10 * batch_service, 0.030))};
    if (slo_aware)
      cfg.slo.admission.shed_depth_fraction = {1.0, 0.75, 0.35};
    cfg.slo.expire_doomed = slo_aware;  // false = the FIFO baseline
    auto server = std::make_unique<serve::Server>(cfg);
    server->sessions().add_session("lenet5-k256", compiled, hw);
    server->start();
    return server;
  };
  serve::TraceConfig crowd;
  crowd.requests = 256;  // fixed: the spike needs mass to fill the queue
  crowd.rate_rps = std::max(1.0, 0.4 * offline_rps);
  crowd.arrivals = serve::ArrivalProcess::kFlash;
  crowd.flash_rate_rps = std::max(4.0, 4.0 * offline_rps);
  const double nominal_span = crowd.requests / crowd.rate_rps;
  crowd.flash_start_seconds = 0.1 * nominal_span;
  crowd.flash_duration_seconds = 0.6 * nominal_span;
  crowd.class_weights = {0.25, 0.5, 0.25};
  crowd.sessions = {"lenet5-k256"};
  crowd.seed = 99;
  const serve::Trace crowd_trace = serve::make_trace(crowd);

  auto run_crowd = [&](bool slo_aware) {
    auto server = make_crowd_server(slo_aware);
    serve::LoadGenerator loadgen(*server, {input_shape});
    const serve::LoadReport load = loadgen.replay(crowd_trace);
    server->drain();
    server->stop();
    return load;
  };
  // The gate aggregates identical-trace repeats so a single noisy run
  // (CPU frequency, scheduler) cannot flip a strict comparison.
  const std::size_t crowd_reps = quick ? 2 : 3;
  std::size_t fifo_met = 0, slo_met = 0;
  serve::LoadReport fifo_load, slo_load;  // last repeat, for the artifact
  bool none_lost = true;
  for (std::size_t rep = 0; rep < crowd_reps; ++rep) {
    fifo_load = run_crowd(false);
    slo_load = run_crowd(true);
    fifo_met += fifo_load.slo_met;
    slo_met += slo_load.slo_met;
    none_lost =
        none_lost &&
        fifo_load.sent + fifo_load.rejected == crowd_trace.events.size() &&
        slo_load.sent + slo_load.rejected == crowd_trace.events.size();
  }
  std::printf("\nflash crowd (%.0f -> %.0f req/s spike, %zu requests, "
              "%zu repeats):\n"
              "  FIFO      goodput %8.1f req/s  %4zu met  %4zu shed  "
              "%4zu expired  p99.9 %8.3f ms\n"
              "  SLO-aware goodput %8.1f req/s  %4zu met  %4zu shed  "
              "%4zu expired  p99.9 %8.3f ms  [%s]\n",
              crowd.rate_rps, crowd.flash_rate_rps,
              crowd_trace.events.size(), crowd_reps, fifo_load.goodput_rps,
              fifo_met, fifo_load.shed, fifo_load.expired,
              fifo_load.percentile_ms(99.9), slo_load.goodput_rps, slo_met,
              slo_load.shed, slo_load.expired,
              slo_load.percentile_ms(99.9),
              none_lost ? "none lost" : "LOST REQUESTS");

  // --- phase 5: replica failover — crash 1 of 3 mid-run --------------------
  // Same trace through two 3-replica servers: one clean, one with a
  // scripted crash+heal on replica 1. Instant failover (consistent-hash
  // reroute + retry) must keep the faulted run's deadline-met count at
  // >= 80% of the clean run's, the crashed replica must come back through
  // quarantine + canary probes, and nothing may be lost either way.
  auto make_replica_server = [&](bool with_chaos, double span) {
    serve::ServerConfig cfg;
    cfg.num_workers = num_workers;
    cfg.queue_capacity = 256;
    cfg.batch.max_batch_size = 8;
    cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
    cfg.slo.deadline = {slo_us(std::max(4 * batch_service, 0.010)),
                        slo_us(std::max(8 * batch_service, 0.025)),
                        slo_us(std::max(16 * batch_service, 0.050))};
    cfg.replicas = 3;
    cfg.router.retry_backoff = std::chrono::microseconds(100);
    cfg.router.replica.quarantine_backoff = std::chrono::milliseconds(5);
    if (with_chaos) {
      cfg.chaos.push_back({0.25 * span, serve::FaultKind::kReplicaCrash,
                           /*replica=*/1, 0.0});
      cfg.chaos.push_back({0.55 * span, serve::FaultKind::kReplicaHeal,
                           /*replica=*/1, 0.0});
    }
    auto server = std::make_unique<serve::Server>(cfg);
    server->sessions().add_session("lenet5-k256", compiled, hw);
    server->start();
    return server;
  };
  serve::TraceConfig ft;
  // Bounded rate: the chaos window must span real milliseconds (the
  // quarantine backoff and canary readmission take wall time), so the
  // trace is paced at most 2000 rps no matter how fast the host is.
  ft.rate_rps = std::max(1.0, std::min(0.5 * offline_rps, 2000.0));
  ft.requests = quick ? 256 : 512;
  ft.class_weights = {0.25, 0.5, 0.25};
  ft.sessions = {"lenet5-k256"};
  ft.seed = 123;
  const serve::Trace fault_trace = serve::make_trace(ft);
  const double fault_span = ft.requests / ft.rate_rps;

  const std::size_t failover_reps = quick ? 2 : 3;
  std::size_t nofault_met = 0, fault_met = 0;
  bool failover_none_lost = true;
  bool crashed_readmitted = true;
  serve::LoadReport nofault_load, fault_load;    // last repeat
  serve::ServerSummary fault_summary;            // last faulted repeat
  for (std::size_t rep = 0; rep < failover_reps; ++rep) {
    {
      auto server = make_replica_server(false, fault_span);
      serve::LoadGenerator loadgen(*server, {input_shape});
      nofault_load = loadgen.replay(fault_trace);
      server->drain();
      server->stop();
      nofault_met += nofault_load.slo_met;
      failover_none_lost =
          failover_none_lost && nofault_load.sent + nofault_load.rejected ==
                                    fault_trace.events.size();
    }
    {
      auto server = make_replica_server(true, fault_span);
      serve::LoadGenerator loadgen(*server, {input_shape});
      fault_load = loadgen.replay(fault_trace);
      server->drain();
      server->stop();
      fault_summary = server->summary();
      fault_met += fault_load.slo_met;
      failover_none_lost =
          failover_none_lost && fault_load.sent + fault_load.rejected ==
                                    fault_trace.events.size();
      const serve::ReplicaSummary& crashed = fault_summary.replicas[1];
      crashed_readmitted = crashed_readmitted && crashed.health == "healthy" &&
                           crashed.canary_probes >= 1 &&
                           crashed.quarantine_seconds > 0.0;
    }
  }
  const double recovered_fraction =
      nofault_met > 0 ? static_cast<double>(fault_met) / nofault_met : 0.0;
  std::printf("\nreplica failover (3 replicas, crash+heal replica 1, "
              "%zu requests at %.0f req/s, %zu repeats):\n"
              "  no-fault  goodput %8.1f req/s  %4zu met\n"
              "  faulted   goodput %8.1f req/s  %4zu met  "
              "%llu retries  %llu failovers  [%s, %s]\n"
              "  recovered goodput fraction: %.3f (gate 0.80)\n",
              ft.requests, ft.rate_rps, failover_reps,
              nofault_load.goodput_rps, nofault_met, fault_load.goodput_rps,
              fault_met,
              static_cast<unsigned long long>(fault_summary.total_retries),
              static_cast<unsigned long long>(fault_summary.total_failovers),
              failover_none_lost ? "none lost" : "LOST REQUESTS",
              crashed_readmitted ? "crashed replica readmitted"
                                 : "READMISSION FAILED",
              recovered_fraction);

  // --- artifact -----------------------------------------------------------
  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.kv("bench", "serve_throughput");
    json.kv("deepcam_build_type", build_type());
    json.kv("deepcam_codelet_isa", codelet::isa_name(codelet::active_isa()));
    json.kv("model", "lenet5");
    json.kv("hash_bits", 256);
    json.kv("engine_threads", hw);
    json.kv("server_workers", num_workers);
    json.kv("quick", quick);
    json.key("offline").begin_object();
    json.kv("samples_per_second", offline_rps);
    json.kv("samples", offline_samples);
    json.end_object();
    json.key("saturation").begin_object();
    json.kv("achieved_rps", saturation_rps);
    json.kv("fraction_of_offline", ratio);
    json.kv("max_in_flight_batches", max_in_flight);
    json.key("server");
    serve::server_summary_json(json, saturation_summary);
    json.end_object();
    json.key("sweep").begin_array();
    for (const SweepRow& row : sweep) {
      json.begin_object();
      json.kv("offered_rps", row.offered_rps);
      json.kv("achieved_rps", row.achieved_rps);
      json.kv("sent", row.sent);
      json.kv("rejected", row.rejected);
      json.kv("latency_p50_ms", row.p50_ms);
      json.kv("latency_p95_ms", row.p95_ms);
      json.kv("latency_p99_ms", row.p99_ms);
      json.kv("mean_batch_size", row.mean_batch);
      json.end_object();
    }
    json.end_array();
    json.key("flash_crowd").begin_object();
    json.kv("base_rps", crowd.rate_rps);
    json.kv("spike_rps", crowd.flash_rate_rps);
    json.kv("requests", crowd_trace.events.size());
    json.kv("repeats", crowd_reps);
    json.kv("fifo_met_total", fifo_met);
    json.kv("slo_aware_met_total", slo_met);
    const auto crowd_json = [&](const char* key,
                                const serve::LoadReport& load) {
      json.key(key).begin_object();
      json.kv("goodput_rps", load.goodput_rps);
      json.kv("slo_met", load.slo_met);
      json.kv("shed", load.shed);
      json.kv("expired", load.expired);
      json.kv("rejected", load.rejected);
      json.kv("latency_p999_ms", load.percentile_ms(99.9));
      json.end_object();
    };
    crowd_json("fifo", fifo_load);
    crowd_json("slo_aware", slo_load);
    json.end_object();
    json.key("failover").begin_object();
    json.kv("replicas", 3);
    json.kv("base_rps", ft.rate_rps);
    json.kv("requests", fault_trace.events.size());
    json.kv("repeats", failover_reps);
    json.kv("nofault_met_total", nofault_met);
    json.kv("fault_met_total", fault_met);
    json.kv("recovered_fraction", recovered_fraction);
    json.kv("nofault_goodput_rps", nofault_load.goodput_rps);
    json.kv("fault_goodput_rps", fault_load.goodput_rps);
    json.kv("retries", fault_summary.total_retries);
    json.kv("failovers", fault_summary.total_failovers);
    json.kv("none_lost", failover_none_lost);
    json.kv("crashed_readmitted", crashed_readmitted);
    json.key("crashed_replica").begin_object();
    json.kv("health", fault_summary.replicas[1].health);
    json.kv("transitions", fault_summary.replicas[1].transitions);
    json.kv("canary_probes", fault_summary.replicas[1].canary_probes);
    json.kv("quarantine_seconds",
            fault_summary.replicas[1].quarantine_seconds);
    json.end_object();
    json.end_object();
    json.end_object();
    std::ofstream out(json_path, std::ios::binary);
    out << json.str() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // --- acceptance gate -----------------------------------------------------
  std::printf("\nsaturation/offline ratio: %.3f (gate 0.90), "
              "in-flight high-water: %llu (gate 2), flash-crowd SLO vs "
              "FIFO deadline-met: %zu vs %zu (gate: strictly more, none "
              "lost)\n",
              ratio, static_cast<unsigned long long>(max_in_flight),
              slo_met, fifo_met);
  if (check && (ratio < 0.90 || max_in_flight < 2)) {
    std::fprintf(stderr, "FAIL: serving gate not met\n");
    return 1;
  }
  if (check && (!none_lost || slo_met <= fifo_met)) {
    std::fprintf(stderr, "FAIL: flash-crowd SLO gate not met\n");
    return 1;
  }
  if (check && (recovered_fraction < 0.80 || !failover_none_lost ||
                !crashed_readmitted)) {
    std::fprintf(stderr, "FAIL: replica-failover gate not met\n");
    return 1;
  }

  // --- regression gate vs a committed artifact ----------------------------
  // Catches serving-path slowdowns (e.g. tracing hooks when disabled): the
  // measured saturation must stay within 1% of the baseline run's.
  if (!baseline_path.empty()) {
    const JsonValue baseline = parse_json_file(baseline_path);
    const double base_rps =
        baseline.at("saturation").at("achieved_rps").as_number();
    const double vs_base = base_rps > 0.0 ? saturation_rps / base_rps : 0.0;
    std::printf("saturation vs baseline %s: %.1f / %.1f req/s = %.3f "
                "(gate 0.99)\n",
                baseline_path.c_str(), saturation_rps, base_rps, vs_base);
    if (check && vs_base < 0.99) {
      std::fprintf(stderr, "FAIL: saturation regressed vs baseline\n");
      return 1;
    }
  }
  return 0;
}
