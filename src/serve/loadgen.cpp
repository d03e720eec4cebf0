#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace deepcam::serve {

namespace {

/// Instantaneous arrival rate of `cfg` at trace time `t`. The generator
/// draws each Exp gap at the rate active when the previous event landed —
/// a standard (approximate) piecewise-Poisson thinning that keeps the
/// trace a single forward pass over one RNG stream.
double rate_at(const TraceConfig& cfg, double t) {
  switch (cfg.arrivals) {
    case ArrivalProcess::kPoisson:
      return cfg.rate_rps;
    case ArrivalProcess::kBursty: {
      if (cfg.period_seconds <= 0.0) return cfg.rate_rps;
      // On/off modulation: the burst window covers the first burst_fraction
      // of every period.
      const double phase = std::fmod(t, cfg.period_seconds);
      return phase < cfg.burst_fraction * cfg.period_seconds
                 ? cfg.burst_rate_rps
                 : cfg.rate_rps;
    }
    case ArrivalProcess::kDiurnal: {
      if (cfg.period_seconds <= 0.0) return cfg.rate_rps;
      constexpr double kTau = 6.283185307179586;
      const double r =
          cfg.rate_rps *
          (1.0 + cfg.diurnal_amplitude *
                     std::sin(kTau * t / cfg.period_seconds));
      return std::max(r, 1e-6 * cfg.rate_rps);  // amplitude ~1 guard
    }
    case ArrivalProcess::kFlash:
      return (t >= cfg.flash_start_seconds &&
              t < cfg.flash_start_seconds + cfg.flash_duration_seconds)
                 ? cfg.flash_rate_rps
                 : cfg.rate_rps;
  }
  return cfg.rate_rps;
}

SloClass sample_class(const std::array<double, kNumSloClasses>& weights,
                      double u) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return SloClass::kStandard;
  double x = u * total;
  for (std::size_t i = 0; i < kNumSloClasses; ++i) {
    x -= weights[i];
    if (x < 0.0) return static_cast<SloClass>(i);
  }
  return static_cast<SloClass>(kNumSloClasses - 1);
}

}  // namespace

Trace make_trace(const TraceConfig& cfg) {
  DEEPCAM_CHECK_MSG(!cfg.sessions.empty(), "trace needs >= 1 session");
  DEEPCAM_CHECK_MSG(cfg.rate_rps > 0.0, "trace needs a positive rate");
  if (cfg.arrivals == ArrivalProcess::kBursty)
    DEEPCAM_CHECK_MSG(cfg.burst_rate_rps > 0.0,
                      "bursty trace needs a positive burst rate");
  if (cfg.arrivals == ArrivalProcess::kFlash)
    DEEPCAM_CHECK_MSG(cfg.flash_rate_rps > 0.0 &&
                          cfg.flash_duration_seconds > 0.0,
                      "flash trace needs a positive spike rate and window");
  if (cfg.arrivals == ArrivalProcess::kDiurnal)
    DEEPCAM_CHECK_MSG(
        cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude <= 1.0,
        "diurnal amplitude must be in [0, 1]");
  for (double w : cfg.class_weights)
    DEEPCAM_CHECK_MSG(w >= 0.0, "class weights must be non-negative");
  Trace trace;
  trace.sessions = cfg.sessions;
  trace.events.reserve(cfg.requests);
  Rng rng(cfg.seed);
  double t = 0.0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    const double rate = rate_at(cfg, t);
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();  // guard log(0)
    t += -std::log(u) / rate;            // Exp(rate) inter-arrival gap
    TraceEvent e;
    e.t_seconds = t;
    e.session = static_cast<std::size_t>(
        rng.uniform_index(cfg.sessions.size()));
    e.slo = sample_class(cfg.class_weights, rng.uniform());
    e.input_seed = rng.next();
    trace.events.push_back(e);
  }
  return trace;
}

LoadGenerator::LoadGenerator(Server& server,
                             std::vector<nn::Shape> input_shapes)
    : server_(&server), input_shapes_(std::move(input_shapes)) {}

nn::Tensor LoadGenerator::make_input(const nn::Shape& shape,
                                     std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(shape);
  rng.fill_gaussian(t.data(), t.numel());
  return t;
}

namespace {

/// Shared completion state of one replay: counts outstanding requests and
/// publishes each worker-thread record write to the replaying thread.
struct ReplaySync {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
};

/// Aggregates the per-record outcomes into the report's counters and rates
/// (shared by replay() and replay_deterministic()).
void finalize_report(LoadReport& report, const Trace& trace,
                     double time_scale, double duration_seconds) {
  report.duration_seconds = duration_seconds;
  for (const RequestRecord& rec : report.records) {
    if (!rec.completed || rec.admission != Admission::kAccepted) {
      ++report.rejected;
      if (rec.admission == Admission::kRejectedShed) ++report.shed;
      continue;
    }
    ++report.sent;
    if (rec.response.expired) {
      ++report.expired;
    } else if (!rec.response.ok()) {
      ++report.errors;
    } else {
      report.latency.add(rec.response.total_seconds);
    }
    if (rec.response.slo_met()) ++report.slo_met;
  }
  const double span = trace.duration_seconds();
  report.offered_rps =
      span > 0.0 ? static_cast<double>(trace.events.size()) /
                       (span / time_scale)
                 : 0.0;
  if (report.duration_seconds > 0.0) {
    report.achieved_rps =
        static_cast<double>(report.sent - report.errors - report.expired) /
        report.duration_seconds;
    report.goodput_rps =
        static_cast<double>(report.slo_met) / report.duration_seconds;
  }
}

}  // namespace

LoadReport LoadGenerator::replay(const Trace& trace,
                                 const ReplayOptions& opts) {
  DEEPCAM_CHECK_MSG(input_shapes_.size() == trace.sessions.size(),
                    "one input shape per trace session required");
  DEEPCAM_CHECK_MSG(opts.time_scale > 0.0, "time_scale must be positive");
  ClockSource& clock =
      opts.clock != nullptr ? *opts.clock : ClockSource::steady();
  LoadReport report;
  report.records.resize(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    report.records[i].event = i;
    report.records[i].session = trace.events[i].session;
    report.records[i].slo = trace.events[i].slo;
  }
  if (trace.events.empty()) return report;

  ReplaySync sync;
  const Clock::time_point t0 = clock.now();

  if (opts.mode == ReplayOptions::Mode::kOpenLoop) {
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      const TraceEvent& e = trace.events[i];
      clock.sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(e.t_seconds /
                                                 opts.time_scale)));
      RequestRecord& rec = report.records[i];
      {
        std::lock_guard<std::mutex> lk(sync.mu);
        ++sync.outstanding;
      }
      const Admission verdict = server_->submit(
          trace.sessions[e.session],
          make_input(input_shapes_[e.session], e.input_seed),
          [&sync, &rec](Response&& resp) {
            // Notify *under* the lock: sync lives on the replaying thread's
            // stack, and replay() returns (destroying it) as soon as the
            // waiter observes outstanding == 0 — an unlocked notify could
            // touch a dead condition_variable.
            std::lock_guard<std::mutex> lk(sync.mu);
            rec.response = std::move(resp);
            rec.completed = true;
            --sync.outstanding;
            sync.cv.notify_one();
          },
          e.slo);
      rec.admission = verdict;
      if (verdict != Admission::kAccepted) {
        std::lock_guard<std::mutex> lk(sync.mu);
        --sync.outstanding;
      }
    }
    if (opts.clock == nullptr) {
      std::unique_lock<std::mutex> lk(sync.mu);
      sync.cv.wait(lk, [&sync] { return sync.outstanding == 0; });
    } else {
      // Injected (possibly virtual) clock: nobody else advances time once
      // the trace is exhausted, so partially-filled micro-batches would
      // wait out their coalescing window — and queued deadlines would
      // never lapse — forever. Keep nudging the clock forward until every
      // outstanding request is answered.
      std::unique_lock<std::mutex> lk(sync.mu);
      while (sync.outstanding != 0) {
        sync.cv.wait_for(lk, std::chrono::milliseconds(1));
        if (sync.outstanding == 0) break;
        lk.unlock();
        clock.sleep_until(clock.now() + std::chrono::milliseconds(1));
        lk.lock();
      }
    }
  } else {
    // Closed loop: each client keeps one request outstanding; trace arrival
    // times are ignored, ordering comes from the shared event cursor.
    std::atomic<std::size_t> cursor{0};
    const std::size_t clients =
        std::max<std::size_t>(1, opts.closed_loop_clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= trace.events.size()) return;
          const TraceEvent& e = trace.events[i];
          Response resp = server_->run(
              trace.sessions[e.session],
              make_input(input_shapes_[e.session], e.input_seed), e.slo);
          std::lock_guard<std::mutex> lk(sync.mu);
          RequestRecord& rec = report.records[i];
          rec.response = std::move(resp);
          rec.completed = true;
          // run() reports failed admission as an error response.
          rec.admission = rec.response.ok() || rec.response.batch_size > 0
                              ? Admission::kAccepted
                              : Admission::kRejectedClosed;
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  finalize_report(report, trace, opts.time_scale,
                  std::chrono::duration<double>(clock.now() - t0).count());
  return report;
}

LoadReport LoadGenerator::replay_deterministic(const Trace& trace,
                                               VirtualClock& clock,
                                               Clock::duration step,
                                               double time_scale) {
  DEEPCAM_CHECK_MSG(input_shapes_.size() == trace.sessions.size(),
                    "one input shape per trace session required");
  DEEPCAM_CHECK_MSG(time_scale > 0.0, "time_scale must be positive");
  DEEPCAM_CHECK_MSG(step > Clock::duration::zero(),
                    "replay step must be positive");
  DEEPCAM_CHECK_MSG(
      server_->config().manual_dispatch,
      "replay_deterministic needs a ServerConfig::manual_dispatch server");

  LoadReport report;
  report.records.resize(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    report.records[i].event = i;
    report.records[i].session = trace.events[i].session;
    report.records[i].slo = trace.events[i].slo;
  }
  if (trace.events.empty()) return report;

  // Single thread end to end: completion callbacks fire inside pump(), so
  // a plain counter replaces ReplaySync.
  std::size_t outstanding = 0;
  const Clock::time_point t0 = clock.now();
  const auto pump_all = [&] {
    while (server_->pump()) {
    }
  };

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    const Clock::time_point target =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(e.t_seconds / time_scale));
    // Step virtual time to the arrival, pumping at every step so batch
    // coalescing windows, deadlines and chaos events fire at (quantized)
    // deterministic times.
    while (clock.now() < target) {
      clock.advance_to(std::min(target, clock.now() + step));
      pump_all();
    }
    RequestRecord& rec = report.records[i];
    ++outstanding;
    const Admission verdict = server_->submit(
        trace.sessions[e.session],
        make_input(input_shapes_[e.session], e.input_seed),
        [&outstanding, &rec](Response&& resp) {
          rec.response = std::move(resp);
          rec.completed = true;
          --outstanding;
        },
        e.slo);
    rec.admission = verdict;
    if (verdict != Admission::kAccepted) --outstanding;
    pump_all();
  }

  // Drain: keep stepping until every admitted request is answered. The
  // guard turns a logic bug (a request no pump can ever answer) into a
  // loud failure instead of an endless loop.
  std::size_t stalls = 0;
  while (outstanding != 0) {
    clock.advance(step);
    pump_all();
    DEEPCAM_CHECK_MSG(++stalls < 10'000'000,
                      "deterministic replay failed to drain");
  }

  finalize_report(report, trace, time_scale,
                  std::chrono::duration<double>(clock.now() - t0).count());
  return report;
}

}  // namespace deepcam::serve
