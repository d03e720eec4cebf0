// serve-lenet5-slo: open-loop Poisson traffic into a serve::Server with two
// LeNet-5 sessions, a k = 1024 primary and its k = 256 fallback, each on
// one engine thread, under the SLO policy of specs/serve_slo.json.
//
// Offered load climbs a ladder of fixed absolute rates, from well below the
// k = 1024 tier's capacity to well above it, so the load does not move with
// the code under test. This is the one workload where queueing, batching,
// downgrade and shedding decide latency.
//
// The benchmark paces requests itself from serve::make_trace arrival times and
// stamps each request's scheduled send time, so a generator stall shows up
// as latency of the requests it delayed (LoadGenerator::replay measures
// from enqueue and would hide it).
#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/engine.hpp"
#include "nn/topologies.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace core = deepcam::core;
namespace serve = deepcam::serve;

namespace {

constexpr const char* kPrimary = "lenet5-k1024";
constexpr const char* kFallback = "lenet5-k256";
// Offered rates (requests/s). Offline, one engine thread runs about 600
// k = 1024 or 1300 k = 256 LeNet-5 samples/s; served, the k = 1024 tier
// misses deadlines from about 400 req/s. Latency is reported at the mid
// rate, which runs in kMidSteps windows spread over the ladder.
constexpr double kLadderRps[] = {100.0, 400.0, 800.0, 1600.0};
constexpr double kMidRps = 200.0;
constexpr std::size_t kMidSteps = 3;
constexpr std::size_t kKeptPerTier = 8;  // served logits re-run offline
// Traced steps are capped so their spans fit the recorder's per-thread ring
// (obs::TraceRecorder::kRingCapacity) at any --seconds.
constexpr double kMaxTracedSeconds = 5.0;
constexpr double kMaxTracedTopSeconds = 1.5;
const nn::Shape kInput{1, 1, 28, 28};

serve::ServerConfig server_config() {
  // The SLO policy of specs/serve_slo.json, with 2 server workers.
  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.queue_capacity = 256;
  cfg.batch.max_batch_size = 8;
  cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
  cfg.slo.deadline = {std::chrono::milliseconds(40),
                      std::chrono::milliseconds(120),
                      std::chrono::milliseconds(500)};
  cfg.slo.admission.shed_depth_fraction = {1.0, 0.75, 0.35};
  cfg.slo.downgrade_fraction = 0.5;
  return cfg;
}

struct Kept {
  std::string tier;
  std::uint64_t input_seed;
  nn::Tensor logits;
};

/// State shared with the server's completion callbacks; held by
/// shared_ptr so a late callback never touches a dead object.
struct StepState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  std::vector<RequestRow> rows;
  std::vector<std::uint64_t> input_seeds;
  std::map<std::string, std::size_t> kept_per_tier;
  std::vector<Kept> kept;
};

struct Tally {
  std::size_t sent = 0;
  std::size_t unanswered = 0;
  std::size_t wrong_calls = 0;  // accepted != exactly one answer
  std::size_t errors = 0;
};

void run_step(serve::Server& server, const LadderStep& step,
              std::size_t step_idx, std::uint64_t seed,
              const std::vector<std::string>& tier_names, Report& report,
              std::vector<Kept>& kept, Tally& tally) {
  serve::TraceConfig tc;
  tc.arrivals = serve::ArrivalProcess::kPoisson;
  tc.rate_rps = step.rate_rps;
  tc.requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(step.rate_rps * step.seconds));
  tc.sessions = {kPrimary};
  tc.class_weights = {0.25, 0.5, 0.25};
  tc.seed = mix_seed(seed, 100 + step_idx);
  const serve::Trace trace = serve::make_trace(tc);

  // Inputs are synthesized before pacing starts so the generator only
  // sleeps and submits.
  std::vector<nn::Tensor> inputs;
  inputs.reserve(trace.events.size());
  for (const serve::TraceEvent& e : trace.events)
    inputs.push_back(serve::LoadGenerator::make_input(kInput, e.input_seed));

  auto state = std::make_shared<StepState>();
  state->rows.resize(trace.events.size());
  std::size_t accepted = 0;

  TraceWindow window(step.traced);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const serve::TraceEvent& e = trace.events[i];
    const Clock::time_point scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(e.t_seconds));
    std::this_thread::sleep_until(scheduled);
    const Clock::time_point sent = Clock::now();
    const std::uint64_t input_seed = e.input_seed;
    const serve::Admission verdict = server.submit(
        kPrimary, std::move(inputs[i]),
        [state, i, input_seed, &tier_names](serve::Response&& resp) {
          const Clock::time_point done = Clock::now();
          std::lock_guard<std::mutex> lk(state->mu);
          RequestRow& r = state->rows[i];
          ++r.calls;
          r.done_ns = to_ns(done);
          r.ok = resp.ok();
          r.expired = resp.expired;
          r.slo_met = resp.slo_met();
          r.downgraded = resp.downgraded;
          r.queue_s = resp.queue_seconds;
          r.total_s = resp.total_seconds;
          r.batch_size = resp.batch_size;
          r.tier = tier_names.at(resp.session);
          r.id = resp.id;
          if (resp.ok() && state->kept_per_tier[r.tier] < kKeptPerTier) {
            ++state->kept_per_tier[r.tier];
            state->kept.push_back(Kept{r.tier, input_seed, resp.logits});
          }
          ++state->answered;
          // Notify under the lock: the pacing thread may return (and drop
          // its reference) as soon as it observes the final count.
          state->cv.notify_all();
        },
        static_cast<serve::SloClass>(static_cast<std::size_t>(e.slo)));
    const Clock::time_point admitted = Clock::now();
    std::lock_guard<std::mutex> lk(state->mu);
    RequestRow& r = state->rows[i];
    r.step = step_idx;
    r.scheduled_ns = to_ns(scheduled);
    r.sent_ns = to_ns(sent);
    r.admit_ns = to_ns(admitted) - to_ns(sent);
    r.admission = serve::to_string(verdict);
    if (verdict == serve::Admission::kAccepted) ++accepted;
  }
  {
    std::unique_lock<std::mutex> lk(state->mu);
    state->cv.wait_for(lk, std::chrono::seconds(60),
                       [&] { return state->answered >= accepted; });
  }
  server.drain();
  window.finish(report);

  std::lock_guard<std::mutex> lk(state->mu);
  for (const RequestRow& r : state->rows) {
    const bool was_accepted = r.admission == "accepted";
    if (was_accepted && r.calls == 0) ++tally.unanswered;
    if (r.calls != (was_accepted ? 1 : 0)) ++tally.wrong_calls;
    if (r.calls > 0 && !r.ok && !r.expired) ++tally.errors;
    report.request(r);
  }
  tally.sent += state->rows.size();
  for (Kept& k : state->kept) kept.push_back(std::move(k));
  report.step(step);
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  std::unique_ptr<nn::Model> model;
  std::map<std::string, std::shared_ptr<const core::CompiledModel>> tiers;
  std::unique_ptr<serve::Server> server;
  const std::vector<std::string> tier_names = {kPrimary, kFallback};
  const Clock::time_point first_setup = Clock::now();
  for (int i = 0; more_setups(i, first_setup); ++i) {
    server.reset();
    tiers.clear();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    model = nn::make_lenet5(args.seed);
    report.sample("nn.build_s", seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    for (const auto& [name, k] :
         {std::pair{kPrimary, 1024}, std::pair{kFallback, 256}}) {
      core::DeepCamConfig cfg;
      cfg.default_hash_bits = static_cast<std::size_t>(k);
      tiers[name] = std::make_shared<const core::CompiledModel>(*model, cfg);
    }
    report.sample("core.compile_s", seconds_since(t1));
    server = std::make_unique<serve::Server>(server_config());
    for (const std::string& name : tier_names)
      server->sessions().add_session(name, tiers.at(name), 1);
    server->sessions().set_fallback(kPrimary, kFallback);
    server->start();
    report.sample("setup_s", seconds_since(t0));
  }

  // Every step runs one slot of the run: an untimed warm-up at the mid rate
  // (the first few hundred samples through a fresh engine run slower), then
  // the ladder in ascending order with a mid-rate step after each of its
  // first kMidSteps rates. Traced runs trace the mid steps, follow each with
  // an untraced twin that pairs with it for the tracing overhead, and end
  // with a short traced step at the top rate, where both tiers are busy,
  // for per-tier engine occupancy.
  const double slot_s =
      args.seconds / static_cast<double>(1 + std::size(kLadderRps) + kMidSteps);
  std::vector<LadderStep> plan = {
      LadderStep{kMidRps, slot_s, false, "warmup"}};
  for (std::size_t s = 0; s < std::size(kLadderRps); ++s) {
    plan.push_back(LadderStep{kLadderRps[s], slot_s, false, "ladder"});
    if (s >= kMidSteps) continue;
    plan.push_back(LadderStep{
        kMidRps, args.trace ? std::min(slot_s, kMaxTracedSeconds) : slot_s,
        args.trace, "mid"});
    if (args.trace)
      plan.push_back(LadderStep{kMidRps, slot_s, false, "mid-untraced"});
  }
  if (args.trace)
    plan.push_back(LadderStep{kLadderRps[std::size(kLadderRps) - 1],
                              std::min(slot_s, kMaxTracedTopSeconds), true,
                              "top-traced"});

  std::vector<Kept> kept;
  Tally tally;
  for (std::size_t s = 0; s < plan.size(); ++s)
    run_step(*server, plan[s], s, args.seed, tier_names, report, kept, tally);
  server->stop();

  report.ops(tally.sent);
  report.op_failed(tally.unanswered + tally.errors);
  report.check("exactly_once", tally.wrong_calls == 0,
               std::to_string(tally.wrong_calls) + " of " +
                   std::to_string(tally.sent) +
                   " requests not answered exactly once per acceptance");
  report.check("no_errors", tally.errors == 0,
               std::to_string(tally.errors) + " accepted requests failed");

  // Served logits == an offline engine run of the same input seed on the
  // same tier, bitwise; the offline run's report feeds the cost-model check.
  std::size_t compared = 0, mismatched = 0;
  for (const std::string& name : tier_names) {
    std::vector<nn::Tensor> inputs;
    std::vector<const Kept*> rows;
    for (const Kept& k : kept)
      if (k.tier == name) {
        inputs.push_back(
            serve::LoadGenerator::make_input(kInput, k.input_seed));
        rows.push_back(&k);
      }
    // The cost-model check needs one offline report even from a tier that
    // served nothing.
    if (inputs.empty()) inputs = make_inputs(kInput, 1, args.seed);
    core::InferenceEngine engine(tiers.at(name), 1);
    core::BatchReport batch_report;
    const std::vector<nn::Tensor> out =
        engine.run_batch(inputs, &batch_report);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ++compared;
      if (!bitwise_equal(out[i], rows[i]->logits)) ++mismatched;
    }
    report.tier(layer_table(name.substr(name.find('-') + 1), *tiers.at(name),
                            kInput, batch_report.per_sample.front(), report));
    if (args.trace && name == kPrimary)
      bench_project_cols(batch_report.per_sample.front(), args.seed, report);
  }
  report.check("served_vs_offline", compared > 0 && mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " served responses differ from the offline engine");
  report.scalar("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
