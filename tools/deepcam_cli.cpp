// deepcam — the single CLI over the declarative run-spec facade.
//
//   deepcam run     specs/quickstart.json          offline engine batch
//   deepcam compare specs/table1.json --csv        backend sweep (Table I)
//   deepcam serve   specs/serve_demo.json          online serving replay
//   deepcam tune    specs/fig5_tune.json           VHL hash-length tuner
//   deepcam plan    specs/plan_lenet.json          cost-model plan search
//
// The subcommand is a guard, not a selector: it must agree with the spec's
// "mode" field ("run" is the offline alias), so a spec never silently runs
// as something it wasn't written for. Flags:
//
//   --json PATH  write the Outcome JSON artifact (overrides outputs.json;
//                "-" = stdout)
//   --csv        dump CSV to stdout (offline/compare)
//   --quiet      suppress the human-readable summary
//   --check      verify mode-specific invariants after the run; nonzero
//                exit on violation (CI spec-smoke gate). For compare specs
//                this includes the bitwise facade-vs-engine cross-check the
//                compare_platforms example pioneered.
//   --trace PATH    export the span trace (".csv" = CSV, otherwise Chrome
//                   trace-event JSON for Perfetto); offline/serve
//   --metrics PATH  write the Prometheus text exposition after a serve run
//   --profile       record kernel-stage spans and print the per-stage table
//   --validate      plan/tune: fall back to measured runs (plan mode cross-
//                   checks the cost model against the sim backend; tune mode
//                   runs the empirical sweep instead of the guided pass)
//
// Exit codes: 0 ok, 1 run/check failure, 2 usage or spec errors.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "deepcam/deepcam.hpp"

using namespace deepcam;

namespace {

/// Offline invariant: the aggregate really is the per-sample merge and the
/// run did simulated work.
bool check_offline(const OfflineOutcome& out, const Spec& spec) {
  const core::BatchReport& br = out.report;
  bool ok = br.samples == spec.offline.batch &&
            br.per_sample.size() == br.samples &&
            br.aggregate.total_cycles() > 0;
  std::size_t cycles = 0;
  double energy = 0.0;
  for (const auto& r : br.per_sample) {
    cycles += r.total_cycles();
    energy += r.total_energy();
  }
  ok = ok && cycles == br.aggregate.total_cycles();
  std::printf("check offline: %zu samples, aggregate %zu cycles vs "
              "per-sample sum %zu, energy %.3e J -> %s\n",
              br.samples, br.aggregate.total_cycles(), cycles, energy,
              ok ? "OK" : "FAIL");
  return ok;
}


/// Serve invariants: every trace event was either answered or rejected —
/// nothing lost, nothing double-counted — and the SLO accounting is
/// internally consistent: sheds are a subset of rejections, per-class
/// accepted counts equal per-class completions (exactly-once answering),
/// and goodput never exceeds throughput.
bool check_serve(const ServeOutcome& out) {
  const std::size_t answered = out.load.sent + out.load.rejected;
  bool ok = answered == out.trace_events &&
            out.summary.total_completed() == out.load.sent;
  ok = ok && out.load.shed <= out.load.rejected;
  ok = ok && out.summary.total_shed() <= out.summary.total_rejected();
  ok = ok && out.summary.total_slo_met() <= out.summary.total_completed();
  ok = ok && out.summary.total_expired() <= out.summary.total_completed();
  for (const auto& c : out.summary.classes) {
    ok = ok && c.accepted == c.completed;  // exactly-once per class
    ok = ok && c.slo_met + c.expired + c.errors <= c.completed;
  }
  // Fault-tolerance conservation: every accepted request is answered exactly
  // once even when it was retried or hedged — retries/hedges never inflate
  // (or deplete) the completion counts, they only add replica work.
  for (const auto& sess : out.summary.sessions) {
    ok = ok && sess.accepted == sess.completed;
    ok = ok && sess.errors + sess.expired <= sess.completed;
  }
  ok = ok && out.summary.total_failovers <= out.summary.total_retries;
  ok = ok && out.summary.total_hedges_won <= out.summary.total_hedges;
  ok = ok && out.summary.total_hedges_wasted <= out.summary.total_hedges;
  std::size_t replica_batches = 0, session_batches = 0;
  for (const auto& r : out.summary.replicas) {
    ok = ok && (r.health == "healthy" || r.health == "degraded" ||
                r.health == "quarantined" || r.health == "recovering");
    ok = ok && r.quarantine_seconds >= 0.0;
    replica_batches += r.batches;
  }
  for (const auto& sess : out.summary.sessions) session_batches += sess.batches;
  // Every replica success comes from one dispatched micro-batch attempt; a
  // hedged attempt can land on two replicas, so hedges bound the overshoot.
  ok = ok && replica_batches <= session_batches + out.summary.total_hedges;
  std::printf("check serve: %zu events = %zu sent + %zu rejected "
              "(%zu shed), %llu completed, %llu SLO met, %llu expired, "
              "%llu downgraded, %llu retries, %llu hedges -> %s\n",
              out.trace_events, out.load.sent, out.load.rejected,
              out.load.shed,
              static_cast<unsigned long long>(out.summary.total_completed()),
              static_cast<unsigned long long>(out.summary.total_slo_met()),
              static_cast<unsigned long long>(out.summary.total_expired()),
              static_cast<unsigned long long>(
                  out.summary.total_downgraded()),
              static_cast<unsigned long long>(out.summary.total_retries),
              static_cast<unsigned long long>(out.summary.total_hedges),
              ok ? "OK" : "FAIL");
  return ok;
}

/// Plan invariants: re-running the same spec in-process must come back as a
/// cache hit with byte-identical plan JSON (the determinism contract), every
/// chosen hash length sits in the candidate set, and the cache counters
/// recorded at least one hit.
bool check_plan(const PlanOutcome& out, const Spec& spec) {
  bool ok = !out.entries.empty();
  for (const auto& e : out.entries) {
    ok = ok && e.plan.hash_bits.size() == e.plan.floors.size() &&
         !e.plan.hash_bits.empty();
    for (const std::size_t k : e.plan.hash_bits)
      ok = ok && k >= 256 && k <= 1024 && k % 256 == 0;
    if (e.validated) ok = ok && e.cycle_rel_error == 0.0;
  }
  // Second run through the same process-wide cache: identical bytes, hit.
  const Outcome rerun = Runner().run(spec);
  const PlanOutcome& warm = rerun.plan();
  ok = ok && warm.entries.size() == out.entries.size();
  for (std::size_t i = 0; ok && i < warm.entries.size(); ++i) {
    ok = warm.entries[i].cache_hit &&
         plan::plan_to_json(warm.entries[i].plan) ==
             plan::plan_to_json(out.entries[i].plan);
  }
  ok = ok && warm.cache.hits > 0;
  std::printf("check plan: %zu workloads, warm rerun %llu hits / "
              "%llu misses -> %s\n",
              out.entries.size(),
              static_cast<unsigned long long>(warm.cache.hits),
              static_cast<unsigned long long>(warm.cache.misses),
              ok ? "OK" : "FAIL");
  return ok;
}

/// Tune invariant: one choice per CAM layer, all in the candidate set.
bool check_tune(const TuneOutcome& out) {
  bool ok = !out.entries.empty();
  for (const auto& e : out.entries) {
    ok = ok && e.result.layers.size() == e.result.hash_bits.size() &&
         !e.result.layers.empty();
    for (const std::size_t k : e.result.hash_bits)
      ok = ok && k >= 256 && k <= 1024 && k % 256 == 0;
  }
  std::printf("check tune: %zu workloads -> %s\n", out.entries.size(),
              ok ? "OK" : "FAIL");
  return ok;
}

bool run_checks(const Outcome& outcome, const Spec& spec) {
  switch (outcome.mode) {
    case Mode::kOffline: return check_offline(outcome.offline(), spec);
    // Compare invariant: every "deepcam" row bitwise equals the direct
    // InferenceEngine path (shared helper, also used by the example).
    case Mode::kCompare:
      return verify_deepcam_rows(spec, outcome.compare());
    case Mode::kServe: return check_serve(outcome.serve());
    case Mode::kTune: return check_tune(outcome.tune());
    case Mode::kPlan: return check_plan(outcome.plan(), spec);
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false, csv = false, quiet = false, profile = false;
  bool validate = false;
  std::string json_path, trace_path, metrics_path;
  cli::Flags flags("deepcam",
                   "run a declarative DeepCAM spec (see specs/*.json)");
  flags.flag("check", &check, "verify mode invariants; nonzero exit on fail")
      .option("json", &json_path, "write Outcome JSON here (\"-\" = stdout)")
      .flag("csv", &csv, "dump CSV to stdout (offline/compare)")
      .flag("quiet", &quiet, "suppress the human-readable summary")
      .option("trace", &trace_path,
              "export the span trace (.csv = CSV, else Perfetto JSON)")
      .option("metrics", &metrics_path,
              "write the Prometheus exposition (serve mode)")
      .flag("profile", &profile,
            "record kernel-stage spans; print the per-stage table")
      .flag("validate", &validate,
            "plan/tune: cross-check or replace the model-guided pass with "
            "measured runs")
      .positional(2, 2, "<run|compare|serve|tune|plan> <spec.json>");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "deepcam: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }

  try {
    const Mode command = mode_from_name(flags.args()[0]);
    Spec spec = spec_from_file(flags.args()[1]);
    // Observability flags override the spec's outputs section; re-validate
    // so a flag on the wrong mode fails with the spec error, not mid-run.
    if (!trace_path.empty()) spec.outputs.trace_path = trace_path;
    if (!metrics_path.empty()) spec.outputs.metrics_path = metrics_path;
    if (profile) spec.outputs.profile = true;
    if (validate) spec.plan.validate = true;
    spec.validate();
    if (spec.mode != command) {
      std::fprintf(stderr,
                   "deepcam: spec %s has mode \"%s\" but the %s subcommand "
                   "was given\n",
                   flags.args()[1].c_str(), mode_name(spec.mode),
                   flags.args()[0].c_str());
      return 2;
    }

    const Outcome outcome = Runner().run(spec);

    if (!quiet && !spec.outputs.trace_path.empty())
      std::printf("wrote %s\n", spec.outputs.trace_path.c_str());
    if (!quiet && !spec.outputs.metrics_path.empty())
      std::printf("wrote %s\n", spec.outputs.metrics_path.c_str());
    if (spec.outputs.text && !quiet)
      std::printf("%s", outcome_text(outcome).c_str());
    if (spec.outputs.csv || csv) {
      const std::string dump = outcome_csv(outcome);
      if (!dump.empty()) std::printf("%s", dump.c_str());
    }

    if (json_path.empty()) json_path = spec.outputs.json_path;
    if (!json_path.empty()) {
      const std::string doc =
          outcome_to_json(outcome, spec.outputs.per_sample);
      if (json_path == "-") {
        std::printf("%s\n", doc.c_str());
      } else {
        std::ofstream out(json_path, std::ios::binary);
        out << doc << "\n";
        if (!out.good()) {
          std::fprintf(stderr, "deepcam: failed to write %s\n",
                       json_path.c_str());
          return 1;
        }
        if (!quiet) std::printf("wrote %s\n", json_path.c_str());
      }
    }

    if (check && !run_checks(outcome, spec)) {
      std::fprintf(stderr, "deepcam: --check failed\n");
      return 1;
    }
    return 0;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "deepcam: %s: %s\n", flags.args()[1].c_str(),
                 e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "deepcam: %s\n", e.what());
    return 2;
  }
}
