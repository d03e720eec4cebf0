// Facade tests: Spec validation, SpecBuilder <-> JSON loader agreement,
// spec -> JSON -> spec round-trips, and — the core guarantee — Runner::run
// being bitwise-identical to hand-assembling the same InferenceEngine /
// ComparisonRunner / Server pipeline on the committed specs/*.json.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "deepcam/deepcam.hpp"

#ifndef DEEPCAM_SPEC_DIR
#error "DEEPCAM_SPEC_DIR must be defined by the build"
#endif

namespace deepcam {
namespace {

std::string spec_path(const std::string& name) {
  return std::string(DEEPCAM_SPEC_DIR) + "/" + name;
}

/// Bitwise RunReport equality: every counter and every energy double must
/// match exactly (the facade may not perturb the simulation in any way).
void expect_reports_equal(const core::RunReport& a,
                          const core::RunReport& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const core::LayerReport& la = a.layers[i];
    const core::LayerReport& lb = b.layers[i];
    EXPECT_EQ(la.name, lb.name);
    EXPECT_EQ(la.patches, lb.patches);
    EXPECT_EQ(la.kernels, lb.kernels);
    EXPECT_EQ(la.context_len, lb.context_len);
    EXPECT_EQ(la.hash_bits, lb.hash_bits);
    EXPECT_EQ(la.cycles, lb.cycles);
    EXPECT_EQ(la.plan.passes, lb.plan.passes);
    EXPECT_EQ(la.plan.searches, lb.plan.searches);
    EXPECT_EQ(la.plan.rows_written, lb.plan.rows_written);
    EXPECT_EQ(la.plan.dot_products, lb.plan.dot_products);
    EXPECT_EQ(la.cam_energy, lb.cam_energy);
    EXPECT_EQ(la.postproc_energy, lb.postproc_energy);
    EXPECT_EQ(la.ctxgen_energy, lb.ctxgen_energy);
  }
  EXPECT_EQ(a.peripheral_cycles, b.peripheral_cycles);
  EXPECT_EQ(a.cam_area_um2, b.cam_area_um2);
}

// --- validation -----------------------------------------------------------

TEST(Spec, ValidateRejectsBadSpecs) {
  EXPECT_THROW(SpecBuilder("x").build(), Error);  // no workloads
  EXPECT_THROW(SpecBuilder("x").workload("alexnet").build(), Error);
  EXPECT_THROW(SpecBuilder("x").workload("lenet5").hash_bits(100).build(),
               Error);
  EXPECT_THROW(SpecBuilder("x").workload("lenet5").hash_bits(2048).build(),
               Error);
  EXPECT_THROW(
      SpecBuilder("x").workload("lenet5").batch_sizes({}).build(), Error);
  EXPECT_THROW(
      SpecBuilder("x").workload("lenet5").batch_sizes({0}).build(), Error);
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kOffline)
                   .workload("lenet5")
                   .workload("vgg11")
                   .build(),
               Error);  // offline takes exactly one workload
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kCompare)
                   .custom_workload("inline", 1, 8, 8)
                   .linear("fc", 64, 10)
                   .build(),
               Error);  // compare sweeps named topologies only
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kCompare)
                   .workload("lenet5")
                   .backends({"tpu"})
                   .build(),
               Error);
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kServe)
                   .workload("lenet5")
                   .serve_trace("uniform", 10, 100.0)
                   .build(),
               Error);
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kServe)
                   .workload("lenet5")
                   .serve_tiers({512, 512})
                   .build(),
               Error);  // duplicate tier = duplicate session name
  EXPECT_THROW(SpecBuilder("x")
                   .custom_workload("inline", 1, 8, 8)
                   .conv2d("c", 1, 0, 3)
                   .build(),
               Error);  // zero out_channels
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kTune)
                   .workload("lenet5")
                   .vhl(0.5, /*probes=*/0)
                   .build(),
               Error);  // tune always runs the tuner; probes must be sane
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kCompare)
                   .workload("lenet5")
                   .trace_output("t.json")
                   .build(),
               Error);  // span traces exist for offline/serve runs only
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kOffline)
                   .workload("lenet5")
                   .metrics_output("m.prom")
                   .build(),
               Error);  // Prometheus exposition mirrors a server
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kTune)
                   .workload("lenet5")
                   .profile()
                   .build(),
               Error);  // profiling aggregates offline/serve spans
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kServe)
                   .workload("lenet5")
                   .serve_trace("closed", 10, 100.0)
                   .serve_clients(4)
                   .serve_virtual_time()
                   .build(),
               Error);  // closed-loop clients block real threads
}

TEST(Spec, ValidateRejectsWindowsLargerThanTheirInput) {
  // The inline stack's shapes are walked from the input geometry: a kernel
  // or pool window larger than its padded input is named by layer.
  const auto message = [](SpecBuilder b) {
    try {
      b.build();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string conv = message(SpecBuilder("x")
                                       .custom_workload("net", 1, 3, 3)
                                       .conv2d("c", 1, 4, 5)
                                       .flatten()
                                       .linear("fc", 4, 2));
  EXPECT_NE(conv.find("workload net layer 0 \"conv2d\": kernel 5 does not "
                      "fit its 3x3 input"),
            std::string::npos)
      << conv;
  const std::string pool = message(SpecBuilder("x")
                                       .custom_workload("net", 1, 8, 8)
                                       .conv2d("c", 1, 4, 3, 2)  // 8 -> 3
                                       .maxpool(4, 4)
                                       .flatten()
                                       .linear("fc", 4, 2));
  EXPECT_NE(pool.find("workload net layer 1 \"maxpool\": window 4 does not "
                      "fit its 3x3 input"),
            std::string::npos)
      << pool;
  EXPECT_NE(message(SpecBuilder("x")
                        .custom_workload("net", 1, 2, 2)
                        .avgpool(4, 4)
                        .flatten()
                        .linear("fc", 1, 2))
                .find("layer 0 \"avgpool\": window 4"),
            std::string::npos);
  // Padding counts: 5 fits 3 + 2·1, and the output is 1×1.
  EXPECT_EQ(message(SpecBuilder("x")
                        .custom_workload("net", 1, 3, 3)
                        .conv2d("c", 1, 4, 5, 1, 1)
                        .flatten()
                        .linear("fc", 4, 2)),
            "accepted");
}

TEST(Spec, ModeNames) {
  EXPECT_EQ(mode_from_name("offline"), Mode::kOffline);
  EXPECT_EQ(mode_from_name("run"), Mode::kOffline);  // CLI alias
  EXPECT_EQ(mode_from_name("compare"), Mode::kCompare);
  EXPECT_EQ(mode_from_name("serve"), Mode::kServe);
  EXPECT_EQ(mode_from_name("tune"), Mode::kTune);
  EXPECT_THROW(mode_from_name("online"), Error);
  EXPECT_STREQ(mode_name(Mode::kServe), "serve");
}

// --- JSON loader diagnostics ---------------------------------------------

TEST(SpecIo, UnknownKeysAreTypedErrors) {
  const char* doc = R"({
  "name": "x",
  "workload": {"topology": "lenet5"},
  "acelerator": {"cam_rows": 64}
})";
  try {
    spec_from_json_text(doc);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key \"acelerator\""),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(SpecIo, SemanticErrorsPointAtTheValue) {
  EXPECT_THROW(spec_from_json_text(R"({"workload": {}})"), ParseError);
  EXPECT_THROW(
      spec_from_json_text(
          R"({"workload": {"topology": "lenet5", "layers": []}})"),
      ParseError);  // both topology and layers
  EXPECT_THROW(
      spec_from_json_text(
          R"({"mode": "offline", "workload": {"topology": "lenet5"},
              "accelerator": {"dataflow": "diagonal"}})"),
      ParseError);
  EXPECT_THROW(spec_from_json_text(R"({"mode": "sideways",
              "workload": {"topology": "lenet5"}})"),
               ParseError);
  EXPECT_THROW(spec_from_json_text(R"({"name": "x"})"),
               ParseError);  // no workload section at all
  // Topologies own their geometry and name; the inline-only keys would be
  // silently ignored, so they are rejected.
  EXPECT_THROW(
      spec_from_json_text(
          R"({"workload": {"topology": "lenet5",
              "input": {"height": 64, "width": 64}}})"),
      ParseError);
  EXPECT_THROW(
      spec_from_json_text(
          R"({"workload": {"topology": "lenet5", "name": "alias"}})"),
      ParseError);
  // Validation errors surface as Error (not silently clamped).
  EXPECT_THROW(
      spec_from_json_text(
          R"({"workload": {"topology": "lenet5"},
              "accelerator": {"hash_bits": 100}})"),
      Error);
}

// --- round-trips ----------------------------------------------------------

void expect_roundtrip_stable(const Spec& spec) {
  const std::string once = spec_to_json(spec);
  const Spec reparsed = spec_from_json_text(once);
  EXPECT_EQ(spec_to_json(reparsed), once);
}

TEST(SpecIo, ThreadCountsAreBoundedAtTheirValue) {
  // Parsing and validation only: nothing here starts a thread.
  const auto expect_bound = [](const std::string& doc,
                               const std::string& field, std::size_t line) {
    try {
      spec_from_json_text(doc);
      FAIL() << "expected ParseError for " << field;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(field + " must be <= " +
                          std::to_string(kMaxSpecThreads)),
                std::string::npos)
          << what;
      EXPECT_EQ(e.line(), line) << what;
    }
  };
  expect_bound(R"({"workload": {"topology": "lenet5"},
  "accelerator": {"engine_threads": 1000000}})",
               "accelerator.engine_threads", 2);
  expect_bound(R"({"mode": "serve", "workload": {"topology": "lenet5"},
  "serve": {"workers": 1000000}})",
               "serve.workers", 2);
  expect_bound(R"({"mode": "serve", "workload": {"topology": "lenet5"},
  "serve": {"replicas": 1000000}})",
               "serve.replicas", 2);

  // The limit itself is allowed.
  EXPECT_EQ(spec_from_json_text(
                R"({"workload": {"topology": "lenet5"},
                    "accelerator": {"engine_threads": 1024}})")
                .accelerator.engine_threads,
            kMaxSpecThreads);

  // Each field within the limit, but a serve run's total is not:
  // 4 workers + 2 tiers x 2 replicas x 512 engine threads.
  try {
    spec_from_json_text(R"({"mode": "serve",
      "workload": {"topology": "lenet5"},
      "accelerator": {"engine_threads": 512},
      "serve": {"workers": 4, "hash_tiers": [1024, 256], "replicas": 2}})");
    FAIL() << "expected the serve thread total to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "serve would start 2052 threads"),
              std::string::npos)
        << e.what();
  }

  // Builder specs meet the same bound in Spec::validate.
  EXPECT_THROW(SpecBuilder("x")
                   .workload("lenet5")
                   .engine_threads(kMaxSpecThreads + 1)
                   .build(),
               Error);
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kServe)
                   .workload("lenet5")
                   .serve_workers(kMaxSpecThreads + 1)
                   .build(),
               Error);
  EXPECT_THROW(SpecBuilder("x")
                   .mode(Mode::kServe)
                   .workload("lenet5")
                   .serve_replicas(kMaxSpecThreads + 1)
                   .build(),
               Error);
}

TEST(SpecIo, BuilderSpecsRoundTrip) {
  expect_roundtrip_stable(SpecBuilder("a")
                              .mode(Mode::kCompare)
                              .workload("lenet5", 3)
                              .batch_sizes({1, 4, 16})
                              .workload("vgg11", 9)
                              .vhl(0.4, 3)
                              .include_vhl()
                              .backends({"deepcam", "eyeriss"})
                              .csv_output()
                              .build());
  expect_roundtrip_stable(SpecBuilder("b")
                              .mode(Mode::kOffline)
                              .custom_workload("tiny", 2, 6, 6, 11)
                              .conv2d("c1", 2, 4, 3, 1, 1)
                              .relu()
                              .avgpool(2, 2)
                              .flatten()
                              .linear("fc", 36, 5)
                              .softmax()
                              .cam_rows(32)
                              .dataflow(core::Dataflow::kWeightStationary)
                              .preset(core::CyclePreset::kIdealized)
                              .hash_bits(512)
                              .layer_hash_bits({256, 512})
                              .hash_seed(9)
                              .engine_threads(2)
                              .offline_batch(3)
                              .input_seed(77)
                              .json_output("out.json")
                              .per_sample()
                              .build());
  expect_roundtrip_stable(SpecBuilder("c")
                              .mode(Mode::kServe)
                              .workload("lenet5", 7)
                              .serve_tiers({768})
                              .serve_workers(3)
                              .serve_queue(64)
                              .serve_batch(4, 1500)
                              .serve_trace("bursty", 40, 250.0, 5)
                              .serve_clients(6)
                              .serve_deadlines(30000, 100000, 400000)
                              .serve_shed(1.0, 0.8, 0.4)
                              .serve_downgrade(0.6)
                              .serve_class_mix(0.2, 0.6, 0.2)
                              .text_output(false)
                              .build());
}

TEST(SpecIo, CommittedSpecsLoadAndRoundTrip) {
  for (const char* name :
       {"quickstart.json", "table1.json", "serve_demo.json",
        "serve_slo.json", "serve_trace.json", "fig5_tune.json"}) {
    SCOPED_TRACE(name);
    const Spec spec = spec_from_file(spec_path(name));
    expect_roundtrip_stable(spec);
  }
  EXPECT_EQ(spec_from_file(spec_path("quickstart.json")).mode,
            Mode::kOffline);
  EXPECT_EQ(spec_from_file(spec_path("table1.json")).mode, Mode::kCompare);
  EXPECT_EQ(spec_from_file(spec_path("serve_demo.json")).mode, Mode::kServe);
  EXPECT_EQ(spec_from_file(spec_path("serve_slo.json")).mode, Mode::kServe);
  EXPECT_EQ(spec_from_file(spec_path("serve_trace.json")).mode, Mode::kServe);
  EXPECT_EQ(spec_from_file(spec_path("fig5_tune.json")).mode, Mode::kTune);
}

TEST(SpecIo, BuilderMatchesCommittedSpecs) {
  // The SpecBuilder and the JSON file are two doors to the same Spec: the
  // builder equivalents of the committed specs must produce byte-identical
  // canonical JSON.
  const Spec quickstart = SpecBuilder("quickstart")
                              .mode(Mode::kOffline)
                              .custom_workload("demo_cnn", 1, 16, 16, 1)
                              .conv2d("conv1", 1, 8, 3, 1, 1)
                              .relu("relu1")
                              .maxpool(2, 2)
                              .flatten("flat")
                              .linear("fc", 512, 10)
                              .offline_batch(8)
                              .build();
  EXPECT_EQ(spec_to_json(quickstart),
            spec_to_json(spec_from_file(spec_path("quickstart.json"))));

  const Spec table1 = SpecBuilder("table1-compare")
                          .mode(Mode::kCompare)
                          .workload("lenet5", 1)
                          .batch_sizes({1, 8})
                          .vhl(0.5, 4)
                          .include_vhl()
                          .build();
  EXPECT_EQ(spec_to_json(table1),
            spec_to_json(spec_from_file(spec_path("table1.json"))));

  const Spec serve_demo = SpecBuilder("serve-demo")
                              .mode(Mode::kServe)
                              .workload("lenet5", 7)
                              .engine_threads(2)
                              .serve_tiers({1024, 256})
                              .serve_workers(4)
                              .serve_queue(512)
                              .serve_batch(8, 2000)
                              .serve_trace("poisson", 96, 400.0, 1)
                              .build();
  EXPECT_EQ(spec_to_json(serve_demo),
            spec_to_json(spec_from_file(spec_path("serve_demo.json"))));

  const Spec serve_slo = SpecBuilder("serve-slo")
                             .mode(Mode::kServe)
                             .workload("lenet5", 7)
                             .engine_threads(2)
                             .serve_tiers({1024, 256})
                             .serve_workers(4)
                             .serve_queue(256)
                             .serve_batch(8, 2000)
                             .serve_trace("flash", 128, 400.0, 7)
                             .serve_deadlines(40000, 120000, 500000)
                             .serve_shed(1.0, 0.75, 0.35)
                             .serve_downgrade(0.5)
                             .serve_class_mix(0.25, 0.5, 0.25)
                             .build();
  EXPECT_EQ(spec_to_json(serve_slo),
            spec_to_json(spec_from_file(spec_path("serve_slo.json"))));

  const Spec serve_trace = SpecBuilder("serve-trace")
                               .mode(Mode::kServe)
                               .workload("lenet5", 7)
                               .engine_threads(2)
                               .serve_tiers({1024, 256})
                               .serve_workers(4)
                               .serve_queue(128)
                               .serve_batch(8, 2000)
                               .serve_trace("flash", 96, 400.0, 7)
                               .serve_deadlines(40000, 120000, 500000)
                               .serve_shed(1.0, 0.75, 0.35)
                               .serve_downgrade(0.5)
                               .serve_class_mix(0.25, 0.5, 0.25)
                               .serve_replicas(2)
                               .serve_retry(1, 2, 3)
                               .serve_chaos(0.05, "crash", 1)
                               .serve_chaos(0.15, "heal", 1)
                               .serve_virtual_time()
                               .build();
  EXPECT_EQ(spec_to_json(serve_trace),
            spec_to_json(spec_from_file(spec_path("serve_trace.json"))));
}

// --- build_model ----------------------------------------------------------

TEST(Spec, BuildModelInlineMatchesManualConstruction) {
  const Spec spec = spec_from_file(spec_path("quickstart.json"));
  const Workload& w = spec.workloads.front();
  const auto from_spec = build_model(w);

  // Inline weight layers are seeded workload.seed + layer index.
  nn::Model manual("demo_cnn");
  manual.add(std::make_unique<nn::Conv2D>(
      "conv1", nn::ConvSpec{1, 8, 3, 3, 1, 1}, /*seed=*/1));
  manual.add(std::make_unique<nn::ReLU>("relu1"));
  manual.add(std::make_unique<nn::MaxPool>("maxpool2", 2, 2));
  manual.add(std::make_unique<nn::Flatten>("flat"));
  manual.add(std::make_unique<nn::Linear>("fc", 512, 10, /*seed=*/5));

  const nn::Tensor probe =
      sim::make_probe_batch(w.input_shape(), 1).front();
  const nn::Tensor a = from_spec->infer(probe);
  const nn::Tensor b = manual.infer(probe);
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

// --- facade equivalence (the tentpole guarantee) --------------------------

TEST(RunnerEquivalence, OfflineSpecMatchesDirectEngine) {
  const Spec spec = spec_from_file(spec_path("quickstart.json"));
  const Outcome outcome = Runner().run(spec);
  const core::BatchReport& facade = outcome.offline().report;

  const Workload& w = spec.workloads.front();
  const auto model = build_model(w);
  const auto compiled = std::make_shared<const core::CompiledModel>(
      *model, spec.accelerator.config());
  core::InferenceEngine engine(compiled, spec.accelerator.engine_threads);
  core::BatchReport direct;
  engine.run_batch(
      sim::make_probe_batch(w.input_shape(), spec.offline.batch,
                            spec.offline.input_seed),
      &direct);

  ASSERT_EQ(facade.samples, direct.samples);
  ASSERT_EQ(facade.per_sample.size(), direct.per_sample.size());
  expect_reports_equal(facade.aggregate, direct.aggregate);
  for (std::size_t i = 0; i < facade.per_sample.size(); ++i)
    expect_reports_equal(facade.per_sample[i], direct.per_sample[i]);
}

TEST(RunnerProfile, OfflineProfileAggregatesKernelStages) {
  Spec spec = spec_from_file(spec_path("quickstart.json"));
  // Without profiling the outcome keeps the pre-profiling document shape.
  const Outcome plain = Runner().run(spec);
  EXPECT_TRUE(plain.offline().profile.empty());
  EXPECT_EQ(outcome_to_json(plain).find("\"profile\""), std::string::npos);

  spec.outputs.profile = true;
  const Outcome traced = Runner().run(spec);
  const auto& rows = traced.offline().profile;
  ASSERT_FALSE(rows.empty());
  double share = 0.0;
  bool saw_kernel = false;
  for (const auto& r : rows) {
    share += r.share;
    EXPECT_GT(r.count, 0u) << r.stage;
    if (r.stage.rfind("kernel/", 0) == 0) saw_kernel = true;
  }
  EXPECT_TRUE(saw_kernel) << "profile should include kernel-stage spans";
  EXPECT_NEAR(share, 1.0, 1e-9);
  // The profiled run appends the table to both serializations.
  EXPECT_NE(outcome_to_json(traced).find("\"profile\""), std::string::npos);
  EXPECT_NE(outcome_text(traced).find("Stage profile"), std::string::npos);
  // Identical simulated work: profiling must not perturb the report.
  EXPECT_EQ(traced.offline().report.aggregate.total_cycles(),
            plain.offline().report.aggregate.total_cycles());
}

TEST(RunnerEquivalence, CompareSpecMatchesDirectComparisonRunner) {
  const Spec spec = SpecBuilder("equiv-compare")
                        .mode(Mode::kCompare)
                        .workload("lenet5", 1)
                        .batch_sizes({1})
                        .build();
  const Outcome outcome = Runner().run(spec);
  const sim::ComparisonReport& facade = outcome.compare().report;

  const sim::BackendRegistry registry = sim::default_registry();
  const sim::ComparisonRunner direct_runner(registry);
  const sim::ComparisonReport direct =
      direct_runner.run({sim::WorkloadSpec{"lenet5", 1, {1}}});

  ASSERT_EQ(facade.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < facade.rows.size(); ++i) {
    const sim::PlatformResult& a = facade.rows[i];
    const sim::PlatformResult& b = direct.rows[i];
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.extra_cycles, b.extra_cycles);
    EXPECT_EQ(a.peak_efficiency, b.peak_efficiency);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
      EXPECT_EQ(a.layers[l].macs, b.layers[l].macs);
      EXPECT_EQ(a.layers[l].cycles, b.layers[l].cycles);
      EXPECT_EQ(a.layers[l].energy_j, b.layers[l].energy_j);
    }
  }
}

TEST(RunnerEquivalence, TuneSpecMatchesGuidedPlanner) {
  // Tune mode runs the model-guided accuracy pass by default; the facade
  // must be bitwise-identical to calling Planner::guided_tune directly with
  // the config the runner derives from the spec.
  const Spec spec = spec_from_file(spec_path("fig5_tune.json"));
  const Outcome outcome = Runner().run(spec);
  ASSERT_EQ(outcome.tune().entries.size(), 1u);
  const core::TuneResult& facade = outcome.tune().entries[0].result;

  const Workload& w = spec.workloads.front();
  const auto model = build_model(w);
  plan::PlannerConfig cfg;
  cfg.objective = plan::objective_from_name(spec.plan.objective);
  cfg.batch = spec.plan.batch;
  cfg.max_rel_error = spec.accelerator.vhl_max_rel_error;
  cfg.probes = spec.accelerator.vhl_probes;
  cfg.base = spec.accelerator.config();
  const core::TuneResult direct =
      plan::Planner(*model, w.input_shape()).guided_tune(cfg);

  ASSERT_EQ(facade.hash_bits, direct.hash_bits);
  ASSERT_EQ(facade.layers.size(), direct.layers.size());
  for (std::size_t i = 0; i < facade.layers.size(); ++i) {
    EXPECT_EQ(facade.layers[i].chosen_bits, direct.layers[i].chosen_bits);
    EXPECT_EQ(facade.layers[i].metric, direct.layers[i].metric);
  }
}

TEST(RunnerEquivalence, TuneValidateSpecMatchesEmpiricalTuner) {
  // --validate restores the ground-truth empirical sweep.
  Spec spec = spec_from_file(spec_path("fig5_tune.json"));
  spec.plan.validate = true;
  const Outcome outcome = Runner().run(spec);
  ASSERT_EQ(outcome.tune().entries.size(), 1u);
  const core::TuneResult& facade = outcome.tune().entries[0].result;

  const Workload& w = spec.workloads.front();
  const auto model = build_model(w);
  core::TunerConfig cfg;
  cfg.max_rel_error = spec.accelerator.vhl_max_rel_error;
  cfg.hash_seed = spec.accelerator.hash_seed;
  const core::TuneResult direct = core::tune_hash_lengths(
      *model,
      sim::make_probe_batch(w.input_shape(), spec.accelerator.vhl_probes),
      cfg);

  ASSERT_EQ(facade.hash_bits, direct.hash_bits);
  ASSERT_EQ(facade.layers.size(), direct.layers.size());
  for (std::size_t i = 0; i < facade.layers.size(); ++i) {
    EXPECT_EQ(facade.layers[i].chosen_bits, direct.layers[i].chosen_bits);
    EXPECT_EQ(facade.layers[i].metric, direct.layers[i].metric);
  }
}

TEST(RunnerEquivalence, PlanSpecMatchesDirectPlanner) {
  // Plan mode through the facade (and its process-wide cache) must return
  // exactly the plan a direct Planner::plan call produces.
  const Spec spec = spec_from_file(spec_path("plan_lenet.json"));
  const Outcome outcome = Runner().run(spec);
  ASSERT_EQ(outcome.plan().entries.size(), 1u);
  const plan::Plan& facade = outcome.plan().entries[0].plan;

  const Workload& w = spec.workloads.front();
  const auto model = build_model(w);
  plan::PlannerConfig cfg;
  cfg.objective = plan::objective_from_name(spec.plan.objective);
  cfg.batch = spec.plan.batch;
  cfg.max_rel_error = spec.accelerator.vhl_max_rel_error;
  cfg.probes = spec.plan.probes;
  cfg.base = spec.accelerator.config();
  const plan::Plan direct =
      plan::Planner(*model, w.input_shape()).plan(cfg);

  EXPECT_EQ(plan::plan_to_json(facade), plan::plan_to_json(direct));
}

TEST(RunnerEquivalence, ServeSpecLogitsMatchDirectServer) {
  // Latencies are wall-clock and cannot be pinned; the serving determinism
  // contract (per-event input seeds) makes everything else — admissions
  // with an oversized queue, completions, per-request logits — bitwise
  // reproducible between the facade and a hand-assembled server.
  Spec spec = SpecBuilder("equiv-serve")
                  .mode(Mode::kServe)
                  .workload("lenet5", 7)
                  .engine_threads(2)
                  .serve_tiers({256})
                  .serve_workers(2)
                  .serve_queue(256)
                  .serve_batch(8, 2000)
                  .serve_trace("poisson", 32, 500.0, 3)
                  .build();
  const Outcome outcome = Runner().run(spec);
  const ServeOutcome& facade = outcome.serve();
  EXPECT_EQ(facade.trace_events, 32u);
  EXPECT_EQ(facade.load.sent + facade.load.rejected, 32u);
  ASSERT_EQ(facade.sessions, std::vector<std::string>{"lenet5-k256"});

  // Direct path: same sessions, same trace, hand-assembled.
  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.queue_capacity = 256;
  cfg.batch.max_batch_size = 8;
  cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
  serve::Server server(cfg);
  const auto model = nn::make_lenet5(7);
  core::DeepCamConfig dc = spec.accelerator.config();
  dc.default_hash_bits = 256;
  auto compiled = std::make_shared<const core::CompiledModel>(*model, dc);
  server.sessions().add_session("lenet5-k256", std::move(compiled), 2);
  server.start();

  serve::TraceConfig tc;
  tc.requests = 32;
  tc.rate_rps = 500.0;
  tc.sessions = {"lenet5-k256"};
  tc.seed = 3;
  const serve::Trace trace = serve::make_trace(tc);
  serve::LoadGenerator loadgen(server, {nn::input_spec_for("lenet5").shape()});
  const serve::LoadReport direct = loadgen.replay(trace);
  server.drain();
  server.stop();

  ASSERT_EQ(facade.load.records.size(), direct.records.size());
  for (std::size_t i = 0; i < direct.records.size(); ++i) {
    const serve::RequestRecord& a = facade.load.records[i];
    const serve::RequestRecord& b = direct.records[i];
    ASSERT_TRUE(a.completed && b.completed) << "event " << i;
    const nn::Tensor& la = a.response.logits;
    const nn::Tensor& lb = b.response.logits;
    ASSERT_EQ(la.numel(), lb.numel());
    for (std::size_t j = 0; j < la.numel(); ++j)
      ASSERT_EQ(la[j], lb[j]) << "event " << i << " logit " << j;
  }
}

// --- outcome plumbing -----------------------------------------------------

TEST(Outcome, CheckedAccessors) {
  Outcome outcome{"x", Mode::kOffline, OfflineOutcome{}};
  EXPECT_NO_THROW(outcome.offline());
  EXPECT_THROW(outcome.compare(), Error);
  EXPECT_THROW(outcome.serve(), Error);
  EXPECT_THROW(outcome.tune(), Error);
}

TEST(Outcome, JsonEnvelopeNamesSpecAndMode) {
  const Spec spec = spec_from_file(spec_path("quickstart.json"));
  const Outcome outcome = Runner().run(spec);
  const std::string json = outcome_to_json(outcome);
  EXPECT_EQ(json.rfind("{\"spec\":\"quickstart\",\"mode\":\"offline\","
                       "\"offline\":",
                       0),
            0u)
      << json.substr(0, 80);
  // The document parses back and per_sample only appears when asked.
  EXPECT_EQ(parse_json(json).at("offline").find("per_sample"), nullptr);
  const std::string with_samples = outcome_to_json(outcome, true);
  EXPECT_NE(parse_json(with_samples).at("offline").find("per_sample"),
            nullptr);
  EXPECT_FALSE(outcome_text(outcome).empty());
  EXPECT_NE(outcome_csv(outcome).find("layer,patches"), std::string::npos);
}

}  // namespace
}  // namespace deepcam
