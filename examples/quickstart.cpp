// Quickstart: the DeepCAM public API in ~60 lines.
//
//  1. Hash two vectors into contexts (SimHash + minifloat L2 norm).
//  2. Compute their approximate geometric dot-product via a DynamicCam
//     search, exactly as the accelerator does internally.
//  3. Run a small CNN batch through the declarative facade — one Spec in,
//     one Outcome out (the same description as specs/quickstart.json) —
//     then cross-check the facade against the direct InferenceEngine path:
//     the reports must be bitwise identical (exit 1 otherwise).
#include <cstdio>

#include "deepcam/deepcam.hpp"

using namespace deepcam;

int main() {
  // --- 1. Contexts: the paper's example vectors (Fig. 2). ---------------
  // x (row 0) and y (row 1), hashed together to 1024-bit contexts.
  core::ContextGenerator gen(/*input_dim=*/4, /*seed=*/42);
  const std::vector<float> xy = {0.6012f, 0.8383f, 0.6859f, 0.5712f,
                                 0.9044f, 0.5352f, 0.8110f, 0.9243f};
  core::ContextBatch ctx;
  gen.contexts_into(xy.data(), 2, ctx, /*hash_bits=*/1024);

  // --- 2. One CAM search -> Hamming distance -> approximate dot. --------
  cam::DynamicCam cam(cam::CamConfig{/*rows=*/64, 256, 4});
  cam.set_hash_length(1024);
  cam.write_row(0, ctx.sig_span(0));
  cam::DynamicCam::FlatSearchResult result;
  cam.search_flat(ctx.sig_span(1), result);
  const std::size_t hd = result.row_hd[0];
  const double* norms = ctx.norms(/*minifloat=*/true);
  const double approx =
      hash::approx_dot(norms[0], norms[1], hd, 1024, /*use_pwl=*/true);
  std::printf("algebraic dot-product : 2.0765 (paper value)\n");
  std::printf("DeepCAM approx (k=1024): %.4f  (HD=%zu)\n\n", approx, hd);

  // --- 3. A small CNN through the facade (== specs/quickstart.json). ----
  const Spec spec = SpecBuilder("quickstart")
                        .mode(Mode::kOffline)
                        .custom_workload("demo_cnn", 1, 16, 16, /*seed=*/1)
                        .conv2d("conv1", 1, 8, 3, /*stride=*/1, /*pad=*/1)
                        .relu("relu1")
                        .maxpool(2, 2)
                        .flatten("flat")
                        .linear("fc", 8 * 8 * 8, 10)
                        .offline_batch(8)
                        .build();
  const Outcome outcome = Runner().run(spec);
  std::printf("%s", outcome_text(outcome).c_str());

  // --- 4. Facade == direct engine path, bitwise. -------------------------
  const Workload& w = spec.workloads.front();
  const auto model = build_model(w);
  const auto compiled = std::make_shared<const core::CompiledModel>(
      *model, spec.accelerator.config());
  core::InferenceEngine engine(compiled, spec.accelerator.engine_threads);
  core::BatchReport direct;
  engine.run_batch(sim::make_probe_batch(w.input_shape(), spec.offline.batch,
                                         spec.offline.input_seed),
                   &direct);

  const core::RunReport& a = outcome.offline().report.aggregate;
  const bool match = a.total_cycles() == direct.aggregate.total_cycles() &&
                     a.total_energy() == direct.aggregate.total_energy() &&
                     a.total_searches() == direct.aggregate.total_searches();
  std::printf("\nfacade vs direct engine: %zu vs %zu cycles -> %s\n",
              a.total_cycles(), direct.aggregate.total_cycles(),
              match ? "OK (bitwise)" : "MISMATCH");
  return match ? 0 : 1;
}
