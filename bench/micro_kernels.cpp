// Host-side microbenchmarks (google-benchmark): the computational kernels
// the simulator spends its time in — batched SimHash, packed Hamming
// distance, CAM search simulation, context generation — plus the PWL
// cosine ablation kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cam/dynamic_cam.hpp"
#include "codelet/codelet.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/engine.hpp"
#include "core/postproc.hpp"
#include "hash/cosine_approx.hpp"
#include "nn/conv2d.hpp"
#include "nn/topologies.hpp"

using namespace deepcam;

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

void BM_HammingPrefix(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  BitVec a(1024), b(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    a.set(i, rng.uniform() < 0.5);
    b.set(i, rng.uniform() < 0.5);
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.hamming_prefix(b, k));
}
BENCHMARK(BM_HammingPrefix)->Arg(63)->Arg(256)->Arg(512)->Arg(768)->Arg(1024);

void BM_CamSearch(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  cam::DynamicCam cam(cam::CamConfig{rows, 256, 4});
  Rng rng(4);
  for (std::size_t r = 0; r < rows; ++r) {
    BitVec v(1024);
    for (std::size_t i = 0; i < 1024; ++i) v.set(i, rng.uniform() < 0.5);
    cam.write_row(r, v);
  }
  BitVec key(1024);
  for (std::size_t i = 0; i < 1024; ++i) key.set(i, rng.uniform() < 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(cam.search(key));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CamSearch)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_PwlCosine(benchmark::State& state) {
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::pwl_cosine(t));
    t += 1e-4;
    if (t > 3.14) t = 0.0;
  }
}
BENCHMARK(BM_PwlCosine);

// One context per call: a one-vector contexts_into at full width (the
// signature plus its norm), the per-call floor the batched forms amortize.
void BM_ContextGeneration(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::ContextGenerator gen(n, 5);
  const auto v = random_vec(n, 6);
  core::ContextBatch ctx;
  for (auto _ : state) {
    gen.contexts_into(v.data(), 1, ctx, hash::kMaxHashBits);
    benchmark::DoNotOptimize(ctx.sig(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ContextGeneration)->Arg(25)->Arg(150)->Arg(576)->Arg(4608);

void BM_CamWriteRow(benchmark::State& state) {
  // The row-program hot path: word-copy via BitVec::assign_prefix.
  cam::DynamicCam cam(cam::CamConfig{64, 256, 4});
  Rng rng(11);
  BitVec v(1024);
  for (std::size_t i = 0; i < 1024; ++i) v.set(i, rng.uniform() < 0.5);
  std::size_t r = 0;
  for (auto _ : state) {
    cam.write_row(r, v);
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CamWriteRow);

void BM_CamSearchInto(benchmark::State& state) {
  // Allocation-free steady-state search (reused SearchResult buffer).
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  cam::DynamicCam cam(cam::CamConfig{rows, 256, 4});
  Rng rng(12);
  for (std::size_t r = 0; r < rows; ++r) {
    BitVec v(1024);
    for (std::size_t i = 0; i < 1024; ++i) v.set(i, rng.uniform() < 0.5);
    cam.write_row(r, v);
  }
  BitVec key(1024);
  for (std::size_t i = 0; i < 1024; ++i) key.set(i, rng.uniform() < 0.5);
  cam::DynamicCam::SearchResult buf;
  for (auto _ : state) {
    cam.search_into(key, buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CamSearchInto)->Arg(64)->Arg(256);

// Batched SimHash kernel: the fused sign_hash_cols codelet (register tiles
// over column panels of C, signs packed straight from the tile). items/s =
// contexts hashed per second; compare against BM_ContextGeneration (one
// context per call) at the same n. Args are {input_dim, patch_count}:
// LeNet conv2 geometry (150, 576-at-conv1-scale), a VGG-ish wide layer, and
// both ends of the pack threshold on VGG11's widest layers — conv15 weight
// hashing (4608 × 512, packed panels) and conv21 activations (4608 × 4, one
// tile streaming the strided C).
void BM_SignHashBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t patches = static_cast<std::size_t>(state.range(1));
  hash::RandomProjection proj(n, hash::kMaxHashBits, 21);
  std::vector<float> xs(n * patches);
  Rng rng(22);
  for (auto& x : xs) x = static_cast<float>(rng.gaussian());
  std::vector<std::uint64_t> sigs(patches * proj.words_per_sig());
  for (auto _ : state) {
    proj.sign_hash_batch(xs.data(), patches, hash::kMaxHashBits, sigs.data());
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(patches));
}
BENCHMARK(BM_SignHashBatch)
    ->Args({25, 576})
    ->Args({150, 64})
    ->Args({576, 256})
    ->Args({4608, 512})
    ->Args({4608, 4});

// Full conv-layer context generation through the SoA ContextBatch arena:
// im2col patch matrix + batched hash + norms, steady-state allocation-free.
// items/s = contexts per second; the per-context time divided by
// BM_ContextGeneration at the same patch_len is the pipeline speedup. Args
// are {in_channels, image_hw, hash_bits} with a 5x5 kernel (LeNet conv1
// geometry); hash_bits=256 is the engine's online operating point under the
// default VHL-able config, 1024 the full-width signature.
void BM_ContextBatchConv(benchmark::State& state) {
  nn::ConvSpec spec;
  spec.in_channels = static_cast<std::size_t>(state.range(0));
  spec.out_channels = 1;
  spec.kernel_h = spec.kernel_w = 5;
  const std::size_t hw = static_cast<std::size_t>(state.range(1));
  const std::size_t hash_bits = static_cast<std::size_t>(state.range(2));
  core::ContextGenerator gen(spec.patch_len(), 23);
  nn::Tensor in({1, spec.in_channels, hw, hw});
  Rng rng(24);
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(rng.gaussian());
  const std::size_t patches = spec.out_h(hw) * spec.out_w(hw);
  const nn::Tensor* const one[] = {&in};
  core::ContextBatch batch;
  for (auto _ : state) {
    gen.activation_contexts_into(one, spec, batch, hash_bits);
    benchmark::DoNotOptimize(batch.sig(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(patches));
}
BENCHMARK(BM_ContextBatchConv)
    ->Args({1, 28, 256})
    ->Args({1, 28, 1024})
    ->Args({6, 12, 256})
    ->Args({6, 12, 1024});

// Engine throughput: items/s == samples/s on the LeNet pipeline, at 1
// thread vs the machine's hardware concurrency. The ratio of the two
// items_per_second numbers is the threading speedup.
void BM_EngineRunBatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  static auto model = nn::make_lenet5(13);
  core::DeepCamConfig cfg;
  cfg.cam_rows = 64;
  cfg.default_hash_bits = 256;
  auto compiled = std::make_shared<const core::CompiledModel>(*model, cfg);
  core::InferenceEngine engine(compiled, threads);
  std::vector<nn::Tensor> batch;
  for (std::size_t i = 0; i < 8; ++i) {
    Rng rng(14 + i);
    nn::Tensor t({1, 1, 28, 28});
    for (std::size_t j = 0; j < t.numel(); ++j)
      t[j] = static_cast<float>(rng.gaussian());
    batch.push_back(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_EngineRunBatch)
    ->Arg(1)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The offline hashing of a whole model (core::hash_weights: every CAM
// layer's C drawn, then its kernels sign-hashed) at 1024 bits, wall time:
// the layers hash concurrently on up to min(CAM layers, hardware threads)
// threads. GMAC/s counts the weight hashes' multiply-adds (kernels ×
// context length × 1024 per layer) per wall second.
void BM_HashWeights(benchmark::State& state, const char* model_name) {
  const auto model = nn::make_model(model_name, 13);
  double macs = 0.0;
  const auto warm = core::hash_weights(*model, 42);
  for (const core::HashedLayer& l : warm->layers)
    macs += static_cast<double>(l.weights.size() * l.ctxgen.input_dim() *
                                hash::kMaxHashBits);
  for (auto _ : state) benchmark::DoNotOptimize(core::hash_weights(*model, 42));
  state.counters["GMAC/s"] = benchmark::Counter(
      macs * 1e-9 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_HashWeights, vgg11, "vgg11")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_HashWeights, lenet5, "lenet5")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- per-ISA codelet benchmarks -----------------------------------------
// Registered at runtime (benchmark::RegisterBenchmark) once per ISA table
// that is both compiled in and executable on this host, so one binary
// reports scalar-vs-AVX2-vs-AVX-512 side by side:
//   BM_HammingPrefix<isa>/k, BM_SearchFlat<isa>/k, BM_PackSigns<isa>/k
// at k in {63, 256, 1024} (sub-word tail, the engine's online operating
// point, and the full-width signature), BM_GaussianFill<isa>/n and
// BM_ConvInfer<isa>/in_c/out_c/hw.

void BM_HammingPrefixIsa(benchmark::State& state,
                         const codelet::Kernels* kr) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  BitVec a(1024), b(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    a.set(i, rng.uniform() < 0.5);
    b.set(i, rng.uniform() < 0.5);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(kr->hamming_prefix(a.data(), b.data(), k));
}

void BM_SearchFlatIsa(benchmark::State& state, const codelet::Kernels* kr) {
  // The CAM search_flat hot loop: dense HDs for a 64-row arena with the
  // DynamicCam row stride (1024-bit rows -> 16 words).
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kStride = 16;
  Rng rng(17);
  std::vector<std::uint64_t> arena(kRows * kStride);
  for (auto& w : arena) w = rng.next();
  std::vector<std::uint64_t> query(kStride);
  for (auto& w : query) w = rng.next();
  std::vector<std::uint16_t> hd(kRows);
  for (auto _ : state) {
    kr->hamming_many(query.data(), arena.data(), kStride, kRows, k,
                     hd.data());
    benchmark::DoNotOptimize(hd.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows));
}

// The post-processing of one 64-row CAM pass row through one ISA's
// finish_dots codelet: 64 dot products from HDs, a k-bit cosine table (PWL)
// and decoded norms. Next to BM_SearchFlat<isa>/k, the search that produced
// the HDs, it shows the per-row cost of both halves of the CAM layer's inner
// loop; time_per_dot is the time per dot product, in seconds.
void BM_FinishDotsIsa(benchmark::State& state, const codelet::Kernels* kr) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 64;
  const std::vector<double> table =
      core::PostProcessingUnit().cosine_table(k, k);
  Rng rng(18);
  std::vector<std::uint16_t> hd(kRows);
  std::vector<double> norms(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    hd[r] = static_cast<std::uint16_t>(rng.next() % (k + 1));
    norms[r] = 10.0 * rng.uniform();
  }
  const double scale = 3.0 * rng.uniform();
  std::vector<double> out(kRows);
  for (auto _ : state) {
    kr->finish_dots(hd.data(), table.data(), scale, norms.data(), 0.25, kRows,
                    out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows));
  state.counters["time_per_dot"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_PackSignsIsa(benchmark::State& state, const codelet::Kernels* kr) {
  const std::size_t nbits = static_cast<std::size_t>(state.range(0));
  const auto proj = random_vec(nbits, 19);
  std::vector<std::uint64_t> words((nbits + 63) / 64);
  for (auto _ : state) {
    kr->pack_signs(proj.data(), nbits, words.data());
    benchmark::DoNotOptimize(words.data());
  }
}

// Rng::fill_gaussian's work through one ISA's gaussian_pairs codelet:
// uniforms drawn in blocks of 256 pairs, then the Box–Muller codelet.
// items/s = Gaussians per second at n = 4608 × 1024, the projection matrix
// of VGG11's widest conv layers; the scalar table is glibc's per-value loop.
void BM_GaussianFillIsa(benchmark::State& state, const codelet::Kernels* kr) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlockPairs = 256;
  std::vector<float> out(n);
  std::vector<double> u1(kBlockPairs), u2(kBlockPairs);
  Rng rng(23);
  for (auto _ : state) {
    for (std::size_t i = 0; i + 2 <= n;) {
      const std::size_t pairs = std::min(kBlockPairs, (n - i) / 2);
      for (std::size_t p = 0; p < pairs; ++p) {
        do {
          u1[p] = rng.uniform();
        } while (u1[p] <= 1e-300);
        u2[p] = rng.uniform();
      }
      kr->gaussian_pairs(u1.data(), u2.data(), pairs, 1.0, out.data() + i);
      i += 2 * pairs;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Conv2D::infer (transposed im2col + the affine_cols codelet) through one
// ISA's table, on VGG11 conv layers at batch 1. Args are {in_channels,
// out_channels, image_hw} with a 3×3 pad-1 kernel: conv3 (64→128, 16×16,
// 256 pixels), conv9 (256→256, 8×8), conv15 (512→512, 4×4) and conv21
// (512→512, 2×2: 4 pixels, one partial panel). GMAC/s counts the layer's
// multiply-adds (pixels × out_channels × patch_len) per second.
void BM_ConvInferIsa(benchmark::State& state, const codelet::Kernels* kr) {
  nn::ConvSpec spec{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)), 3, 3, 1, 1};
  const std::size_t hw = static_cast<std::size_t>(state.range(2));
  const nn::Conv2D conv("conv", spec, 25);
  nn::Tensor in({1, spec.in_channels, hw, hw});
  Rng rng(26);
  for (std::size_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(rng.gaussian());
  for (auto _ : state) benchmark::DoNotOptimize(conv.infer(in, *kr));
  const double macs = static_cast<double>(spec.out_h(hw) * spec.out_w(hw) *
                                          spec.out_channels *
                                          spec.patch_len());
  state.counters["GMAC/s"] = benchmark::Counter(
      macs * 1e-9 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void register_isa_benchmarks() {
  using codelet::Isa;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const codelet::Kernels* kr = codelet::kernels_for(isa);
    if (kr == nullptr || !codelet::isa_supported(isa)) continue;
    // Capitalized ISA suffix so names group next to the dispatched bench.
    std::string tag = codelet::isa_name(isa);
    tag[0] = static_cast<char>(tag[0] - 'a' + 'A');
    using BenchFn = void (*)(benchmark::State&, const codelet::Kernels*);
    const std::pair<BenchFn, const char*> benches[] = {
        {BM_HammingPrefixIsa, "BM_HammingPrefix"},
        {BM_SearchFlatIsa, "BM_SearchFlat"},
        {BM_PackSignsIsa, "BM_PackSigns"}};
    for (const auto& [fn, name] : benches) {
      auto* b =
          benchmark::RegisterBenchmark((std::string(name) + tag).c_str(), fn,
                                       kr);
      b->Arg(63)->Arg(256)->Arg(1024);
    }
    benchmark::RegisterBenchmark(("BM_FinishDots" + tag).c_str(),
                                 BM_FinishDotsIsa, kr)
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_GaussianFill" + tag).c_str(),
                                 BM_GaussianFillIsa, kr)
        ->Arg(4608 * 1024)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("BM_ConvInfer" + tag).c_str(),
                                 BM_ConvInferIsa, kr)
        ->Args({64, 128, 16})
        ->Args({256, 256, 8})
        ->Args({512, 512, 4})
        ->Args({512, 512, 2})
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the system google-benchmark is a
// prebuilt library, so its "library_build_type" context line describes that
// library, not this binary (a Release build of this binary reported
// "debug"). Report our own build type and the dispatched codelet
// ISA as custom context so every emitted JSON is self-describing.
namespace {

/// Console reporter that also captures the adjusted real time of the
/// engine gate benchmark (BM_EngineRunBatch/1/real_time) for the
/// --deepcam_baseline regression check.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.benchmark_name() == kGateBench)
        gate_real_time_ = run.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
  double gate_real_time() const { return gate_real_time_; }

  static constexpr const char* kGateBench = "BM_EngineRunBatch/1/real_time";

 private:
  double gate_real_time_ = -1.0;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --deepcam_baseline=PATH before google-benchmark sees argv (it
  // rejects flags it does not own). The gate compares this run's
  // BM_EngineRunBatch/1 real time against the committed baseline (the
  // "pr6" section of BENCH_pr6.json): > 1% slower fails — the tracing
  // probe points must stay free when disabled. The baseline is read before
  // any benchmark runs: --benchmark_out may name the same file, and
  // google-benchmark rewrites it while it runs.
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--deepcam_baseline=";
    if (arg.rfind(prefix, 0) == 0) {
      baseline_path = arg.substr(prefix.size());
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  double base_ms = 0.0;
  if (!baseline_path.empty())
    base_ms = parse_json_file(baseline_path)
                  .at("pr6")
                  .at("benchmarks")
                  .at(CapturingReporter::kGateBench)
                  .at("real_time")
                  .as_number();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef NDEBUG
  benchmark::AddCustomContext("deepcam_build_type", "release");
#else
  benchmark::AddCustomContext("deepcam_build_type", "debug");
#endif
  benchmark::AddCustomContext("deepcam_codelet_isa",
                              codelet::isa_name(codelet::active_isa()));
  register_isa_benchmarks();
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!baseline_path.empty()) {
    if (reporter.gate_real_time() <= 0.0) {
      std::fprintf(stderr,
                   "deepcam_baseline: %s did not run (filter it in?)\n",
                   CapturingReporter::kGateBench);
      return 1;
    }
    const double ratio = reporter.gate_real_time() / base_ms;
    std::printf("%s vs %s: %.3f / %.3f ms = %.3fx (gate <= 1.01x)\n",
                CapturingReporter::kGateBench, baseline_path.c_str(),
                reporter.gate_real_time(), base_ms, ratio);
    if (ratio > 1.01) {
      std::fprintf(stderr, "FAIL: engine batch regressed vs baseline\n");
      return 1;
    }
  }
  return 0;
}
