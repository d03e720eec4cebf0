// ComparisonRunner: sweeps a backend registry over a workload registry and
// collects the normalized results into a ComparisonReport — the code path
// that actually reproduces the paper's Table I/II cross-platform rankings.
//
// Workloads name topologies from nn/topologies (LeNet5/VGG11/VGG16/
// ResNet18) and carry the batch sizes to sweep. Optionally the runner also
// evaluates a VHL-tuned DeepCAM variant ("deepcam-vhl"): per-layer hash
// lengths chosen by the HashTuner (kLayerLocal mode) on deterministic
// probes, compared against the registry's fixed-default-hash "deepcam".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "core/hash_tuner.hpp"
#include "sim/registry.hpp"

namespace deepcam::sim {

/// One CNN workload to sweep: a topology name for nn::make_model plus the
/// batch sizes to run.
struct WorkloadSpec {
  std::string model_name;  // "lenet5", "vgg11", "vgg16", "resnet18"
  std::uint64_t seed = 1;  // weight-init seed
  std::vector<std::size_t> batch_sizes = {1};
};

struct ComparisonOptions {
  /// Additionally run DeepCAM with HashTuner-chosen per-layer hash lengths
  /// as backend "deepcam-vhl" (paper §III-A VHL vs fixed 1024-bit).
  bool include_vhl_deepcam = false;
  /// Probe inputs for the tuner.
  std::size_t vhl_probes = 4;
  /// Tuner settings, honored as given. The default mode (kLayerLocal) is
  /// cheap enough for any topology; kEndToEnd costs a model forward per
  /// (layer, hash length, probe) — reasonable on LeNet-scale nets only.
  /// With include_vhl_deepcam, its hash_seed must equal
  /// deepcam_config.hash_seed (the constructor throws otherwise): lengths
  /// tuned on one projection say nothing about another.
  core::TunerConfig tuner = {};
  /// Base config for the VHL variant (layer_hash_bits is overwritten with
  /// the tuner's choice) — keep equal to the registry's "deepcam" config to
  /// make the two rows differ in hash lengths only.
  core::DeepCamConfig deepcam_config = {};
  std::size_t deepcam_threads = 0;
};

struct ComparisonReport {
  /// One row per (workload, batch, backend), in sweep order.
  std::vector<PlatformResult> rows;
  /// When include_vhl_deepcam: the tuner result behind each workload's
  /// "deepcam-vhl" rows (workload sweep order) — what drivers print as the
  /// chosen per-layer hash lengths. Empty otherwise.
  std::vector<core::TuneResult> vhl_tuning;

  /// Rows of one (model, batch) cell sorted by ascending total cycles —
  /// the paper's Table-I-style ranking. Pointers into `rows`.
  std::vector<const PlatformResult*> ranked_by_cycles(
      const std::string& model, std::size_t batch) const;
  /// Same cell ranked by ascending energy; energy-unmodeled backends sort
  /// last.
  std::vector<const PlatformResult*> ranked_by_energy(
      const std::string& model, std::size_t batch) const;
  /// Distinct (model, batch) cells, in first-appearance order.
  std::vector<std::pair<std::string, std::size_t>> cells() const;
};

class ComparisonRunner {
 public:
  /// `registry` must outlive the runner.
  explicit ComparisonRunner(const BackendRegistry& registry,
                            ComparisonOptions opts = {});

  /// Runs every (workload, batch, backend) combination.
  ComparisonReport run(const std::vector<WorkloadSpec>& workloads) const;

 private:
  const BackendRegistry* registry_;
  ComparisonOptions opts_;
};

}  // namespace deepcam::sim
