// Clocked self-referenced sense amplifier model (paper Fig. 1c, after
// Ni et al., Nature Electronics 2019).
//
// Physics: during a search, every mismatching cell on a match line (ML)
// sinks a unit current, so the ML discharge time is inversely proportional
// to the Hamming distance h:  t(h) = tau_unit / h  (h >= 1; h = 0 never
// discharges within the sense window). The clocked SA latches the cycle in
// which the ML crosses the sensing threshold, i.e. it is a time-to-digital
// converter (TDC) whose bin width is the sense clock period.
//
// Two operating modes:
//  * kIdeal     — returns the true Hamming distance (the abstraction the
//                 paper's accuracy results assume);
//  * kQuantized — returns the HD reconstructed from the quantized discharge
//                 time, modeling the real TDC resolution limit. Used for
//                 fidelity/failure-injection studies.
#pragma once

#include <algorithm>
#include <cstddef>

namespace deepcam::cam {

enum class SenseMode { kIdeal, kQuantized };

struct SenseAmpConfig {
  SenseMode mode = SenseMode::kIdeal;
  /// Discharge time for HD=1 expressed in sense-clock bins. Also the sense
  /// window length: HD=1 is the slowest discharge that must be captured.
  std::size_t tau_unit_bins = 256;
  /// Sense-clock bins per system clock cycle (sub-cycle TDC resolution).
  std::size_t bins_per_cycle = 8;
};

class SenseAmp {
 public:
  explicit SenseAmp(SenseAmpConfig cfg) : cfg_(cfg) {}

  const SenseAmpConfig& config() const { return cfg_; }

  /// Measured Hamming distance for a row whose true distance is `true_hd`.
  std::size_t measure(std::size_t true_hd) const;

  /// Largest distance measure() can report for a `k`-bit word: k when
  /// ideal; when quantized, the reconstruction saturates at tau_unit_bins,
  /// which can lie above k.
  std::size_t max_reported(std::size_t k) const {
    return cfg_.mode == SenseMode::kIdeal ? k
                                          : std::max(k, cfg_.tau_unit_bins);
  }

  /// Sense window length in system clock cycles (latency of one search's
  /// sensing phase under this configuration).
  std::size_t window_cycles() const {
    return (cfg_.tau_unit_bins + cfg_.bins_per_cycle - 1) / cfg_.bins_per_cycle;
  }

 private:
  SenseAmpConfig cfg_;
};

}  // namespace deepcam::cam
