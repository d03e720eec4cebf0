// Internal linkage between the per-ISA codelet translation units and the
// dispatcher. Each ISA TU exposes exactly one accessor; the AVX variants
// return nullptr when their TU was compiled without the ISA (non-x86 target
// or compiler lacking the flag), so the dispatcher never needs conditional
// compilation against the build system.
#pragma once

#include <cstddef>

#include "codelet/codelet.hpp"

namespace deepcam::codelet::detail {

/// Page-aligned float scratch holding one packed column panel of C. A
/// kernel call maps it once, at its final size (input_dim × panel width),
/// and unmaps it on return: nothing grows across calls and nothing stays
/// resident between them. It bypasses malloc on purpose: freeing a block
/// this large (up to ~1 MiB) raises glibc's dynamic mmap threshold, after
/// which the process's other large temporaries stay on the heap instead of
/// being returned to the system (measured: +15–28 MB peak RSS on VGG11).
class PanelBuffer {
 public:
  explicit PanelBuffer(std::size_t floats);
  ~PanelBuffer();
  PanelBuffer(const PanelBuffer&) = delete;
  PanelBuffer& operator=(const PanelBuffer&) = delete;

  float* data() const { return data_; }

 private:
  std::size_t bytes_;
  float* data_;
};

/// Always present: the reference semantics and test oracle.
const Kernels& scalar_kernels();

/// Compiled with -mavx2 -mpopcnt when available; nullptr otherwise.
const Kernels* avx2_kernels();

/// Compiled with -mavx512f -mavx512bw -mavx512vl -mpopcnt when available;
/// nullptr otherwise.
const Kernels* avx512_kernels();

}  // namespace deepcam::codelet::detail
