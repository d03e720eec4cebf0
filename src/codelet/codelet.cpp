// Runtime CPU dispatch for the codelet layer.
//
// The kernel table is resolved exactly once (thread-safe function-local
// static): pick the highest ISA that is both compiled in and reported by
// CPUID, unless DEEPCAM_FORCE_ISA pins one. Forcing an ISA the host cannot
// execute — or one whose translation unit was not built with the required
// compiler flags — throws deepcam::Error immediately rather than SIGILL-ing
// later in an inner loop.
#include "codelet/codelet.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <new>
#include <string>

#include "codelet/kernels.hpp"
#include "common/error.hpp"

namespace deepcam::codelet {

namespace {

// __builtin_cpu_supports takes only literal feature names, so each probe is
// its own function rather than a parameterized helper.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
bool cpu_has_avx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
}
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("popcnt");
}
#else
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }
#endif

struct Dispatch {
  Isa isa;
  const Kernels* table;
};

Dispatch resolve() {
  const char* forced = std::getenv("DEEPCAM_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    const std::string want(forced);
    if (want != "native") {
      Isa isa;
      if (want == "scalar") {
        isa = Isa::kScalar;
      } else if (want == "avx2") {
        isa = Isa::kAvx2;
      } else if (want == "avx512") {
        isa = Isa::kAvx512;
      } else {
        throw Error("DEEPCAM_FORCE_ISA=\"" + want +
                    "\" — expected scalar, avx2, avx512 or native");
      }
      DEEPCAM_CHECK_MSG(kernels_for(isa) != nullptr,
                        "DEEPCAM_FORCE_ISA=" + want +
                            " codelets were not compiled into this binary");
      DEEPCAM_CHECK_MSG(isa_supported(isa),
                        "DEEPCAM_FORCE_ISA=" + want +
                            " is not executable on this CPU");
      return {isa, kernels_for(isa)};
    }
  }
  const Isa best = best_supported_isa();
  return {best, kernels_for(best)};
}

const Dispatch& dispatch() {
  static const Dispatch d = resolve();
  return d;
}

}  // namespace

namespace detail {

PanelBuffer::PanelBuffer(std::size_t floats)
    : bytes_(floats * sizeof(float)), data_(nullptr) {
  if (bytes_ == 0) return;
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;  // every page is written by the packing pass
#endif
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<float*>(p);
}

PanelBuffer::~PanelBuffer() {
  if (data_ != nullptr) munmap(data_, bytes_);
}

}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const Kernels* kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &detail::scalar_kernels();
    case Isa::kAvx2:
      return detail::avx2_kernels();
    case Isa::kAvx512:
      return detail::avx512_kernels();
  }
  return nullptr;
}

bool isa_supported(Isa isa) {
  if (kernels_for(isa) == nullptr) return false;
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_has_avx2();
    case Isa::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

Isa best_supported_isa() {
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa active_isa() { return dispatch().isa; }

const Kernels& kernels() { return *dispatch().table; }

}  // namespace deepcam::codelet
