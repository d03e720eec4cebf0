// Internal linkage between the per-ISA codelet translation units and the
// dispatcher. Each ISA TU exposes exactly one accessor; the AVX variants
// return nullptr when their TU was compiled without the ISA (non-x86 target
// or compiler lacking the flag), so the dispatcher never needs conditional
// compilation against the build system.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

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

/// One Box–Muller pair exactly as Rng::gaussian computes it (glibc libm):
/// out[0] from cos θ, out[1] from sin θ. The scalar gaussian_pairs codelet,
/// and the fallback of the SIMD ones when their rounding test cannot decide.
void gaussian_pair_exact(double u1, double u2, double stddev, float* out);

/// Constants shared by the SIMD gaussian_pairs codelets; codelet.hpp has the
/// error budget they meet.
namespace gauss {

/// Rng::gaussian's angle scale: θ = kTwoPi · u2 rounds exactly as there.
inline constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
inline constexpr double kTwoOverPi = 0.63661977236758134308;
inline constexpr double kSqrt2 = 1.41421356237309504880;
inline constexpr double kLn2 = 0.69314718055994530942;
/// π/2 in four parts (fdlibm's pio2_1, pio2_2, pio2_3, pio2_3t): the first
/// three hold 33 bits each, so k · part is exact for k <= 4, and the sum is
/// π/2 to within 2^-159.
inline constexpr double kPio2[4] = {0x1.921fb544p+0, 0x1.0b4611a6p-34,
                                    0x1.3198a2ep-69,
                                    8.47842766036889956997e-32};

constexpr double factorial(int n) {
  double f = 1.0;  // exact: every n! used here is below 2^53
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

/// ln m = 2s · Σ_j kAtanh[j] · s^(2j), s = (m - 1) / (m + 1): the atanh
/// Taylor series, |s| <= 0.1716 for m in [√½, √2).
inline constexpr double kAtanh[] = {
    1.0, 1.0 / 3, 1.0 / 5, 1.0 / 7, 1.0 / 9, 1.0 / 11, 1.0 / 13, 1.0 / 15,
    1.0 / 17};

/// sin y = y + y·z · Σ_n kSin[n] · z^n and cos y = Σ_n kCos[n] · z^n,
/// z = y², |y| <= π/4: Taylor series through y^15 and y^16.
inline constexpr double kSin[] = {
    -1.0 / factorial(3),  1.0 / factorial(5),  -1.0 / factorial(7),
    1.0 / factorial(9),   -1.0 / factorial(11), 1.0 / factorial(13),
    -1.0 / factorial(15)};
inline constexpr double kCos[] = {
    1.0,                  -1.0 / factorial(2),  1.0 / factorial(4),
    -1.0 / factorial(6),  1.0 / factorial(8),   -1.0 / factorial(10),
    1.0 / factorial(12),  -1.0 / factorial(14), 1.0 / factorial(16)};

/// Half-width factors of the rounding test: E = |v| · kRelErr + kAbsErr.
inline constexpr double kRelErr = 0x1p-40;
inline constexpr double kAbsErr = 0x1p-78;

}  // namespace gauss

// Helpers each SIMD TU compiles with its own codegen flags. The anonymous
// namespace gives every TU a private copy: a shared inline instantiation
// could be merged by the linker into the AVX-512 TU's copy and then fault
// when the AVX2 table runs on a CPU without AVX-512.
namespace {

/// hamming_many over rows of W words (W = ceil(k/64)): scalar popcnt per
/// word of query XOR row, the last word masked to k's remainder. For short
/// rows this beats a per-row vector popcount, whose horizontal sum costs
/// more than the popcount itself.
template <std::size_t W>
void hamming_many_words(const std::uint64_t* query, const std::uint64_t* rows,
                        std::size_t row_stride_words, std::size_t row_count,
                        std::size_t k, std::uint16_t* out_hd) {
  std::uint64_t q[W];
  for (std::size_t i = 0; i < W; ++i) q[i] = query[i];
  const std::size_t rem = k & 63;
  const std::uint64_t last = rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  const std::uint64_t* row = rows;
  for (std::size_t r = 0; r < row_count; ++r, row += row_stride_words) {
    int d = std::popcount((q[W - 1] ^ row[W - 1]) & last);
    for (std::size_t i = 0; i + 1 < W; ++i) d += std::popcount(q[i] ^ row[i]);
    out_hd[r] = static_cast<std::uint16_t>(d);
  }
}

/// The short-word path of the SIMD hamming_many tables: runs it and returns
/// true for 1 <= k <= 256 (at most four words per row), else returns false.
inline bool hamming_many_short(const std::uint64_t* query,
                               const std::uint64_t* rows,
                               std::size_t row_stride_words,
                               std::size_t row_count, std::size_t k,
                               std::uint16_t* out_hd) {
  switch ((k + 63) / 64) {
    case 1:
      hamming_many_words<1>(query, rows, row_stride_words, row_count, k,
                            out_hd);
      return true;
    case 2:
      hamming_many_words<2>(query, rows, row_stride_words, row_count, k,
                            out_hd);
      return true;
    case 3:
      hamming_many_words<3>(query, rows, row_stride_words, row_count, k,
                            out_hd);
      return true;
    case 4:
      hamming_many_words<4>(query, rows, row_stride_words, row_count, k,
                            out_hd);
      return true;
    default:
      return false;
  }
}

}  // namespace

/// Always present: the reference semantics and test oracle.
const Kernels& scalar_kernels();

/// Compiled with -mavx2 -mpopcnt when available; nullptr otherwise.
const Kernels* avx2_kernels();

/// Compiled with -mavx512f -mavx512bw -mavx512vl -mpopcnt when available;
/// nullptr otherwise.
const Kernels* avx512_kernels();

}  // namespace deepcam::codelet::detail
