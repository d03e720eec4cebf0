// Scalar reference codelets: the semantics every SIMD variant must match
// bit for bit. These are the bodies that lived in common/bitvec.hpp,
// cam/dynamic_cam.cpp and hash/random_projection.cpp before the codelet
// layer — moved, not changed, so pre-codelet goldens stay byte-identical.
//
// gaussian_pair_exact is Rng::gaussian's Box–Muller step with glibc's libm:
// the value every gaussian_pairs codelet must round to.
//
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt): the
// projection GEMM's multiply-then-add per output element is the pinned
// rounding sequence, on every build type and ISA. sign_hash_cols is the same
// tile loop with a sign-packing epilogue, so it is project_cols + pack_signs
// by construction. affine_cols is the same tile loop started at the bias
// and without the zero skip: Conv2D::infer's per-output loop, reordered only
// across outputs. finish_dots is hash::approx_dot's product, with the cosine
// read from the caller's table, plus the bias.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "codelet/kernels.hpp"

namespace deepcam::codelet::detail {

namespace {

/// Branch-free SWAR popcount. This TU is built without -mpopcnt, where
/// std::popcount becomes a libgcc call per word.
inline std::size_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

std::size_t hamming_prefix_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t k) {
  std::size_t d = 0;
  const std::size_t full_words = k >> 6;
  for (std::size_t i = 0; i < full_words; ++i) d += popcount64(a[i] ^ b[i]);
  const std::size_t rem = k & 63;
  if (rem != 0) {
    const std::uint64_t mask = (1ULL << rem) - 1;
    d += popcount64((a[full_words] ^ b[full_words]) & mask);
  }
  return d;
}

void hamming_many_scalar(const std::uint64_t* query, const std::uint64_t* rows,
                         std::size_t row_stride_words, std::size_t row_count,
                         std::size_t k, std::uint16_t* out_hd) {
  const std::uint64_t* row = rows;
  for (std::size_t r = 0; r < row_count; ++r, row += row_stride_words)
    out_hd[r] = static_cast<std::uint16_t>(hamming_prefix_scalar(query, row, k));
}

// Tile sizes of the blocked projection kernel. Up to kPatchBlock vectors
// share each cached slice of a C row; accumulation runs in a local
// 8×64-float tile (2 KiB, hot in L1 and free of aliasing with the operands)
// handed to the caller's epilogue once per tile. The scalar kernels are the
// oracle, so they stay this plain; the SIMD TUs carry the packed-panel
// register tiles.
constexpr std::size_t kPatchBlock = 8;
constexpr std::size_t kColBlock = 64;

/// Runs the projection tile by tile and calls
/// epilogue(p0, pb, j0, jb, acc) with acc[p][j] = output (p0 + p, j0 + j)
/// for p < pb, j < jb. For any fixed output the adds run over i in
/// ascending order — the pinned rounding sequence. Projection sums
/// (bias == nullptr) start at 0 and skip xi == 0.0f; affine sums start at
/// bias[p] and add every product.
template <class Epilogue>
void project_tiles(const float* xs, const float* c, const float* bias,
                   std::size_t count, std::size_t input_dim,
                   std::size_t c_stride, std::size_t ncols,
                   Epilogue&& epilogue) {
  const bool skip_zeros = bias == nullptr;
  for (std::size_t p0 = 0; p0 < count; p0 += kPatchBlock) {
    const std::size_t pb = std::min(kPatchBlock, count - p0);
    for (std::size_t j0 = 0; j0 < ncols; j0 += kColBlock) {
      const std::size_t jb = std::min(kColBlock, ncols - j0);
      float acc[kPatchBlock][kColBlock];
      for (std::size_t p = 0; p < kPatchBlock; ++p)
        std::fill_n(acc[p], kColBlock,
                    skip_zeros || p >= pb ? 0.0f : bias[p0 + p]);
      for (std::size_t i = 0; i < input_dim; ++i) {
        const float* __restrict__ crow = &c[i * c_stride + j0];
        for (std::size_t p = 0; p < pb; ++p) {
          const float xi = xs[(p0 + p) * input_dim + i];
          if (skip_zeros && xi == 0.0f) continue;
          float* __restrict__ a = acc[p];
          for (std::size_t j = 0; j < jb; ++j) a[j] += xi * crow[j];
        }
      }
      epilogue(p0, pb, j0, jb, acc);
    }
  }
}

/// Copies each tile's outputs to out, ncols floats per vector.
auto store_rows(float* out, std::size_t ncols) {
  return [=](std::size_t p0, std::size_t pb, std::size_t j0, std::size_t jb,
             const float (*acc)[kColBlock]) {
    for (std::size_t p = 0; p < pb; ++p)
      std::memcpy(out + (p0 + p) * ncols + j0, acc[p], jb * sizeof(float));
  };
}

void project_cols_scalar(const float* xs, const float* c, std::size_t count,
                         std::size_t input_dim, std::size_t c_stride,
                         std::size_t ncols, float* out) {
  project_tiles(xs, c, nullptr, count, input_dim, c_stride, ncols,
                store_rows(out, ncols));
}

void affine_cols_scalar(const float* xs, const float* c, const float* bias,
                        std::size_t count, std::size_t input_dim,
                        std::size_t c_stride, std::size_t ncols, float* out) {
  project_tiles(xs, c, bias, count, input_dim, c_stride, ncols,
                store_rows(out, ncols));
}

/// Packs `nbits` sign bits (proj[j] >= 0, so +0/-0 both hash to 1 and NaN to
/// 0) into words, 64 bits per word write.
void pack_signs_scalar(const float* proj, std::size_t nbits,
                       std::uint64_t* words) {
  const std::size_t nwords = (nbits + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::size_t lo = w * 64;
    const std::size_t hi = std::min(nbits, lo + 64);
    std::uint64_t bits = 0;
    for (std::size_t j = lo; j < hi; ++j)
      bits |= static_cast<std::uint64_t>(proj[j] >= 0.0f) << (j - lo);
    words[w] = bits;
  }
}

/// project_cols + pack_signs per vector, one 64-column tile (= one signature
/// word) at a time.
void sign_hash_cols_scalar(const float* xs, const float* c, std::size_t count,
                           std::size_t input_dim, std::size_t c_stride,
                           std::size_t k, std::uint64_t* sig_words) {
  const std::size_t wps = (k + 63) / 64;
  project_tiles(xs, c, nullptr, count, input_dim, c_stride, k,
                [&](std::size_t p0, std::size_t pb, std::size_t j0,
                    std::size_t jb, const float (*acc)[kColBlock]) {
                  for (std::size_t p = 0; p < pb; ++p)
                    pack_signs_scalar(acc[p], jb,
                                      sig_words + (p0 + p) * wps + j0 / 64);
                });
}

void gaussian_pairs_scalar(const double* u1, const double* u2,
                           std::size_t pairs, double stddev, float* out) {
  for (std::size_t p = 0; p < pairs; ++p)
    gaussian_pair_exact(u1[p], u2[p], stddev, out + 2 * p);
}

void finish_dots_scalar(const std::uint16_t* hd, const double* cos_table,
                        double scale, const double* norms, double bias,
                        std::size_t count, double* out) {
  for (std::size_t j = 0; j < count; ++j)
    out[j] = (scale * norms[j]) * cos_table[hd[j]] + bias;
}

}  // namespace

void gaussian_pair_exact(double u1, double u2, double stddev, float* out) {
  // Rng::gaussian's expressions, term for term.
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = gauss::kTwoPi * u2;
  const double c = r * std::cos(theta);
  const double s = r * std::sin(theta);
  out[0] = static_cast<float>(0.0 + stddev * c);
  out[1] = static_cast<float>(0.0 + stddev * s);
}

const Kernels& scalar_kernels() {
  static const Kernels k = {hamming_prefix_scalar, hamming_many_scalar,
                            project_cols_scalar,   affine_cols_scalar,
                            sign_hash_cols_scalar, pack_signs_scalar,
                            gaussian_pairs_scalar, finish_dots_scalar};
  return k;
}

}  // namespace deepcam::codelet::detail
