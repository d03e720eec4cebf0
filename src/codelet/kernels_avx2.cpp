// AVX2 codelets. This TU is compiled with -mavx2 -mpopcnt -ffp-contract=off
// when the toolchain supports it (DEEPCAM_CODELET_AVX2 is then defined); on
// other targets it compiles to a nullptr table and dispatch skips the ISA.
//
// Bitwise equivalence with the scalar reference:
//  * Hamming: XOR+popcount is integer math; the vector path uses the
//    vpshufb nibble-LUT byte popcount (Mula) + vpsadbw reduction.
//  * project_cols / affine_cols / sign_hash_cols: columns are vectorized
//    8-wide but every output (p, j) still accumulates over i in ascending
//    order with separate vmulps + vaddps (this TU has no FMA contraction:
//    -ffp-contract=off and the accumulation never uses fmadd intrinsics),
//    from the same start value (0, or affine_cols' bias), and the
//    projection's xi == 0.0f skip leaves the accumulator per (p, i) exactly
//    as the scalar kernel does (see run_tile). A vector lane performs the same IEEE operation
//    sequence as the scalar loop, so results — including ±0, denormal, inf
//    and NaN cases — are bit-identical.
//  * pack_signs: vcmpps with _CMP_GE_OQ matches scalar `>= 0.0f` (+0/-0
//    pack as 1, NaN as 0); vmovmskps harvests 8 sign bits at a time.
//  * finish_dots: vmulpd, vmulpd, vaddpd per lane in the scalar order
//    (no FMA here either), with the cosine gathered from the same table.
//  * gaussian_pairs: a double-precision Box–Muller whose floats are proven
//    equal to the scalar codelet's by a rounding test, lane by lane; lanes
//    the test cannot decide are recomputed by the scalar codelet (see
//    codelet.hpp).
#include "codelet/kernels.hpp"

#if defined(DEEPCAM_CODELET_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <vector>

namespace deepcam::codelet::detail {

namespace {

/// Per-byte popcount of a 256-bit vector (vpshufb nibble lookup).
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

std::size_t hamming_prefix_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t k) {
  const std::size_t full_words = k >> 6;
  std::size_t i = 0;
  std::size_t d = 0;
  if (full_words >= 4) {
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= full_words; i += 4) {
      const __m256i x = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(popcount_bytes(x), _mm256_setzero_si256()));
    }
    d = static_cast<std::size_t>(hsum_epi64(acc));
  }
  for (; i < full_words; ++i)
    d += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  const std::size_t rem = k & 63;
  if (rem != 0) {
    const std::uint64_t mask = (1ULL << rem) - 1;
    d += static_cast<std::size_t>(
        std::popcount((a[full_words] ^ b[full_words]) & mask));
  }
  return d;
}

void hamming_many_avx2(const std::uint64_t* query, const std::uint64_t* rows,
                       std::size_t row_stride_words, std::size_t row_count,
                       std::size_t k, std::uint16_t* out_hd) {
  if (hamming_many_short(query, rows, row_stride_words, row_count, k, out_hd))
    return;
  const std::uint64_t* row = rows;
  for (std::size_t r = 0; r < row_count; ++r, row += row_stride_words)
    out_hd[r] = static_cast<std::uint16_t>(hamming_prefix_avx2(query, row, k));
}

// Register tile: kTileRows vectors × one 32-column panel = 12 ymm
// accumulators, with C rows, the broadcast, its mask and the product in the
// remaining 4 of the 16 registers (C rows may come straight from memory).
// Two panels fill one 64-bit signature word.
constexpr std::size_t kTileRows = 3;
constexpr std::size_t kPanelCols = 32;

/// The first `width` (1..32) columns of a panel: as one bit per column, as
/// lane masks, 8 per ymm, in the all-ones-lane form vmaskmovps takes, and
/// as the number of ymm holding any of them.
struct ColMask {
  std::uint64_t bits;
  __m256i m[4];
  std::size_t vectors;
  explicit ColMask(std::size_t width)
      : bits((std::uint64_t{1} << width) - 1), vectors((width + 7) / 8) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (std::size_t t = 0; t < 4; ++t)
      m[t] = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(width) - static_cast<int>(8 * t)),
          lane);
  }
};

/// One pass of register tiles over a column panel: panel rows
/// [row_begin, row_end), `stride` floats apart from row 0 at `base`.
/// `masked` marks a partial panel: only its live columns are loaded (zero
/// elsewhere; no read past them). `stream` marks a strided panel too tall to
/// stay cached: its rows come from memory, so rows whose inputs are all zero
/// are skipped outright and live rows are prefetched well ahead. A pass that
/// covers only some rows keeps each vector's partial sums in `spill`
/// (kPanelCols floats per vector) between passes. `bias` is affine_cols'
/// (one start value per vector), nullptr for the projection sums.
struct Pass {
  const float* base;
  std::size_t stride;
  std::size_t row_begin;
  std::size_t row_end;
  float* spill;
  const float* bias;
  bool masked;
  bool stream;
};

// Prefetch distance of a streamed panel, into L2: rows of C a power-of-two
// stride apart alias to the same few L1 sets, so a deep L1 prefetch would
// evict rows before their use; L2 holds hundreds of them.
constexpr std::size_t kPrefetchRows = 16;
// Streamed panels are read in slabs of kSlabRows rows by kSlabPanels panels
// side by side, so a slab's pages stay in the TLB and L2 while each of its
// panels passes over them.
constexpr std::size_t kSlabRows = 64;
constexpr std::size_t kSlabPanels = 32;

/// True when any of the MR inputs of panel row i is nonzero (or NaN).
template <std::size_t MR>
[[gnu::always_inline]] inline bool row_live(const float* x,
                                            std::size_t input_dim,
                                            std::size_t i) {
  bool live = false;
#pragma GCC unroll 4
  for (std::size_t p = 0; p < MR; ++p) live |= !(x[p * input_dim + i] == 0.0f);
  return live;
}

/// One register tile: acc[p] += x_p · pass rows for the MR vectors from
/// vector p0 on (rows of `xs`, `input_dim` apart). acc starts at zero (the
/// bias when kAffine) on row 0 and from the spill otherwise; it goes back to
/// the spill unless the pass ends on the last row, where
/// epilogue(p0 + p, acc[p]) runs instead. Ascending i, vmulps then vaddps.
/// The affine sums add every product and skip no row. In the projection
/// sums, where xi == 0 the product is ANDed to +0.0 before the add (one
/// uop, where a blend costs two on Intel cores), and acc + (+0.0) == acc
/// bit for bit: an accumulator that starts at +0 never becomes -0 under
/// round-to-nearest, and inf/NaN/denormal sums pass through unchanged (the
/// default MXCSR: no denormals-are-zero). So the lane is untouched exactly
/// when the scalar kernel skips, even where 0·C is NaN — and skipping a row
/// whose inputs are all zero changes nothing either. Only the first NV ymm
/// of each row are computed; the others stay zero.
template <std::size_t MR, std::size_t NV, bool kMasked, bool kStream,
          bool kAffine, class Epilogue>
[[gnu::always_inline]] inline void run_tile(const float* xs, std::size_t p0,
                                            std::size_t input_dim,
                                            const Pass& pass,
                                            const ColMask& cols,
                                            Epilogue& epilogue) {
  const float* x = xs + p0 * input_dim;
  const auto spilled = [&](std::size_t p, std::size_t t) {
    return pass.spill + (p0 + p) * kPanelCols + 8 * t;
  };
  __m256 acc[MR][4];
#pragma GCC unroll 4
  for (std::size_t p = 0; p < MR; ++p)
#pragma GCC unroll 4
    for (std::size_t t = 0; t < 4; ++t)
      acc[p][t] = t >= NV              ? _mm256_setzero_ps()
                  : pass.row_begin != 0 ? _mm256_loadu_ps(spilled(p, t))
                  : kAffine             ? _mm256_set1_ps(pass.bias[p0 + p])
                                        : _mm256_setzero_ps();
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t i = pass.row_begin; i < pass.row_end; ++i) {
    const float* crow = pass.base + i * pass.stride;
    if constexpr (kStream) {
      // A single vector has too little work per row to hide the prefetch
      // (measured slower when C sits in L3, no faster from memory).
      const std::size_t ahead = i + kPrefetchRows;
      if (MR > 1 && ahead < input_dim &&
          (kAffine || row_live<MR>(x, input_dim, ahead))) {
        const char* row = reinterpret_cast<const char*>(
            pass.base + ahead * pass.stride);
        _mm_prefetch(row, _MM_HINT_T1);
        if (NV > 2) _mm_prefetch(row + 64, _MM_HINT_T1);
      }
    }
    // A row whose inputs are all zero changes no projection sum. Streamed
    // panels skip it to save the memory read, single vectors because on
    // ReLU activations that is about half their rows.
    if constexpr (!kAffine && (kStream || MR == 1)) {
      if (!row_live<MR>(x, input_dim, i)) continue;
    }
    __m256 cv[NV];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < NV; ++t)
      cv[t] = kMasked ? _mm256_maskload_ps(crow + 8 * t, cols.m[t])
                      : _mm256_loadu_ps(crow + 8 * t);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < MR; ++p) {
      const __m256 xv = _mm256_set1_ps(x[p * input_dim + i]);
      const __m256 live = _mm256_cmp_ps(xv, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 4
      for (std::size_t t = 0; t < NV; ++t) {
        const __m256 prod = _mm256_mul_ps(xv, cv[t]);
        acc[p][t] = kAffine ? _mm256_add_ps(acc[p][t], prod)
                            : _mm256_add_ps(acc[p][t],
                                            _mm256_and_ps(prod, live));
      }
    }
  }
  if (pass.row_end < input_dim) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < MR; ++p)
#pragma GCC unroll 4
      for (std::size_t t = 0; t < NV; ++t)
        _mm256_storeu_ps(spilled(p, t), acc[p][t]);
    return;
  }
#pragma GCC unroll 4
  for (std::size_t p = 0; p < MR; ++p) epilogue(p0 + p, acc[p]);
}

/// Instantiates run_tile for the panel: full, or partial — computing one
/// ymm when its live columns fit one (a conv layer with few output pixels),
/// all four otherwise. Out of line, so the tiles of all widths are never
/// inlined into one function (GCC then spills the accumulators: measured
/// 13–35% slower).
template <std::size_t MR, bool kStream, bool kAffine, class Epilogue>
[[gnu::noinline]] void run_tile_panel(const float* xs, std::size_t p0,
                                      std::size_t input_dim, const Pass& pass,
                                      const ColMask& cols,
                                      Epilogue& epilogue) {
  if (!pass.masked)
    run_tile<MR, 4, false, kStream, kAffine>(xs, p0, input_dim, pass, cols,
                                             epilogue);
  else if (cols.vectors == 1)
    run_tile<MR, 1, true, kStream, kAffine>(xs, p0, input_dim, pass, cols,
                                            epilogue);
  else
    run_tile<MR, 4, true, kStream, kAffine>(xs, p0, input_dim, pass, cols,
                                            epilogue);
}

template <std::size_t MR, bool kAffine, class Epilogue>
void run_tile_rows(const float* xs, std::size_t p0, std::size_t input_dim,
                   const Pass& pass, const ColMask& cols,
                   Epilogue& epilogue) {
  pass.stream ? run_tile_panel<MR, true, kAffine>(xs, p0, input_dim, pass,
                                                  cols, epilogue)
              : run_tile_panel<MR, false, kAffine>(xs, p0, input_dim, pass,
                                                   cols, epilogue);
}

/// Runs the vectors from p0 on (fewer than MR + 1 of them) as one tile.
template <std::size_t MR, bool kAffine, class Epilogue>
void run_leftover(const float* xs, std::size_t p0, std::size_t count,
                  std::size_t input_dim, const Pass& pass,
                  const ColMask& cols, Epilogue& epilogue) {
  if constexpr (MR > 0) {
    if (count - p0 == MR)
      run_tile_rows<MR, kAffine>(xs, p0, input_dim, pass, cols, epilogue);
    else
      run_leftover<MR - 1, kAffine>(xs, p0, count, input_dim, pass, cols,
                                    epilogue);
  }
}

/// Copies the first `width` columns of a C panel (rows `c_stride` apart)
/// into `panel` at 32 floats per row, zero-padding the rest of each row.
void pack_panel(const float* c, std::size_t input_dim, std::size_t c_stride,
                const ColMask& cols, float* panel) {
  for (std::size_t i = 0; i < input_dim; ++i) {
    const float* src = c + i * c_stride;
    float* dst = panel + i * kPanelCols;
    for (std::size_t t = 0; t < 4; ++t)
      _mm256_store_ps(dst + 8 * t, _mm256_maskload_ps(src + 8 * t, cols.m[t]));
  }
}

/// The one panel loop behind project_cols, affine_cols and sign_hash_cols:
/// for each 32-column panel of the first `ncols` columns, runs every vector
/// through register tiles (kTileRows wide, leftovers in one narrower tile)
/// and calls epilogue(p, j0, cols, acc) with acc = the 4 ymm of output row
/// p from column j0 on, of which `cols` are live. Sums start at bias[p] and
/// add every product when kAffine, at zero with the xi == 0 skip otherwise.
/// Panels are packed contiguous once and shared by all tiles when
/// kPackMinCount or more vectors read them; for fewer, panels of at least
/// kPackMinRows rows are streamed in slabs and shorter ones read in place.
/// C at most one panel wide has adjacent rows already and is read in place.
template <bool kAffine, class Epilogue>
void project_panels(const float* xs, const float* c, const float* bias,
                    std::size_t count, std::size_t input_dim,
                    std::size_t c_stride, std::size_t ncols,
                    Epilogue&& epilogue) {
  // Unlike AVX-512, short panels are packed too: a 3-vector tile reads a
  // strided panel from L2 twice as often per MAC as a 6-vector one, and a
  // packed panel of up to kPackMinRows rows stays in L1 (measured: ~20%
  // faster on LeNet's conv2 shape, 150 rows × 64 vectors).
  const bool strided = c_stride > kPanelCols;
  const bool tall = strided && input_dim >= kPackMinRows;
  const bool pack = strided && count >= kPackMinCount;
  const bool stream = tall && !pack;
  const PanelBuffer buffer(pack ? input_dim * kPanelCols : 0);
  // Streamed means fewer than kPackMinCount vectors, so the spill stays
  // under 128 KiB: below malloc's mmap threshold (see PanelBuffer).
  std::vector<float> spill(stream ? count * kSlabPanels * kPanelCols : 0);
  const std::size_t slab_rows = stream ? kSlabRows : input_dim;
  const std::size_t group_cols = stream ? kSlabPanels * kPanelCols : ncols;
  for (std::size_t g0 = 0; g0 < ncols; g0 += group_cols) {
    const std::size_t g1 = std::min(ncols, g0 + group_cols);
    for (std::size_t r0 = 0; r0 < input_dim; r0 += slab_rows) {
      for (std::size_t j0 = g0; j0 < g1; j0 += kPanelCols) {
        const ColMask cols(std::min(kPanelCols, ncols - j0));
        Pass pass{c + j0,
                  c_stride,
                  r0,
                  std::min(input_dim, r0 + slab_rows),
                  stream ? spill.data() + (j0 - g0) * count : nullptr,
                  bias,
                  ncols - j0 < kPanelCols,
                  stream};
        if (pack) {
          pack_panel(c + j0, input_dim, c_stride, cols, buffer.data());
          pass.base = buffer.data();
          pass.stride = kPanelCols;
        }
        auto tile_epilogue = [&](std::size_t p, const __m256* acc) {
          epilogue(p, j0, cols, acc);
        };
        std::size_t p0 = 0;
        for (; p0 + kTileRows <= count; p0 += kTileRows)
          run_tile_rows<kTileRows, kAffine>(xs, p0, input_dim, pass, cols,
                                            tile_epilogue);
        run_leftover<kTileRows - 1, kAffine>(xs, p0, count, input_dim, pass,
                                             cols, tile_epilogue);
      }
    }
  }
}

/// Epilogue storing each tile row's live columns to out, ncols per vector.
auto store_rows(float* out, std::size_t ncols) {
  return [=](std::size_t p, std::size_t j0, const ColMask& cols,
             const __m256* acc) {
    float* o = out + p * ncols + j0;
    for (std::size_t t = 0; t < 4; ++t)
      _mm256_maskstore_ps(o + 8 * t, cols.m[t], acc[t]);
  };
}

void project_cols_avx2(const float* xs, const float* c, std::size_t count,
                       std::size_t input_dim, std::size_t c_stride,
                       std::size_t ncols, float* out) {
  project_panels<false>(xs, c, nullptr, count, input_dim, c_stride, ncols,
                        store_rows(out, ncols));
}

void affine_cols_avx2(const float* xs, const float* c, const float* bias,
                      std::size_t count, std::size_t input_dim,
                      std::size_t c_stride, std::size_t ncols, float* out) {
  project_panels<true>(xs, c, bias, count, input_dim, c_stride, ncols,
                       store_rows(out, ncols));
}

void sign_hash_cols_avx2(const float* xs, const float* c, std::size_t count,
                         std::size_t input_dim, std::size_t c_stride,
                         std::size_t k, std::uint64_t* sig_words) {
  const std::size_t wps = (k + 63) / 64;
  const __m256 zero = _mm256_setzero_ps();
  project_panels<false>(
      xs, c, nullptr, count, input_dim, c_stride, k,
      [&](std::size_t p, std::size_t j0, const ColMask& cols,
          const __m256* acc) {
        std::uint64_t bits = 0;
        for (std::size_t t = 0; t < 4; ++t)
          bits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                      _mm256_movemask_ps(
                          _mm256_cmp_ps(acc[t], zero, _CMP_GE_OQ))))
                  << (8 * t);
        bits &= cols.bits;
        // Panels run in column order, so the low half of each word is
        // written (clearing the high half) before the high half ORs in.
        std::uint64_t& word = sig_words[p * wps + j0 / 64];
        word = j0 % 64 == 0 ? bits : word | (bits << 32);
      });
}

void pack_signs_avx2(const float* proj, std::size_t nbits,
                     std::uint64_t* words) {
  const __m256 zero = _mm256_setzero_ps();
  const std::size_t full_words = nbits >> 6;
  for (std::size_t w = 0; w < full_words; ++w) {
    const float* p = proj + w * 64;
    std::uint64_t bits = 0;
    for (std::size_t t = 0; t < 8; ++t) {
      const __m256 v = _mm256_loadu_ps(p + t * 8);
      const unsigned m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GE_OQ)));
      bits |= static_cast<std::uint64_t>(m) << (t * 8);
    }
    words[w] = bits;
  }
  const std::size_t rem = nbits & 63;
  if (rem != 0) {
    const float* p = proj + full_words * 64;
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < rem; ++j)
      bits |= static_cast<std::uint64_t>(p[j] >= 0.0f) << j;
    words[full_words] = bits;
  }
}

/// Horner evaluation of Σ_n coef[n] · z^n.
template <int N>
inline __m256d horner4(const double (&coef)[N], __m256d z) {
  __m256d p = _mm256_set1_pd(coef[N - 1]);
#pragma GCC unroll 16
  for (int n = N - 2; n >= 0; --n)
    p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(coef[n]));
  return p;
}

/// ln u for u in [2^-1022, 1): u = 2^e · m with m in [√½, √2), split from
/// the bit pattern, then ln m = 2·atanh((m - 1) / (m + 1)).
inline __m256d log4(__m256d u) {
  const __m256i bits = _mm256_castpd_si256(u);
  // The biased exponent as a double: OR it under 2^52's bit pattern, then
  // subtract 2^52 + 1023.
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(bits, 52),
                          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1p52 + 1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FF0000000000000LL)));
  const __m256d high =
      _mm256_cmp_pd(m, _mm256_set1_pd(gauss::kSqrt2), _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), high);
  e = _mm256_add_pd(e, _mm256_and_pd(high, _mm256_set1_pd(1.0)));
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));  // exact
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d ln_m = _mm256_mul_pd(
      _mm256_add_pd(s, s), horner4(gauss::kAtanh, _mm256_mul_pd(s, s)));
  return _mm256_add_pd(_mm256_mul_pd(e, _mm256_set1_pd(gauss::kLn2)), ln_m);
}

struct CosSin4 {
  __m256d cos;
  __m256d sin;
};

/// cos θ and sin θ for θ in [0, 2π): quadrant k = round(θ·2/π), y = θ - k·π/2
/// against the four-part π/2, polynomials on |y| <= π/4, then a swap for odd
/// k and sign flips for k mod 4 in {1, 2} (cos) and {2, 3} (sin), all read
/// off k's integer bits.
inline CosSin4 sincos4(__m256d theta) {
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(theta, _mm256_set1_pd(gauss::kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d y = theta;
#pragma GCC unroll 4
  for (double part : gauss::kPio2)
    y = _mm256_sub_pd(y, _mm256_mul_pd(k, _mm256_set1_pd(part)));
  const __m256d z = _mm256_mul_pd(y, y);
  const __m256d sin_y = _mm256_add_pd(
      y, _mm256_mul_pd(_mm256_mul_pd(y, z), horner4(gauss::kSin, z)));
  const __m256d cos_y = horner4(gauss::kCos, z);
  // k (0..4) in the low mantissa bits of 2^52 + k; a blend reads bit 63.
  const __m256i q =
      _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(0x1p52)));
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, _mm256_set1_epi64x(1)), two), 62));
  const __m256d sin_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(q, two), 62));
  return {_mm256_xor_pd(_mm256_blendv_pd(cos_y, sin_y, swap), cos_sign),
          _mm256_xor_pd(_mm256_blendv_pd(sin_y, cos_y, swap), sin_sign)};
}

struct Rounded4 {
  __m128 value;  ///< float(v - E)
  int ok;        ///< bit l: lane l of float(v + E) has the same bits
};

/// The rounding test: where float(v - E) and float(v + E) share one bit
/// pattern, that is the float of every double within E of v.
inline Rounded4 round_test4(__m256d v) {
  const __m256d e = _mm256_add_pd(
      _mm256_mul_pd(_mm256_andnot_pd(_mm256_set1_pd(-0.0), v),
                    _mm256_set1_pd(gauss::kRelErr)),
      _mm256_set1_pd(gauss::kAbsErr));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(v, e));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(v, e));
  return {lo, _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(
                  _mm_castps_si128(lo), _mm_castps_si128(hi))))};
}

void gaussian_pairs_avx2(const double* u1, const double* u2,
                         std::size_t pairs, double stddev, float* out) {
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d min_normal = _mm256_set1_pd(0x1p-1022);
  std::size_t p = 0;
  for (; p + 4 <= pairs; p += 4) {
    const __m256d a = _mm256_loadu_pd(u1 + p);
    const __m256d b = _mm256_loadu_pd(u2 + p);
    const __m256d in_domain = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(a, min_normal, _CMP_GE_OQ),
                      _mm256_cmp_pd(a, one, _CMP_LT_OQ)),
        _mm256_and_pd(_mm256_cmp_pd(b, zero, _CMP_GE_OQ),
                      _mm256_cmp_pd(b, one, _CMP_LT_OQ)));
    const __m256d r =
        _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log4(a)));
    const CosSin4 cs =
        sincos4(_mm256_mul_pd(_mm256_set1_pd(gauss::kTwoPi), b));
    const Rounded4 c = round_test4(_mm256_mul_pd(sd, _mm256_mul_pd(r, cs.cos)));
    const Rounded4 s = round_test4(_mm256_mul_pd(sd, _mm256_mul_pd(r, cs.sin)));
    _mm_storeu_ps(out + 2 * p, _mm_unpacklo_ps(c.value, s.value));
    _mm_storeu_ps(out + 2 * p + 4, _mm_unpackhi_ps(c.value, s.value));
    const unsigned ok =
        static_cast<unsigned>(_mm256_movemask_pd(in_domain) & c.ok & s.ok);
    for (unsigned redo = ~ok & 0xFu; redo != 0; redo &= redo - 1) {
      const std::size_t q =
          p + static_cast<std::size_t>(std::countr_zero(redo));
      gaussian_pair_exact(u1[q], u2[q], stddev, out + 2 * q);
    }
  }
  for (; p < pairs; ++p)
    gaussian_pair_exact(u1[p], u2[p], stddev, out + 2 * p);
}

/// Four outputs per step: the four HDs widen to 32-bit gather indices,
/// vgatherdpd reads their cosines, then vmulpd, vmulpd, vaddpd in the
/// scalar order. The tail runs the scalar expression. The gather is the
/// masked intrinsic with an all-lanes mask: the unmasked one passes an
/// undefined source that trips GCC 12's -Wmaybe-uninitialized.
void finish_dots_avx2(const std::uint16_t* hd, const double* cos_table,
                      double scale, const double* norms, double bias,
                      std::size_t count, double* out) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vbias = _mm256_set1_pd(bias);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m128i h = _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(hd + j)));
    const __m256d c = _mm256_mask_i32gather_pd(zero, cos_table, h, all, 8);
    const __m256d scaled =
        _mm256_mul_pd(vscale, _mm256_loadu_pd(norms + j));
    _mm256_storeu_pd(out + j,
                     _mm256_add_pd(_mm256_mul_pd(scaled, c), vbias));
  }
  for (; j < count; ++j)
    out[j] = (scale * norms[j]) * cos_table[hd[j]] + bias;
}

}  // namespace

const Kernels* avx2_kernels() {
  static const Kernels k = {hamming_prefix_avx2,  hamming_many_avx2,
                            project_cols_avx2,    affine_cols_avx2,
                            sign_hash_cols_avx2,  pack_signs_avx2,
                            gaussian_pairs_avx2,  finish_dots_avx2};
  return &k;
}

}  // namespace deepcam::codelet::detail

#else  // !DEEPCAM_CODELET_AVX2

namespace deepcam::codelet::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace deepcam::codelet::detail

#endif
