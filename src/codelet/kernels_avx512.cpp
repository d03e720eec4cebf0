// AVX-512 codelets. This TU is compiled with -mavx512f -mavx512bw -mavx512vl
// -mpopcnt -ffp-contract=off when the toolchain supports it
// (DEEPCAM_CODELET_AVX512 is then defined); otherwise it compiles to a
// nullptr table and dispatch skips the ISA. Runtime dispatch additionally
// requires the CPU to report avx512f+avx512bw+avx512vl — the kernels use
// 512-bit vpshufb/vpsadbw (BW) and fall through 256-bit tiers (VL), not
// vpopcntq, so they run on Skylake-SP-class parts without AVX512VPOPCNTDQ.
//
// Bitwise equivalence follows the same argument as the AVX2 TU: integer
// Hamming math, unfused 16-wide vmulps+vaddps with ascending-i accumulation
// in the projection and affine sums (-ffp-contract=off pins it), the
// projection's xi == 0.0f skip as a zero-masked vaddps (a masked-off lane
// keeps its value, exactly like the scalar `continue`), and _CMP_GE_OQ sign
// compares matching scalar `>= 0.0f`; finish_dots is unfused vmulpd, vmulpd,
// vaddpd per lane over gathered cosines. gaussian_pairs is exact by its
// rounding test instead (see codelet.hpp), so its polynomials may use vfmadd.
#include "codelet/kernels.hpp"

#if defined(DEEPCAM_CODELET_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace deepcam::codelet::detail {

namespace {

/// Per-byte popcount of a 512-bit vector (vpshufb nibble lookup, AVX512BW).
/// The LUT is spelled with _mm512_set_epi8 rather than
/// _mm512_broadcast_i32x4: GCC 12's unmasked broadcast intrinsic expands
/// through the masked builtin with an undefined passthrough operand and
/// trips a -Wmaybe-uninitialized false positive in the system header.
inline __m512i popcount_bytes512(__m512i v) {
  const __m512i lut = _mm512_set_epi8(
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0, 4, 3, 3, 2, 3, 2, 2, 1,
      3, 2, 2, 1, 2, 1, 1, 0, 4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0);
  const __m512i nib = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, nib);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
  return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                         _mm512_shuffle_epi8(lut, hi));
}

/// 256-bit tier for 4-word chunks (the k=256 hot case), same as the AVX2 TU.
inline __m256i popcount_bytes256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::uint64_t hsum_epi64_256(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// Lane sum via a spill: _mm512_reduce_add_epi64 expands through
/// _mm512_extracti64x4_epi64 whose undefined passthrough operand trips the
/// same GCC 12 -Wmaybe-uninitialized header false positive as the broadcast
/// (see popcount_bytes512); this runs once per hamming call, off the hot
/// inner loop.
inline std::uint64_t hsum_epi64_512(__m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(reinterpret_cast<void*>(lanes), v);
  std::uint64_t s = 0;
  for (std::uint64_t l : lanes) s += l;
  return s;
}

std::size_t hamming_prefix_avx512(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t k) {
  const std::size_t full_words = k >> 6;
  std::size_t i = 0;
  std::size_t d = 0;
  if (full_words >= 8) {
    __m512i acc = _mm512_setzero_si512();
    for (; i + 8 <= full_words; i += 8) {
      const __m512i x = _mm512_xor_si512(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)),
          _mm512_loadu_si512(reinterpret_cast<const void*>(b + i)));
      acc = _mm512_add_epi64(
          acc, _mm512_sad_epu8(popcount_bytes512(x), _mm512_setzero_si512()));
    }
    d = static_cast<std::size_t>(hsum_epi64_512(acc));
  }
  if (i + 4 <= full_words) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    d += static_cast<std::size_t>(hsum_epi64_256(
        _mm256_sad_epu8(popcount_bytes256(x), _mm256_setzero_si256())));
    i += 4;
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

void hamming_many_avx512(const std::uint64_t* query, const std::uint64_t* rows,
                         std::size_t row_stride_words, std::size_t row_count,
                         std::size_t k, std::uint16_t* out_hd) {
  if (hamming_many_short(query, rows, row_stride_words, row_count, k, out_hd))
    return;
  const std::uint64_t* row = rows;
  for (std::size_t r = 0; r < row_count; ++r, row += row_stride_words)
    out_hd[r] =
        static_cast<std::uint16_t>(hamming_prefix_avx512(query, row, k));
}

// Register tile: kTileRows vectors × one 64-column panel = 24 zmm
// accumulators + 4 C rows + broadcast and product, inside the 32 registers.
constexpr std::size_t kTileRows = 6;
constexpr std::size_t kPanelCols = 64;

/// The first `width` (1..64) columns of a panel: as one bit per column, as
/// lane masks, 16 per zmm, and as the number of zmm holding any of them.
struct ColMask {
  std::uint64_t bits;
  __mmask16 m[4];
  std::size_t vectors;
  explicit ColMask(std::size_t width)
      : bits(width >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << width) - 1),
        vectors((width + 15) / 16) {
    for (std::size_t t = 0; t < 4; ++t)
      m[t] = static_cast<__mmask16>(bits >> (16 * t));
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
// stride apart alias to the same few L1 sets (12 ways), so a deep L1
// prefetch would evict rows before their use; L2 holds hundreds of them.
constexpr std::size_t kPrefetchRows = 16;
// Streamed panels are read in slabs of kSlabRows rows by kSlabPanels panels
// side by side, so a slab's pages stay in the TLB and L2 while each of its
// panels passes over them.
constexpr std::size_t kSlabRows = 64;
constexpr std::size_t kSlabPanels = 16;

/// True when any of the MR inputs of panel row i is nonzero (or NaN).
template <std::size_t MR>
[[gnu::always_inline]] inline bool row_live(const float* x,
                                            std::size_t input_dim,
                                            std::size_t i) {
  bool live = false;
#pragma GCC unroll 8
  for (std::size_t p = 0; p < MR; ++p) live |= !(x[p * input_dim + i] == 0.0f);
  return live;
}

/// One register tile: acc[p] += x_p · pass rows for the MR vectors from
/// vector p0 on (rows of `xs`, `input_dim` apart). acc starts at zero (the
/// bias when kAffine) on row 0 and from the spill otherwise; it goes back to
/// the spill unless the pass ends on the last row, where
/// epilogue(p0 + p, acc[p]) runs instead. Ascending i, vmulps then vaddps.
/// The projection's vaddps is masked on xi != 0 (unordered: NaN inputs add),
/// which leaves the lane untouched exactly when the scalar kernel skips — so
/// skipping a row whose inputs are all zero changes nothing either. The
/// affine sums add every product and skip no row. Only the first NV zmm of
/// each row are computed; the others stay zero.
template <std::size_t MR, std::size_t NV, bool kMasked, bool kStream,
          bool kAffine, class Epilogue>
[[gnu::always_inline]] inline void run_tile(const float* xs, std::size_t p0,
                                            std::size_t input_dim,
                                            const Pass& pass,
                                            const ColMask& cols,
                                            Epilogue& epilogue) {
  const float* x = xs + p0 * input_dim;
  const auto spilled = [&](std::size_t p, std::size_t t) {
    return pass.spill + (p0 + p) * kPanelCols + 16 * t;
  };
  __m512 acc[MR][4];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < MR; ++p)
#pragma GCC unroll 4
    for (std::size_t t = 0; t < 4; ++t)
      acc[p][t] = t >= NV              ? _mm512_setzero_ps()
                  : pass.row_begin != 0 ? _mm512_loadu_ps(spilled(p, t))
                  : kAffine             ? _mm512_set1_ps(pass.bias[p0 + p])
                                        : _mm512_setzero_ps();
  const __m512 zero = _mm512_setzero_ps();
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
#pragma GCC unroll 4
        for (std::size_t t = 0; t < NV; ++t)
          _mm_prefetch(row + 64 * t, _MM_HINT_T1);
      }
    }
    // A row whose inputs are all zero changes no projection sum. Streamed
    // panels skip it to save the memory read, single vectors because on
    // ReLU activations that is about half their rows.
    if constexpr (!kAffine && (kStream || MR == 1)) {
      if (!row_live<MR>(x, input_dim, i)) continue;
    }
    __m512 cv[NV];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < NV; ++t)
      cv[t] = kMasked ? _mm512_maskz_loadu_ps(cols.m[t], crow + 16 * t)
                      : _mm512_loadu_ps(crow + 16 * t);
#pragma GCC unroll 8
    for (std::size_t p = 0; p < MR; ++p) {
      const __m512 xv = _mm512_set1_ps(x[p * input_dim + i]);
      const __mmask16 live = _mm512_cmp_ps_mask(xv, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 4
      for (std::size_t t = 0; t < NV; ++t) {
        const __m512 prod = _mm512_mul_ps(xv, cv[t]);
        acc[p][t] = kAffine ? _mm512_add_ps(acc[p][t], prod)
                            : _mm512_mask_add_ps(acc[p][t], live, acc[p][t],
                                                 prod);
      }
    }
  }
  if (pass.row_end < input_dim) {
#pragma GCC unroll 8
    for (std::size_t p = 0; p < MR; ++p)
#pragma GCC unroll 4
      for (std::size_t t = 0; t < NV; ++t)
        _mm512_storeu_ps(spilled(p, t), acc[p][t]);
    return;
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < MR; ++p) epilogue(p0 + p, acc[p]);
}

/// Instantiates run_tile for the panel: full, or partial — computing one
/// zmm when its live columns fit one (a conv layer with few output pixels),
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
/// into `panel` at 64 floats per row, zero-padding the rest of each row.
void pack_panel(const float* c, std::size_t input_dim, std::size_t c_stride,
                const ColMask& cols, float* panel) {
  for (std::size_t i = 0; i < input_dim; ++i) {
    const float* src = c + i * c_stride;
    float* dst = panel + i * kPanelCols;
    for (std::size_t t = 0; t < 4; ++t)
      _mm512_store_ps(dst + 16 * t,
                      _mm512_maskz_loadu_ps(cols.m[t], src + 16 * t));
  }
}

/// The one panel loop behind project_cols, affine_cols and sign_hash_cols:
/// for each 64-column panel of the first `ncols` columns, runs every vector
/// through register tiles (kTileRows wide, leftovers in one narrower tile)
/// and calls epilogue(p, j0, cols, acc) with acc = the 4 zmm of output row
/// p from column j0 on, of which `cols` are live. Sums start at bias[p] and
/// add every product when kAffine, at zero with the xi == 0 skip otherwise.
/// Panels of at least kPackMinRows rows are packed contiguous once and
/// shared by all tiles when kPackMinCount or more vectors read them, and
/// streamed in slabs otherwise — unless C is at most one panel wide, when
/// its rows are adjacent already and are read in place.
template <bool kAffine, class Epilogue>
void project_panels(const float* xs, const float* c, const float* bias,
                    std::size_t count, std::size_t input_dim,
                    std::size_t c_stride, std::size_t ncols,
                    Epilogue&& epilogue) {
  const bool tall = input_dim >= kPackMinRows && c_stride > kPanelCols;
  const bool pack = tall && count >= kPackMinCount;
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
        auto tile_epilogue = [&](std::size_t p, const __m512* acc) {
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
             const __m512* acc) {
    float* o = out + p * ncols + j0;
    for (std::size_t t = 0; t < 4; ++t)
      _mm512_mask_storeu_ps(o + 16 * t, cols.m[t], acc[t]);
  };
}

void project_cols_avx512(const float* xs, const float* c, std::size_t count,
                         std::size_t input_dim, std::size_t c_stride,
                         std::size_t ncols, float* out) {
  project_panels<false>(xs, c, nullptr, count, input_dim, c_stride, ncols,
                        store_rows(out, ncols));
}

void affine_cols_avx512(const float* xs, const float* c, const float* bias,
                        std::size_t count, std::size_t input_dim,
                        std::size_t c_stride, std::size_t ncols, float* out) {
  project_panels<true>(xs, c, bias, count, input_dim, c_stride, ncols,
                       store_rows(out, ncols));
}

void sign_hash_cols_avx512(const float* xs, const float* c, std::size_t count,
                           std::size_t input_dim, std::size_t c_stride,
                           std::size_t k, std::uint64_t* sig_words) {
  const std::size_t wps = (k + 63) / 64;
  const __m512 zero = _mm512_setzero_ps();
  project_panels<false>(xs, c, nullptr, count, input_dim, c_stride, k,
                 [&](std::size_t p, std::size_t j0, const ColMask& cols,
                     const __m512* acc) {
                   std::uint64_t bits = 0;
                   for (std::size_t t = 0; t < 4; ++t)
                     bits |= static_cast<std::uint64_t>(_mm512_cmp_ps_mask(
                                 acc[t], zero, _CMP_GE_OQ))
                             << (16 * t);
                   sig_words[p * wps + j0 / 64] = bits & cols.bits;
                 });
}

void pack_signs_avx512(const float* proj, std::size_t nbits,
                       std::uint64_t* words) {
  const __m512 zero = _mm512_setzero_ps();
  const std::size_t full_words = nbits >> 6;
  for (std::size_t w = 0; w < full_words; ++w) {
    const float* p = proj + w * 64;
    std::uint64_t bits = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      const __mmask16 m =
          _mm512_cmp_ps_mask(_mm512_loadu_ps(p + t * 16), zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(m) << (t * 16);
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

// GCC 12 expands the unmasked getexp/getmant/sqrt/roundscale/cvtpd
// intrinsics through masked builtins with an undefined passthrough and trips
// the -Wmaybe-uninitialized header false positive (see popcount_bytes512),
// so the code below spells them as their all-lanes masked forms.
constexpr __mmask8 kAllLanes = 0xFF;

/// Horner evaluation of Σ_n coef[n] · z^n, fused steps (one rounding each,
/// which only tightens the error budget; measured 20% faster than unfused).
template <int N>
inline __m512d horner8(const double (&coef)[N], __m512d z) {
  __m512d p = _mm512_set1_pd(coef[N - 1]);
#pragma GCC unroll 16
  for (int n = N - 2; n >= 0; --n)
    p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(coef[n]));
  return p;
}

/// ln u for u in [2^-1022, 1): u = 2^e · m with m in [√½, √2), then
/// ln m = 2·atanh((m - 1) / (m + 1)).
inline __m512d log8(__m512d u) {
  __m512d e = _mm512_mask_getexp_pd(u, kAllLanes, u);
  __m512d m = _mm512_mask_getmant_pd(u, kAllLanes, u, _MM_MANT_NORM_1_2,
                                     _MM_MANT_SIGN_src);
  const __mmask8 high =
      _mm512_cmp_pd_mask(m, _mm512_set1_pd(gauss::kSqrt2), _CMP_GE_OQ);
  m = _mm512_mask_mul_pd(m, high, m, _mm512_set1_pd(0.5));
  e = _mm512_mask_add_pd(e, high, e, _mm512_set1_pd(1.0));
  const __m512d f = _mm512_sub_pd(m, _mm512_set1_pd(1.0));  // exact
  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
  const __m512d ln_m = _mm512_mul_pd(
      _mm512_add_pd(s, s), horner8(gauss::kAtanh, _mm512_mul_pd(s, s)));
  return _mm512_add_pd(_mm512_mul_pd(e, _mm512_set1_pd(gauss::kLn2)), ln_m);
}

struct CosSin8 {
  __m512d cos;
  __m512d sin;
};

/// cos θ and sin θ for θ in [0, 2π): quadrant k = round(θ·2/π), y = θ - k·π/2
/// against the four-part π/2, polynomials on |y| <= π/4, then a swap for odd
/// k and sign flips for k mod 4 in {1, 2} (cos) and {2, 3} (sin).
inline CosSin8 sincos8(__m512d theta) {
  const __m512d scaled =
      _mm512_mul_pd(theta, _mm512_set1_pd(gauss::kTwoOverPi));
  const __m512d k =
      _mm512_mask_roundscale_pd(scaled, kAllLanes, scaled,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d y = theta;
#pragma GCC unroll 4
  for (double part : gauss::kPio2)
    y = _mm512_sub_pd(y, _mm512_mul_pd(k, _mm512_set1_pd(part)));
  const __m512d z = _mm512_mul_pd(y, y);
  const __m512d sin_y = _mm512_add_pd(
      y, _mm512_mul_pd(_mm512_mul_pd(y, z), horner8(gauss::kSin, z)));
  const __m512d cos_y = horner8(gauss::kCos, z);
  const __m256i q = _mm512_mask_cvtpd_epi32(_mm256_setzero_si256(), kAllLanes,
                                            k);  // exact: k is 0..4
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __mmask8 swap = _mm256_test_epi32_mask(q, one);
  const __mmask8 cos_neg =
      _mm256_test_epi32_mask(_mm256_add_epi32(q, one), two);
  const __mmask8 sin_neg = _mm256_test_epi32_mask(q, two);
  const __m512i sign = _mm512_set1_epi64(INT64_MIN);
  const __m512i c =
      _mm512_castpd_si512(_mm512_mask_blend_pd(swap, cos_y, sin_y));
  const __m512i s =
      _mm512_castpd_si512(_mm512_mask_blend_pd(swap, sin_y, cos_y));
  return {_mm512_castsi512_pd(_mm512_mask_xor_epi64(c, cos_neg, c, sign)),
          _mm512_castsi512_pd(_mm512_mask_xor_epi64(s, sin_neg, s, sign))};
}

struct Rounded8 {
  __m256 value;  ///< float(v - E)
  __mmask8 ok;   ///< lanes where float(v + E) has the same bits
};

/// The rounding test: where float(v - E) and float(v + E) share one bit
/// pattern, that is the float of every double within E of v.
inline Rounded8 round_test8(__m512d v) {
  const __m512d e = _mm512_add_pd(
      _mm512_mul_pd(_mm512_abs_pd(v), _mm512_set1_pd(gauss::kRelErr)),
      _mm512_set1_pd(gauss::kAbsErr));
  const __m256 lo = _mm512_mask_cvtpd_ps(_mm256_setzero_ps(), kAllLanes,
                                         _mm512_sub_pd(v, e));
  const __m256 hi = _mm512_mask_cvtpd_ps(_mm256_setzero_ps(), kAllLanes,
                                         _mm512_add_pd(v, e));
  return {lo, _mm256_cmpeq_epi32_mask(_mm256_castps_si256(lo),
                                      _mm256_castps_si256(hi))};
}

void gaussian_pairs_avx512(const double* u1, const double* u2,
                           std::size_t pairs, double stddev, float* out) {
  const __m512d sd = _mm512_set1_pd(stddev);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d min_normal = _mm512_set1_pd(0x1p-1022);
  std::size_t p = 0;
  for (; p + 8 <= pairs; p += 8) {
    const __m512d a = _mm512_loadu_pd(u1 + p);
    const __m512d b = _mm512_loadu_pd(u2 + p);
    const __mmask8 in_domain = _mm512_cmp_pd_mask(a, min_normal, _CMP_GE_OQ) &
                               _mm512_cmp_pd_mask(a, one, _CMP_LT_OQ) &
                               _mm512_cmp_pd_mask(b, zero, _CMP_GE_OQ) &
                               _mm512_cmp_pd_mask(b, one, _CMP_LT_OQ);
    const __m512d t = _mm512_mul_pd(_mm512_set1_pd(-2.0), log8(a));
    const __m512d r = _mm512_mask_sqrt_pd(t, kAllLanes, t);
    const CosSin8 cs =
        sincos8(_mm512_mul_pd(_mm512_set1_pd(gauss::kTwoPi), b));
    const Rounded8 c = round_test8(_mm512_mul_pd(sd, _mm512_mul_pd(r, cs.cos)));
    const Rounded8 s = round_test8(_mm512_mul_pd(sd, _mm512_mul_pd(r, cs.sin)));
    // c0 s0 c1 s1 c4 s4 c5 s5 and c2 s2 c3 s3 c6 s6 c7 s7, then in order.
    const __m256 lo = _mm256_unpacklo_ps(c.value, s.value);
    const __m256 hi = _mm256_unpackhi_ps(c.value, s.value);
    _mm256_storeu_ps(out + 2 * p, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(out + 2 * p + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
    const unsigned ok = in_domain & c.ok & s.ok;
    for (unsigned redo = ~ok & 0xFFu; redo != 0; redo &= redo - 1) {
      const std::size_t q =
          p + static_cast<std::size_t>(std::countr_zero(redo));
      gaussian_pair_exact(u1[q], u2[q], stddev, out + 2 * q);
    }
  }
  for (; p < pairs; ++p)
    gaussian_pair_exact(u1[p], u2[p], stddev, out + 2 * p);
}

/// Eight outputs per step, the last step masked: the HDs widen to 32-bit
/// gather indices, vgatherdpd reads their cosines, then vmulpd, vmulpd,
/// vaddpd in the scalar order (unfused: -ffp-contract=off).
void finish_dots_avx512(const std::uint16_t* hd, const double* cos_table,
                        double scale, const double* norms, double bias,
                        std::size_t count, double* out) {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vbias = _mm512_set1_pd(bias);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256i h = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hd + j)));
    const __m512d c =
        _mm512_mask_i32gather_pd(zero, static_cast<__mmask8>(0xFF), h,
                                 cos_table, 8);
    const __m512d scaled =
        _mm512_mul_pd(vscale, _mm512_loadu_pd(norms + j));
    _mm512_storeu_pd(out + j,
                     _mm512_add_pd(_mm512_mul_pd(scaled, c), vbias));
  }
  if (j < count) {
    const __mmask8 m = static_cast<__mmask8>((1u << (count - j)) - 1);
    const __m256i h = _mm256_cvtepu16_epi32(_mm_maskz_loadu_epi16(m, hd + j));
    const __m512d c = _mm512_mask_i32gather_pd(zero, m, h, cos_table, 8);
    const __m512d scaled =
        _mm512_mul_pd(vscale, _mm512_maskz_loadu_pd(m, norms + j));
    _mm512_mask_storeu_pd(out + j, m,
                          _mm512_add_pd(_mm512_mul_pd(scaled, c), vbias));
  }
}

}  // namespace

const Kernels* avx512_kernels() {
  static const Kernels k = {hamming_prefix_avx512, hamming_many_avx512,
                            project_cols_avx512,   affine_cols_avx512,
                            sign_hash_cols_avx512, pack_signs_avx512,
                            gaussian_pairs_avx512, finish_dots_avx512};
  return &k;
}

}  // namespace deepcam::codelet::detail

#else  // !DEEPCAM_CODELET_AVX512

namespace deepcam::codelet::detail {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace deepcam::codelet::detail

#endif
