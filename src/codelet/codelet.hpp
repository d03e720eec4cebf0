// SIMD codelet layer: per-ISA variants of the seven hot kernels behind
// one-time runtime CPU dispatch.
//
// The engine's inner loops spend their time in four primitives — the
// prefix-masked XOR+popcount Hamming reduce (BitVec::hamming_prefix) and its
// row-arena form (DynamicCam::search_flat), the fused SimHash sign kernel
// (RandomProjection::sign_hash_batch, the library's one hashing call), and
// finish_dots, which turns one CAM row's Hamming distances into dot
// products (the post-processing unit: cosine, two norm multiplies, bias
// add). A fifth, the float projection GEMM plus sign-bit packing
// (project_cols, pack_signs), defines the fused kernel: no library call
// runs it, and its scalar form is the tests' per-vector hashing oracle.
// Building a model or a projection matrix spends its time in a sixth: the
// Box–Muller transform behind Rng::fill_gaussian (gaussian_pairs). The exact float forward
// (Conv2D::infer, behind the planner's and the tuner's reference outputs)
// spends its time in a seventh: affine_cols, the same GEMM started at a bias
// and without the zero skip. This layer gives each primitive a
// narrow, hand-written codelet per ISA (scalar / AVX2 / AVX-512),
// poplibs-style: the scalar codelet is the reference semantics and the
// bitwise-equivalence oracle in property tests; the SIMD variants must match
// it bit for bit.
//
// Bitwise contract. Every kernel is bitwise deterministic and ISA-invariant:
//  * Hamming kernels are integer, so equivalence is trivial. For rows of at
//    most four words (k <= 256) the SIMD hamming_many tables run scalar
//    popcnt per word instead of a per-row vector popcount and horizontal
//    sum.
//  * finish_dots computes out[j] = (scale * norms[j]) * cos_table[hd[j]] +
//    bias in double: two multiplies and an add, each rounded once, in that
//    order (the TUs are built with -ffp-contract=off, so no FMA fuses them;
//    the SIMD tables gather the cosine per lane). The cosine depends only
//    on (HD, k), so a layer fills cos_table once, with entry h =
//    hash::approx_dot(1, 1, h, k, use_pwl) — cos(π·h/k) or its PWL form —
//    and every output is bitwise the per-dot
//    approx_dot(scale, norms[j], h, k, use_pwl) + bias.
//    Table bound: cos_table must hold an entry for every hd[j]: h <= k for
//    an ideal sense amp, h <= max(k, tau_unit_bins) for a quantized one,
//    whose reconstructed HD can exceed k (cam::SenseAmp::max_reported).
//    The codelet does not check it.
//  * The projection (project_cols, and the sums behind sign_hash_cols)
//    accumulates each output (p, j) over i in ascending order with UNFUSED
//    multiply-then-add (the codelet translation units are compiled with
//    -ffp-contract=off and without FMA codegen for the accumulation), and
//    leaves the accumulator untouched when xs[p][i] == 0.0f. The SIMD
//    kernels implement that skip as a masked add (the lane keeps its old
//    value when the broadcast input is zero), which is the scalar `continue`
//    lane for lane — even when C holds inf/NaN, where 0·C would be NaN — so
//    AVX2/AVX-512 lanes perform the identical rounding sequence per output
//    and the packed signatures (and goldens) are unchanged by dispatch.
//  * affine_cols is the projection's tile loop with two changes: each
//    accumulator starts at bias[p] instead of 0, and there is NO zero skip —
//    every product is added, xi == 0.0f or not, and no row is left out for
//    having all-zero inputs (so 0·inf gives NaN exactly as a plain
//    `acc += w[i] * x[i]` loop does). Its outputs are bitwise
//    bias[p] + xs[p][0]·c[0][j] + xs[p][1]·c[1][j] + ..., summed left to
//    right with unfused multiply-then-add, on every ISA.
//  * NaN payloads are the one exception, in both GEMMs and in finish_dots:
//    where two NaNs with different payloads (say a NaN bias and the default
//    NaN of 0·inf) meet in an add, x86 keeps the first operand's, and the
//    compiler orders a commutative add as it likes — the scalar codelet's
//    SSE code keeps the product's, the SIMD codelets the accumulator's. The
//    result is a NaN on every ISA; only its sign and payload bits may
//    differ.
//  * Signs use ordered >= 0 compares: +0/-0 pack as 1, NaN as 0, on every
//    ISA. sign_hash_cols is exactly project_cols followed by pack_signs per
//    vector, without materializing the floats; the scalar pair, one vector
//    at a time, is the oracle every hashing test compares against.
//  * gaussian_pairs rounds to float, so it can use a faster double-precision
//    evaluation than glibc's and still be exact (Ziv's rounding test: Ziv,
//    "Fast evaluation of elementary mathematical functions with correctly
//    rounded last bit", ACM TOMS 1991). The scalar codelet is Rng::gaussian's
//    expression, v = 0.0 + stddev·(r·cos θ) (and sin), with
//    r = sqrt(-2·log u1), θ = 2π·u2 and glibc's log/sqrt/sin/cos. The SIMD
//    codelets compute θ the same way, then log, sincos and the products in
//    double with their own polynomials, and form E = |v|·2^-40 + 2^-78 from
//    their value v. Error budget, relative to the exact value
//    T = stddev·sqrt(-2 ln u1)·cos(θ) of the same double θ:
//      - log: u1 = 2^e·m, m in [√½, √2), ln m = 2·atanh(s) with
//        s = (m-1)/(m+1) as nine Taylor terms (|s| <= 0.1716, truncation
//        < 2^-50), plus e·ln2: < 2^-48;
//      - sincos: k = round(θ·2/π) in 0..4, y = θ - k·π/2 with π/2 in four
//        parts (33+33+33+53 bits; k·part exact, remainder < 2^-159), so y
//        keeps < 2^-51 relative error even at the closest double to kπ/2
//        (6.1e-17 away); Taylor to y^15 (sin) and y^16 (cos) on
//        |y| <= π/4: < 2^-50;
//      - sqrt and the two products round once each: < 2^-51 together.
//    So the fast value is within |T|·2^-47 of T, and glibc's (each libm
//    call within a few ulps) within |T|·2^-49: both lie
//    within E/2 = |v|·2^-41 + 2^-79 of T, hence within E of each other.
//    Double -> float rounding is monotone, so when float(v - E) and
//    float(v + E) have identical bit patterns every double in [v-E, v+E]
//    (glibc's value included) rounds to that float. (v ± E round to double
//    once, which narrows the interval by an ulp of v — 2^12 times less than
//    the slack.) Otherwise — a value within E of a float rounding boundary,
//    a zero, an input outside u1 in [2^-1022, 1), u2 in [0, 1), or a
//    non-finite result — the pair is recomputed by the scalar codelet.
//    Measured fallback rate: about 4.5e-5 of pairs (2.2e-5 of values).
//
// Tiling (SIMD variants of project_cols, affine_cols and sign_hash_cols,
// after Goto & van de Geijn, "Anatomy of High-Performance Matrix
// Multiplication", TOMS 2008): C is walked one column panel at a time (64
// columns = one signature word on AVX-512, 32 on AVX2). A register tile of
// several vectors × one panel accumulates over all input_dim rows; the sign
// epilogue turns the tile's >= 0 compare masks straight into signature
// bits. A partial last panel whose live columns fit one SIMD register
// computes only that one (a conv layer with 4 or 16 output pixels runs one
// zmm of four). C no wider than one panel
// (c_stride <= panel width) has its rows adjacent already and is always
// read in place. Otherwise, a strided panel of C rows (input_dim) at least
// kPackMinRows tall does not stay cached between tiles, so when at least
// kPackMinCount vectors read it, it is first copied contiguous (one
// call-lifetime buffer of input_dim × panel floats) and reused by every
// tile: C streams from memory once per call instead of once per tile (AVX2,
// with half as many vectors per tile, packs shorter panels as well). Fewer
// vectors stream a tall panel in place instead, in slabs of rows that all
// panels of a 1024-column group pass over while the slab's pages are cached
// (partial sums wait in a small buffer between slabs); rows are prefetched
// well ahead, and in the projection sums rows whose inputs are all zero
// (padding, ReLU) are not read at all — exact, since such a row leaves every
// accumulator untouched. Shorter panels are read in place as they are
// (single vectors skip all-zero rows there too, affine_cols never does).
// Leftover vectors share one narrower tile.
//
// Dispatch. The table is chosen once, at first use, from CPUID feature bits
// (AVX2 needs avx2+popcnt; AVX-512 needs avx512f+avx512bw+avx512vl). The
// environment variable DEEPCAM_FORCE_ISA = scalar | avx2 | avx512 | native
// overrides the choice for testing/CI; forcing an ISA the host cannot run
// (or that was not compiled in) fails fast. Non-x86 builds compile only the
// scalar codelets and dispatch degenerates to them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace deepcam::codelet {

enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// When the SIMD projection kernels pack a column panel of C contiguous
/// before running their register tiles over it: the panel has at least
/// kPackMinRows rows (input_dim; AVX2 packs shorter ones too) and at least
/// kPackMinCount vectors read it. Measured with C rows 1024 floats apart: a
/// strided panel of fewer rows stays cached, so on AVX-512 packing it only
/// adds a copy; a taller one read from memory is hashed faster in streamed
/// slabs up to about 32 vectors, and packed from there on.
inline constexpr std::size_t kPackMinRows = 384;
inline constexpr std::size_t kPackMinCount = 32;

/// "scalar" / "avx2" / "avx512" — the DEEPCAM_FORCE_ISA vocabulary.
const char* isa_name(Isa isa);

/// One ISA's kernel table. All function pointers are non-null in a table
/// returned by kernels_for()/kernels().
struct Kernels {
  /// Hamming distance over the first `k` bits of two packed word arrays.
  /// Both arrays must hold at least ceil(k/64) words.
  std::size_t (*hamming_prefix)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t k);

  /// Row-blocked dense Hamming reduce over a flat row arena: for each row
  /// r in [0, row_count), out_hd[r] = HD over the first `k` bits of `query`
  /// vs the row at rows + r*row_stride_words. Requires k <= 65535 (uint16
  /// result) and ceil(k/64) <= row_stride_words. This is the
  /// DynamicCam::search_flat / HashTuner inner loop.
  void (*hamming_many)(const std::uint64_t* query, const std::uint64_t* rows,
                       std::size_t row_stride_words, std::size_t row_count,
                       std::size_t k, std::uint16_t* out_hd);

  /// Projection GEMM: out[p*ncols + j] = sum_i xs[p*input_dim + i] *
  /// c[i*c_stride + j] for p < count, j < ncols (ncols <= c_stride), with
  /// ascending-i unfused multiply-add per output and the xi == 0.0f skip.
  /// The float half of sign_hash_cols' definition: no library call runs
  /// it; the scalar form is the tests' hashing oracle (with pack_signs) and
  /// perfbench times it as its projection probe.
  void (*project_cols)(const float* xs, const float* c, std::size_t count,
                       std::size_t input_dim, std::size_t c_stride,
                       std::size_t ncols, float* out);

  /// Affine GEMM: out[p*ncols + j] = bias[p] + sum_i xs[p*input_dim + i] *
  /// c[i*c_stride + j] for p < count, j < ncols (ncols <= c_stride), with
  /// the accumulator starting at bias[p], ascending-i unfused multiply-add
  /// per output, and no zero skip: every product is added. With xs = a
  /// conv's weights [out_channels][patch_len] and c = the transposed im2col
  /// (patch_len × pixels), out is the conv output, image by image.
  void (*affine_cols)(const float* xs, const float* c, const float* bias,
                      std::size_t count, std::size_t input_dim,
                      std::size_t c_stride, std::size_t ncols, float* out);

  /// Fused SimHash: the signs of project_cols' outputs for the first `k`
  /// columns, packed 64 per word — sig_words[p*ceil(k/64) + j/64] bit j%64 =
  /// (out[p*k + j] >= 0.0f) — without materializing the floats. Bitwise
  /// identical to project_cols followed by pack_signs per vector; the
  /// partial last word's high bits are zero.
  void (*sign_hash_cols)(const float* xs, const float* c, std::size_t count,
                         std::size_t input_dim, std::size_t c_stride,
                         std::size_t k, std::uint64_t* sig_words);

  /// Packs `nbits` sign bits (proj[j] >= 0.0f) into words, 64 per word; the
  /// partial last word's high bits are zero. The sign half of
  /// sign_hash_cols' definition, used by the tests' hashing oracle.
  void (*pack_signs)(const float* proj, std::size_t nbits,
                     std::uint64_t* words);

  /// Box–Muller over `pairs` uniform pairs: out[2p] and out[2p + 1] are
  /// static_cast<float>(0.0 + stddev * (r * cos θ)) and the same with sin θ,
  /// r = sqrt(-2·log(u1[p])), θ = 2·π·u2[p] — bitwise Rng::gaussian's
  /// values, glibc's libm included (see the rounding test above). Rng draws
  /// u1 in (1e-300, 1) and u2 in [0, 1); other inputs take the scalar path.
  void (*gaussian_pairs)(const double* u1, const double* u2,
                         std::size_t pairs, double stddev, float* out);

  /// Post-processing of one CAM row: out[j] = (scale * norms[j]) *
  /// cos_table[hd[j]] + bias for j < count, each operation rounded once
  /// (no FMA). Every hd[j] must index cos_table (see the table bound above).
  /// With scale = one context's norm, norms = the other side's norms and
  /// cos_table[h] = hash::approx_dot(1, 1, h, k, use_pwl), out[j] is bitwise
  /// hash::approx_dot(scale, norms[j], hd[j], k, use_pwl) + bias.
  void (*finish_dots)(const std::uint16_t* hd, const double* cos_table,
                      double scale, const double* norms, double bias,
                      std::size_t count, double* out);
};

/// The table compiled in for `isa`, or nullptr when its translation unit was
/// built without that ISA's codegen (non-x86 host, compiler without the
/// flag). Does NOT check whether the running CPU can execute it — pair with
/// isa_supported() before calling through a non-scalar table.
const Kernels* kernels_for(Isa isa);

/// True when `isa` is both compiled in and executable on this CPU.
/// Isa::kScalar is always supported.
bool isa_supported(Isa isa);

/// Highest-ranked supported ISA (what "native" resolves to).
Isa best_supported_isa();

/// The ISA the process-wide dispatch selected (DEEPCAM_FORCE_ISA applied).
Isa active_isa();

/// The dispatched kernel table. Resolved once, on first call; every hot-path
/// wrapper (hamming_prefix_words, RandomProjection, DynamicCam) routes
/// through this.
const Kernels& kernels();

}  // namespace deepcam::codelet
