// Property tests for the SIMD codelet layer (src/codelet/).
//
// The scalar codelet is the bitwise oracle: every ISA table that is both
// compiled into this binary and executable on the host CPU must reproduce it
// bit for bit — Hamming counts exactly, projection floats byte-identical
// (unfused mul+add, ascending-i order), sign packing identical including
// NaN / ±0 / denormal edge cases, and the fused sign_hash_cols identical to
// scalar project_cols + pack_signs. Word-boundary hash lengths (63/64/65),
// unaligned row/column/patch counts and counts on both sides of the pack
// threshold (every leftover tile width) are swept explicitly. affine_cols
// must give its defining loop's floats (bias, then every product added in
// ascending order, zeros included) bit for bit on every ISA, and so must
// finish_dots its defining expression's doubles; the short-word
// hamming_many path must give hamming_prefix's counts. gaussian_pairs
// must give the scalar (glibc) floats bit for bit on adversarial uniforms,
// on values next to a float rounding boundary (where the SIMD rounding test
// must hand the pair to the scalar path) and on 50 M random pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "codelet/codelet.hpp"
#include "common/rng.hpp"

namespace {

using deepcam::codelet::Isa;
using deepcam::codelet::Kernels;

/// All ISA tables reachable on this host (compiled in + CPU-supported).
/// Always contains at least kScalar.
std::vector<Isa> reachable_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (deepcam::codelet::kernels_for(isa) != nullptr &&
        deepcam::codelet::isa_supported(isa))
      out.push_back(isa);
  return out;
}

const Kernels& scalar() {
  return *deepcam::codelet::kernels_for(Isa::kScalar);
}

/// Floats that stress rounding / compare edge cases: ±0, denormals, values
/// near the float mantissa boundary, huge magnitudes, and plain randoms.
std::vector<float> edge_floats(std::size_t n, std::mt19937& rng) {
  static const float specials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(),
      1.0f + std::numeric_limits<float>::epsilon(),
      16777215.0f,  // 2^24 - 1: last exactly-representable odd integer
      -16777216.0f,
      3.4e38f,
      -3.4e38f,
  };
  std::uniform_real_distribution<float> uni(-4.0f, 4.0f);
  std::uniform_int_distribution<int> pick(0, 7);
  std::vector<float> v(n);
  for (auto& x : v)
    x = pick(rng) == 0 ? specials[rng() % std::size(specials)] : uni(rng);
  return v;
}

TEST(Codelet, ScalarAlwaysReachable) {
  const auto isas = reachable_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  EXPECT_TRUE(deepcam::codelet::isa_supported(Isa::kScalar));
}

TEST(Codelet, IsaNames) {
  EXPECT_STREQ(deepcam::codelet::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(deepcam::codelet::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(deepcam::codelet::isa_name(Isa::kAvx512), "avx512");
}

TEST(Codelet, ForcedIsaIsActive) {
  // CI runs the whole suite under DEEPCAM_FORCE_ISA=scalar; this assertion
  // is what makes that run meaningful (the forced table really is active).
  const char* forced = std::getenv("DEEPCAM_FORCE_ISA");
  const Isa active = deepcam::codelet::active_isa();
  if (forced == nullptr || forced[0] == '\0' ||
      std::strcmp(forced, "native") == 0) {
    EXPECT_EQ(active, deepcam::codelet::best_supported_isa());
  } else {
    EXPECT_STREQ(deepcam::codelet::isa_name(active), forced);
  }
  EXPECT_EQ(&deepcam::codelet::kernels(),
            deepcam::codelet::kernels_for(active));
}

TEST(Codelet, HammingPrefixEveryLengthMatchesScalar) {
  std::mt19937_64 rng(7);
  constexpr std::size_t kWords = 17;  // covers k up to 1025 with headroom
  std::uint64_t a[kWords], b[kWords];
  for (std::size_t i = 0; i < kWords; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  for (Isa isa : reachable_isas()) {
    const Kernels& k = *deepcam::codelet::kernels_for(isa);
    for (std::size_t bits = 0; bits <= 1025; ++bits)
      ASSERT_EQ(k.hamming_prefix(a, b, bits),
                scalar().hamming_prefix(a, b, bits))
          << deepcam::codelet::isa_name(isa) << " k=" << bits;
  }
}

TEST(Codelet, HammingPrefixExtremes) {
  std::uint64_t zero[17] = {};
  std::uint64_t ones[17];
  std::memset(ones, 0xff, sizeof(ones));
  for (Isa isa : reachable_isas()) {
    const Kernels& k = *deepcam::codelet::kernels_for(isa);
    for (std::size_t bits : {0u, 1u, 63u, 64u, 65u, 511u, 512u, 1024u}) {
      EXPECT_EQ(k.hamming_prefix(zero, ones, bits), bits);
      EXPECT_EQ(k.hamming_prefix(ones, ones, bits), 0u);
      EXPECT_EQ(k.hamming_prefix(zero, zero, bits), 0u);
    }
  }
}

TEST(Codelet, HammingManyStridedArenaMatchesScalar) {
  std::mt19937_64 rng(11);
  constexpr std::size_t kStride = 19;  // words; > 16 so k=1024 rows fit
  for (std::size_t rows : {0u, 1u, 2u, 7u, 33u}) {
    std::vector<std::uint64_t> arena(rows * kStride + 1);
    for (auto& w : arena) w = rng();
    std::uint64_t query[kStride];
    for (auto& w : query) w = rng();
    for (std::size_t k : {63u, 64u, 65u, 256u, 1023u, 1024u}) {
      std::vector<std::uint16_t> want(rows, 0xbeef), got(rows, 0xbeef);
      scalar().hamming_many(query, arena.data(), kStride, rows, k,
                            want.data());
      for (Isa isa : reachable_isas()) {
        std::fill(got.begin(), got.end(), 0xbeef);
        deepcam::codelet::kernels_for(isa)->hamming_many(
            query, arena.data(), kStride, rows, k, got.data());
        ASSERT_EQ(got, want)
            << deepcam::codelet::isa_name(isa) << " rows=" << rows
            << " k=" << k;
      }
    }
  }
}

TEST(Codelet, HammingManyShortWordsMatchHammingPrefix) {
  // Rows of at most four words take the SIMD tables' scalar-popcnt path.
  // Every row's HD must be hamming_prefix's, for word-boundary lengths, a
  // tight (4-word) and a loose (16-word) row stride and every row count up
  // to 130 (past two 64-row CAM passes). Row 0 repeats the query (HD 0) and
  // row 1 is its complement (HD k).
  std::mt19937_64 rng(13);
  for (std::size_t stride : {4u, 16u}) {
    constexpr std::size_t kMaxRows = 130;
    std::vector<std::uint64_t> arena(kMaxRows * stride);
    for (auto& w : arena) w = rng();
    std::vector<std::uint64_t> query(stride);
    for (auto& w : query) w = rng();
    for (std::size_t i = 0; i < stride; ++i) {
      arena[i] = query[i];
      arena[stride + i] = ~query[i];
    }
    for (std::size_t k : {1u, 63u, 64u, 65u, 255u, 256u}) {
      for (std::size_t rows = 0; rows <= kMaxRows; ++rows) {
        std::vector<std::uint16_t> want(rows + 1, 0xbeef);
        for (std::size_t r = 0; r < rows; ++r)
          want[r] = static_cast<std::uint16_t>(scalar().hamming_prefix(
              query.data(), arena.data() + r * stride, k));
        if (rows >= 2) {
          ASSERT_EQ(want[0], 0u);
          ASSERT_EQ(want[1], k);
        }
        for (Isa isa : reachable_isas()) {
          std::vector<std::uint16_t> got(rows + 1, 0xbeef);
          deepcam::codelet::kernels_for(isa)->hamming_many(
              query.data(), arena.data(), stride, rows, k, got.data());
          ASSERT_EQ(got, want)
              << deepcam::codelet::isa_name(isa) << " stride=" << stride
              << " rows=" << rows << " k=" << k;
        }
      }
    }
  }
}

TEST(Codelet, ProjectColsBitwiseMatchesScalar) {
  std::mt19937 rng(23);
  // Sweep counts (single vector, full and leftover register tiles, either
  // side of the pack threshold), column counts (full and partial panels of
  // both SIMD widths) and input dims.
  constexpr std::size_t kPack = deepcam::codelet::kPackMinCount;
  const std::size_t counts[] = {1,  2,  4,         5,     6,         7,  8, 9,
                                15, 16, kPack - 1, kPack, kPack + 1, 64};
  const std::size_t ncols_list[] = {1,  7,  8,  31,  32,   33,  63,
                                    64, 65, 256, 1000, 1024};
  // 400 rows reach the packed and the streamed panels. Shapes above
  // kMaxMacs are skipped to keep the scalar oracle quick.
  const std::size_t dims[] = {1, 5, 37, 400};
  static_assert(deepcam::codelet::kPackMinRows <= 400);
  constexpr std::size_t kMaxMacs = 4'000'000;
  for (std::size_t count : counts) {
    for (std::size_t ncols : ncols_list) {
      for (std::size_t dim : dims) {
        if (count * ncols * dim > kMaxMacs) continue;
        const std::size_t c_stride = ncols + 3;  // strided C, like prefixes
        const auto xs = edge_floats(count * dim, rng);
        const auto c = edge_floats(dim * c_stride, rng);
        std::vector<float> want(count * ncols, -1.0f);
        std::vector<float> got(count * ncols, -1.0f);
        scalar().project_cols(xs.data(), c.data(), count, dim, c_stride,
                              ncols, want.data());
        for (Isa isa : reachable_isas()) {
          std::fill(got.begin(), got.end(), -1.0f);
          deepcam::codelet::kernels_for(isa)->project_cols(
              xs.data(), c.data(), count, dim, c_stride, ncols, got.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << deepcam::codelet::isa_name(isa) << " count=" << count
              << " ncols=" << ncols << " dim=" << dim;
        }
      }
    }
  }
}

/// The fused-kernel oracle: scalar project_cols, then scalar pack_signs per
/// vector.
std::vector<std::uint64_t> oracle_signatures(const std::vector<float>& xs,
                                             const std::vector<float>& c,
                                             std::size_t count,
                                             std::size_t dim,
                                             std::size_t c_stride,
                                             std::size_t k) {
  const std::size_t wps = (k + 63) / 64;
  std::vector<float> proj(count * k);
  scalar().project_cols(xs.data(), c.data(), count, dim, c_stride, k,
                        proj.data());
  std::vector<std::uint64_t> sigs(count * wps);
  for (std::size_t p = 0; p < count; ++p)
    scalar().pack_signs(proj.data() + p * k, k, sigs.data() + p * wps);
  return sigs;
}

TEST(Codelet, SignHashColsMatchesProjectAndPackOracle) {
  std::mt19937 rng(29);
  // Counts cross the pack threshold and leave every leftover tile width;
  // k covers partial and full words and panels; C is tight (stride == k,
  // so an over-read of the last row leaves the allocation) for even k and
  // strided for odd k. Shapes above kMaxMacs are skipped to keep the scalar
  // oracle (and the sanitizer builds) quick; every count, k and dim still
  // runs against most of the others.
  constexpr std::size_t kPack = deepcam::codelet::kPackMinCount;
  const std::size_t counts[] = {1,  2,        4,    5,        6,  15, 16,
                                17, kPack - 1, kPack, kPack + 1, 64, 100, 257};
  const std::size_t ks[] = {1, 63, 64, 65, 256, 1000, 1024};
  const std::size_t dims[] = {1, 5, 37, 150, 600};  // 600: packed panels
  static_assert(deepcam::codelet::kPackMinRows <= 600);
  constexpr std::size_t kMaxMacs = 10'000'000;
  for (std::size_t count : counts) {
    for (std::size_t k : ks) {
      for (std::size_t dim : dims) {
        if (count * k * dim > kMaxMacs) continue;
        const std::size_t c_stride = k % 2 == 0 ? k : k + 3;
        const auto xs = edge_floats(count * dim, rng);
        const auto c = edge_floats(dim * c_stride, rng);
        const auto want = oracle_signatures(xs, c, count, dim, c_stride, k);
        for (Isa isa : reachable_isas()) {
          std::vector<std::uint64_t> got(want.size() + 1, 0xabababababababab);
          deepcam::codelet::kernels_for(isa)->sign_hash_cols(
              xs.data(), c.data(), count, dim, c_stride, k, got.data());
          ASSERT_EQ(got.back(), 0xabababababababab)
              << deepcam::codelet::isa_name(isa) << " wrote past the end";
          got.pop_back();
          ASSERT_EQ(got, want)
              << deepcam::codelet::isa_name(isa) << " count=" << count
              << " k=" << k << " dim=" << dim;
        }
      }
    }
  }
}

TEST(Codelet, WideStreamedPanelsMatchScalar) {
  // Tall panels read by few vectors are streamed in row slabs, a bounded
  // group of panels at a time: more columns than one group, rows that end
  // mid-slab, and inputs with all-zero rows (skipped) and partly zero ones.
  std::mt19937 rng(41);
  const std::size_t dim = deepcam::codelet::kPackMinRows + 316;
  const std::size_t k = 1300, c_stride = k + 1;
  for (std::size_t count : {1, 5, 15}) {
    auto xs = edge_floats(count * dim, rng);
    for (std::size_t i = 0; i < dim; i += 3)
      for (std::size_t p = 0; p < count; ++p) xs[p * dim + i] = 0.0f;
    const auto c = edge_floats(dim * c_stride, rng);
    const auto want = oracle_signatures(xs, c, count, dim, c_stride, k);
    std::vector<float> proj(count * k);
    scalar().project_cols(xs.data(), c.data(), count, dim, c_stride, k,
                          proj.data());
    for (Isa isa : reachable_isas()) {
      const Kernels& kr = *deepcam::codelet::kernels_for(isa);
      std::vector<std::uint64_t> got(want.size());
      kr.sign_hash_cols(xs.data(), c.data(), count, dim, c_stride, k,
                        got.data());
      EXPECT_EQ(got, want) << deepcam::codelet::isa_name(isa)
                           << " count=" << count;
      std::vector<float> got_proj(count * k);
      kr.project_cols(xs.data(), c.data(), count, dim, c_stride, k,
                      got_proj.data());
      EXPECT_EQ(std::memcmp(got_proj.data(), proj.data(),
                            proj.size() * sizeof(float)),
                0)
          << deepcam::codelet::isa_name(isa) << " count=" << count;
    }
  }
}

TEST(Codelet, ZeroInputSkipsInfAndNanInC) {
  // xi == 0 must leave the accumulator untouched even where 0·C is NaN.
  // Rows i % 3 == 0 and 1 of C hold inf / NaN; every vector is zero on rows
  // i % 3 == 0, and even vectors on rows i % 3 == 1 too, so even vectors
  // stay finite only if every zero input is skipped (odd ones turn inf /
  // NaN, which must match as well). Short and tall panels, read in place
  // and packed.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t k = 100;
  std::mt19937 rng(37);
  std::uniform_real_distribution<float> uni(-2.0f, 2.0f);
  for (std::size_t dim : {std::size_t{9}, deepcam::codelet::kPackMinRows}) {
    for (std::size_t count :
         {std::size_t{3}, deepcam::codelet::kPackMinCount + 5}) {
      std::vector<float> xs(count * dim), c(dim * k);
      for (std::size_t p = 0; p < count; ++p)
        for (std::size_t i = 0; i < dim; ++i)
          xs[p * dim + i] = i % 3 == 0 || (i % 3 == 1 && p % 2 == 0)
                                ? (i % 2 == 0 ? 0.0f : -0.0f)
                                : uni(rng);
      for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t j = 0; j < k; ++j)
          c[i * k + j] = i % 3 == 2 ? uni(rng) : (j % 2 == 0 ? inf : nan);
      const auto want = oracle_signatures(xs, c, count, dim, k, k);
      std::vector<float> proj(count * k);
      scalar().project_cols(xs.data(), c.data(), count, dim, k, k,
                            proj.data());
      for (std::size_t p = 0; p < count; p += 2)
        for (std::size_t j = 0; j < k; ++j)
          ASSERT_TRUE(std::isfinite(proj[p * k + j]));
      for (Isa isa : reachable_isas()) {
        const Kernels& kr = *deepcam::codelet::kernels_for(isa);
        std::vector<std::uint64_t> got(want.size());
        kr.sign_hash_cols(xs.data(), c.data(), count, dim, k, k, got.data());
        EXPECT_EQ(got, want) << deepcam::codelet::isa_name(isa)
                             << " dim=" << dim << " count=" << count;
        std::vector<float> got_proj(count * k);
        kr.project_cols(xs.data(), c.data(), count, dim, k, k,
                        got_proj.data());
        EXPECT_EQ(std::memcmp(got_proj.data(), proj.data(),
                              proj.size() * sizeof(float)),
                  0)
            << deepcam::codelet::isa_name(isa) << " dim=" << dim
            << " count=" << count;
      }
    }
  }
}

/// affine_cols' defining loop: acc = bias[p], then acc += x·c for every i
/// in ascending order, no skip.
std::vector<float> affine_oracle(const std::vector<float>& xs,
                                 const std::vector<float>& c,
                                 const std::vector<float>& bias,
                                 std::size_t count, std::size_t dim,
                                 std::size_t c_stride, std::size_t ncols) {
  std::vector<float> out(count * ncols);
  for (std::size_t p = 0; p < count; ++p)
    for (std::size_t j = 0; j < ncols; ++j) {
      float acc = bias[p];
      for (std::size_t i = 0; i < dim; ++i)
        acc += xs[p * dim + i] * c[i * c_stride + j];
      out[p * ncols + j] = acc;
    }
  return out;
}

/// True when a and b have the same bits, or are both NaN. Where two NaNs
/// with different payloads meet in an add, which one survives is the first
/// operand's on x86, and the compiler orders a commutative add's operands as
/// it likes: the scalar codelet's SSE code keeps the product's, the SIMD
/// codelets the accumulator's (project_cols behaves the same).
bool same_float(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Runs affine_cols on every reachable ISA and expects the oracle's bits
/// (same_float), with nothing written past the output.
void expect_affine_matches(const std::vector<float>& xs,
                           const std::vector<float>& c,
                           const std::vector<float>& bias, std::size_t count,
                           std::size_t dim, std::size_t c_stride,
                           std::size_t ncols) {
  const auto want = affine_oracle(xs, c, bias, count, dim, c_stride, ncols);
  for (Isa isa : reachable_isas()) {
    std::vector<float> got(want.size() + 1, -1.0f);
    deepcam::codelet::kernels_for(isa)->affine_cols(
        xs.data(), c.data(), bias.data(), count, dim, c_stride, ncols,
        got.data());
    ASSERT_EQ(got.back(), -1.0f)
        << deepcam::codelet::isa_name(isa) << " wrote past the end";
    for (std::size_t o = 0; o < want.size(); ++o)
      ASSERT_TRUE(same_float(got[o], want[o]))
          << deepcam::codelet::isa_name(isa) << " output " << o
          << " count=" << count << " dim=" << dim << " c_stride=" << c_stride
          << " ncols=" << ncols << ": " << got[o] << " vs " << want[o];
  }
}

TEST(Codelet, AffineColsBitwiseMatchesOracle) {
  std::mt19937 rng(43);
  // Every count from 1 to 37 (each register-tile leftover width, both sides
  // of kPackMinCount) on short inputs; a spread of counts on tall ones, up
  // to and past kPackMinRows. Columns cover full and partial panels of both
  // SIMD widths. C is tight (stride == ncols: at most 64 columns is one
  // dense panel) for odd counts and strided for even ones. edge_floats
  // brings ±0, denormals and ±3.4e38 (whose sums overflow to inf) into xs,
  // c and the bias.
  constexpr std::size_t kPack = deepcam::codelet::kPackMinCount;
  constexpr std::size_t kRows = deepcam::codelet::kPackMinRows;
  const std::size_t ncols_list[] = {1, 4, 15, 16, 17, 63, 64, 65, 1024};
  std::vector<std::pair<std::size_t, std::size_t>> shapes;  // count, dim
  for (std::size_t count = 1; count <= 37; ++count)
    for (std::size_t dim : {1, 2, 5, 37}) shapes.emplace_back(count, dim);
  for (std::size_t count : {std::size_t{1}, std::size_t{6}, std::size_t{7},
                            kPack - 1, kPack, kPack + 5})
    for (std::size_t dim : {std::size_t{150}, kRows, std::size_t{600}})
      shapes.emplace_back(count, dim);
  static_assert(kRows <= 600 && kPack + 5 <= 37);
  // Shapes above kMaxMacs are skipped to keep the oracle (and the sanitizer
  // builds) quick; tall packed panels still run up to 65 columns.
  constexpr std::size_t kMaxMacs = 2'000'000;
  for (const auto& [count, dim] : shapes) {
    for (std::size_t ncols : ncols_list) {
      if (count * ncols * dim > kMaxMacs) continue;
      const std::size_t c_stride = count % 2 == 1 ? ncols : ncols + 3;
      const auto xs = edge_floats(count * dim, rng);
      const auto c = edge_floats(dim * c_stride, rng);
      const auto bias = edge_floats(count, rng);
      expect_affine_matches(xs, c, bias, count, dim, c_stride, ncols);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Codelet, AffineColsAddsEveryProduct) {
  // No zero skip: a zero weight times an inf/NaN entry of C is NaN and
  // must reach the output, and rows whose inputs are all zero are still
  // added. Rows i % 4 == 0 of xs are zero for every vector (an all-zero
  // row, which the projection kernels skip), C holds inf/NaN on rows
  // i % 4 == 0 and 1, and the bias carries inf, NaN and -0. Short and tall
  // inputs, few and many vectors, dense and strided C.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::mt19937 rng(47);
  std::uniform_real_distribution<float> uni(-2.0f, 2.0f);
  for (std::size_t dim : {std::size_t{9}, deepcam::codelet::kPackMinRows}) {
    for (std::size_t count :
         {std::size_t{3}, deepcam::codelet::kPackMinCount + 5}) {
      for (std::size_t ncols : {std::size_t{4}, std::size_t{100}}) {
        const std::size_t c_stride = ncols + (ncols > 64 ? 1 : 0);
        std::vector<float> xs(count * dim), c(dim * c_stride);
        std::vector<float> bias(count);
        for (std::size_t p = 0; p < count; ++p) {
          for (std::size_t i = 0; i < dim; ++i)
            xs[p * dim + i] = i % 4 == 0 ? (p % 2 == 0 ? 0.0f : -0.0f)
                                         : uni(rng);
          const float specials[] = {inf, -inf, nan, -0.0f, 0.0f, uni(rng)};
          bias[p] = specials[p % std::size(specials)];
        }
        for (std::size_t i = 0; i < dim; ++i)
          for (std::size_t j = 0; j < c_stride; ++j)
            c[i * c_stride + j] =
                i % 4 <= 1 && j % 3 == 0 ? (j % 2 == 0 ? inf : nan)
                : i % 5 == 2              ? 0.0f
                                          : uni(rng);
        const auto want =
            affine_oracle(xs, c, bias, count, dim, c_stride, ncols);
        // The zero inputs on rows i % 4 == 0 meet C's inf: column 0 is NaN
        // for every vector, so no kernel may skip those rows.
        for (std::size_t p = 0; p < count; ++p)
          ASSERT_TRUE(std::isnan(want[p * ncols]));
        expect_affine_matches(xs, c, bias, count, dim, c_stride, ncols);
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// finish_dots' defining expression, term for term.
std::vector<double> finish_oracle(const std::vector<std::uint16_t>& hd,
                                  const std::vector<double>& table,
                                  double scale,
                                  const std::vector<double>& norms,
                                  double bias) {
  std::vector<double> out(hd.size());
  for (std::size_t j = 0; j < hd.size(); ++j)
    out[j] = (scale * norms[j]) * table[hd[j]] + bias;
  return out;
}

/// True when a and b have the same bits, or are both NaN (a NaN bias meets
/// a NaN product only in its payload; see same_float).
bool same_double(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Codelet, FinishDotsBitwiseMatchesOracle) {
  // Every count from 0 to 67 (all SIMD tails), HDs at both table ends,
  // norms that are 0, minifloat subnormals (k·2^-9), the minifloat maximum
  // 480 and exact (fp32-ablation) doubles, and biases of ±0, ±inf and NaN.
  std::mt19937_64 rng(29);
  constexpr std::size_t kTable = 1025;  // k = 1024: h in [0, 1024]
  std::vector<double> table(kTable);
  std::uniform_real_distribution<double> cosine(-1.0, 1.0);
  for (auto& c : table) c = cosine(rng);
  table[0] = 1.0;
  table[kTable - 1] = -1.0;
  table[512] = -0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double special_norms[] = {0.0, 0x1p-9, 3 * 0x1p-9, 7 * 0x1p-9,
                                  480.0};
  const double biases[] = {0.0, -0.0, inf, -inf, nan, 0.3125, -1.7};
  std::uniform_real_distribution<double> exact(0.0, 50.0);
  std::uniform_int_distribution<std::size_t> pick_h(0, kTable - 1);
  auto norm = [&] {
    return rng() % 3 == 0 ? special_norms[rng() % std::size(special_norms)]
                          : exact(rng);
  };
  for (std::size_t count = 0; count <= 67; ++count) {
    for (double bias : biases) {
      std::vector<std::uint16_t> hd(count);
      std::vector<double> norms(count);
      for (std::size_t j = 0; j < count; ++j) {
        hd[j] = static_cast<std::uint16_t>(
            j % 5 == 0 ? 0 : j % 5 == 1 ? kTable - 1 : pick_h(rng));
        norms[j] = norm();
      }
      const double scale = norm();
      const auto want = finish_oracle(hd, table, scale, norms, bias);
      for (Isa isa : reachable_isas()) {
        std::vector<double> got(count + 1, -7.0);
        deepcam::codelet::kernels_for(isa)->finish_dots(
            hd.data(), table.data(), scale, norms.data(), bias, count,
            got.data());
        ASSERT_EQ(got.back(), -7.0)
            << deepcam::codelet::isa_name(isa) << " wrote past the end";
        for (std::size_t j = 0; j < count; ++j)
          ASSERT_TRUE(same_double(got[j], want[j]))
              << deepcam::codelet::isa_name(isa) << " count=" << count
              << " j=" << j << " bias=" << bias << ": " << got[j] << " vs "
              << want[j];
      }
    }
  }
}

TEST(Codelet, PackSignsEdgeValuesMatchScalar) {
  std::mt19937 rng(31);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            nan,
                            -nan,
                            inf,
                            -inf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  sizes.push_back(1024);
  for (std::size_t nbits : sizes) {
    std::vector<float> proj(nbits);
    std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
    std::uniform_int_distribution<int> pick(0, 3);
    for (auto& x : proj)
      x = pick(rng) == 0 ? specials[rng() % std::size(specials)] : uni(rng);
    const std::size_t nwords = (nbits + 63) / 64;
    std::vector<std::uint64_t> want(nwords + 1, 0xabababababababab);
    scalar().pack_signs(proj.data(), nbits, want.data());
    // Scalar semantics check: bit j set iff proj[j] >= 0 (so +0/-0 -> 1,
    // NaN -> 0).
    for (std::size_t j = 0; j < nbits; ++j)
      ASSERT_EQ((want[j / 64] >> (j % 64)) & 1, proj[j] >= 0.0f ? 1u : 0u);
    for (Isa isa : reachable_isas()) {
      std::vector<std::uint64_t> got(nwords + 1, 0xabababababababab);
      deepcam::codelet::kernels_for(isa)->pack_signs(proj.data(), nbits,
                                                     got.data());
      ASSERT_EQ(got, want)
          << deepcam::codelet::isa_name(isa) << " nbits=" << nbits;
    }
  }
}


/// gaussian_pairs on every reachable ISA vs the scalar codelet, bitwise.
/// Returns false (after reporting the first differing value) on a mismatch.
bool gaussian_pairs_match(const std::vector<double>& u1,
                          const std::vector<double>& u2, double stddev) {
  const std::size_t pairs = u1.size();
  std::vector<float> want(2 * pairs);
  scalar().gaussian_pairs(u1.data(), u2.data(), pairs, stddev, want.data());
  for (Isa isa : reachable_isas()) {
    std::vector<float> got(2 * pairs);
    deepcam::codelet::kernels_for(isa)->gaussian_pairs(
        u1.data(), u2.data(), pairs, stddev, got.data());
    if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) ==
        0)
      continue;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) continue;
      ADD_FAILURE() << deepcam::codelet::isa_name(isa) << " stddev=" << stddev
                    << " pair " << i / 2 << " u1=" << u1[i / 2]
                    << " u2=" << u2[i / 2] << ": " << got[i]
                    << " != " << want[i];
      return false;
    }
  }
  return true;
}

/// Pads a pair list with 16 ordinary pairs, so every listed pair runs in a
/// full SIMD block rather than the scalar tail.
void pad_to_simd(std::vector<double>& u1, std::vector<double>& u2) {
  for (int i = 0; i < 16; ++i) {
    u1.push_back(0.25 + i / 64.0);
    u2.push_back(0.3 + i / 64.0);
  }
}

TEST(Codelet, GaussianPairsAdversarialUniformsMatchScalar) {
  constexpr double ulp = 0x1p-53;
  // u1 at both ends of (0, 1) and at the √½ cut of the log's mantissa.
  const double half_sqrt2 = std::sqrt(0.5);
  std::vector<double> u1s = {ulp,
                             2 * ulp,
                             0.5,
                             1 - ulp,
                             0x1p-996,
                             0x1p-1022,
                             half_sqrt2,
                             std::nextafter(half_sqrt2, 0.0),
                             std::nextafter(half_sqrt2, 1.0),
                             0.7,
                             0.1};
  for (double k : {2.0, 3.0, 5.0, 8.0, 16.0, 1000.0})
    u1s.push_back(1 - k * ulp);
  // θ = 2π·u2 next to kπ/2, where cos or sin nearly vanishes.
  std::vector<double> u2s = {0.0, 1 - ulp, 1 - 2 * ulp, 1 - 3 * ulp};
  for (int k = 0; k < 4; ++k)
    for (int j = -3; j <= 3; ++j) {
      const double u = k / 4.0 + j * (k == 0 ? 0x1p-60 : ulp);
      if (u > 0.0) u2s.push_back(u);
    }
  std::vector<double> u1, u2;
  for (double a : u1s)
    for (double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  pad_to_simd(u1, u2);
  for (double stddev :
       {1.0, 0.05, std::sqrt(2.0 / 27.0), 1e-30, 1e30, -2.0})
    ASSERT_TRUE(gaussian_pairs_match(u1, u2, stddev)) << stddev;
}

TEST(Codelet, GaussianPairsOutsideRngDomainMatchScalar) {
  // Rng never draws these; the codelets must still agree (scalar path).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> u1, u2;
  for (double a : {0.0, 1.0, 1e-310, -0.5, 1.5, nan})
    for (double b : {0.25, 1.0, 1.5, -1e-3, nan}) {
      u1.push_back(a);
      u2.push_back(b);
    }
  pad_to_simd(u1, u2);
  for (double stddev : {1.0, 0.0, nan})
    ASSERT_TRUE(gaussian_pairs_match(u1, u2, stddev)) << stddev;
}

TEST(Codelet, GaussianPairsNearFloatMidpointsMatchScalar) {
  // A value within 2^-40 (relative) of a float rounding midpoint fails the
  // SIMD rounding test, so its pair must come out of the scalar fallback.
  const auto near_midpoint = [](double v) {
    const float f = static_cast<float>(v);
    const float finf = std::numeric_limits<float>::infinity();
    const double below = std::nextafter(f, -finf);
    const double above = std::nextafter(f, finf);
    const double d = std::min(std::fabs(v - (double(f) + below) / 2),
                              std::fabs(v - (double(f) + above) / 2));
    return std::isfinite(d) && d <= std::ldexp(std::fabs(v), -40);
  };
  for (double stddev : {1.0, std::sqrt(2.0 / 27.0)}) {
    deepcam::Rng rng(17);
    std::vector<double> u1, u2;
    for (int i = 0; i < (1 << 21); ++i) {
      double a = rng.uniform();
      while (a <= 1e-300) a = rng.uniform();
      const double b = rng.uniform();
      const double r = std::sqrt(-2.0 * std::log(a));
      const double theta = 2.0 * 3.14159265358979323846 * b;
      if (near_midpoint(0.0 + stddev * (r * std::cos(theta))) ||
          near_midpoint(0.0 + stddev * (r * std::sin(theta)))) {
        u1.push_back(a);
        u2.push_back(b);
      }
    }
    ASSERT_GE(u1.size(), 40u) << stddev;
    pad_to_simd(u1, u2);
    ASSERT_TRUE(gaussian_pairs_match(u1, u2, stddev)) << stddev;
  }
}

TEST(Codelet, GaussianPairsFiftyMillionRandomPairsMatchScalar) {
  // 192 seeded rounds of 2^18 pairs, shared out over up to four threads.
  const double stddevs[] = {1.0, std::sqrt(2.0 / 27.0),
                            std::sqrt(2.0 / 4608.0), std::sqrt(2.0 / 512.0),
                            0.05};
  constexpr std::uint64_t kRounds = 192;
  std::atomic<std::uint64_t> next_round{0};
  std::atomic<std::size_t> total{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    std::vector<double> u1, u2;
    while (!failed) {
      const std::uint64_t seed = next_round++;
      if (seed >= kRounds) break;
      deepcam::Rng rng(seed);
      const std::size_t pairs = (std::size_t{1} << 18) - seed % 17;
      u1.resize(pairs);
      u2.resize(pairs);
      for (std::size_t p = 0; p < pairs; ++p) {
        do {
          u1[p] = rng.uniform();
        } while (u1[p] <= 1e-300);
        u2[p] = rng.uniform();
      }
      if (!gaussian_pairs_match(u1, u2, stddevs[seed % 5])) failed = true;
      total += pairs;
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  ASSERT_FALSE(failed);
  EXPECT_GE(total.load(), 50000000u);
}

}  // namespace
