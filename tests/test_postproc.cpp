#include "core/postproc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "cam/sense_amp.hpp"
#include "codelet/codelet.hpp"
#include "hash/cosine_approx.hpp"
#include "hash_oracle.hpp"

namespace deepcam::core {
namespace {

using oracle::Context;

Context make_ctx(double norm) {
  return {deepcam::BitVec(hash::kMaxHashBits),
          deepcam::MiniFloat::encode(static_cast<float>(norm)), norm};
}

/// Per-dot oracle: the post-processing unit's math for one (weight,
/// activation) pair — cosine of θ = π·HD/k, two norm multiplies, bias add.
double finish_dot(const PostProcessingUnit::Options& opts, const Context& w,
                  const Context& a, std::size_t hd, std::size_t k,
                  float bias) {
  const double nw = opts.minifloat_norms ? w.norm() : w.exact_norm;
  const double na = opts.minifloat_norms ? a.norm() : a.exact_norm;
  return hash::approx_dot(nw, na, hd, k, opts.use_pwl_cosine) +
         static_cast<double>(bias);
}

/// One dot product through a k-bit cosine table and the dispatched
/// finish_dots codelet.
double finish_via_table(const PostProcessingUnit::Options& opts,
                        const Context& w, const Context& a, std::uint16_t hd,
                        std::size_t k, float bias) {
  const std::vector<double> table =
      PostProcessingUnit(opts).cosine_table(k, k);
  const double nw = opts.minifloat_norms ? w.norm() : w.exact_norm;
  const double na = opts.minifloat_norms ? a.norm() : a.exact_norm;
  double out = 0.0;
  codelet::kernels().finish_dots(&hd, table.data(), nw, &na,
                                 static_cast<double>(bias), 1, &out);
  return out;
}

TEST(PostProc, PerfectMatchGivesNormProductPlusBias) {
  const Context w = make_ctx(2.0);  // exactly representable
  const Context a = make_ctx(4.0);
  EXPECT_DOUBLE_EQ(finish_via_table({}, w, a, 0, 512, 1.5f), 2.0 * 4.0 + 1.5);
}

TEST(PostProc, MiniFloatNormOptionChangesResult) {
  PostProcessingUnit::Options mf;
  mf.minifloat_norms = true;
  PostProcessingUnit::Options fp;
  fp.minifloat_norms = false;
  const Context w = make_ctx(1.23456);  // not representable in E4M3
  const Context a = make_ctx(2.71828);
  const double o_mf = finish_via_table(mf, w, a, 0, 512, 0.0f);
  const double o_fp = finish_via_table(fp, w, a, 0, 512, 0.0f);
  EXPECT_NE(o_mf, o_fp);
  EXPECT_NEAR(o_mf, o_fp, std::abs(o_fp) * 0.13);  // two 6.25% quantizations
  EXPECT_DOUBLE_EQ(o_fp, 1.23456 * 2.71828);
}

TEST(PostProc, PwlVersusExactCosineOption) {
  PostProcessingUnit::Options exact_cos;
  exact_cos.use_pwl_cosine = false;
  const Context w = make_ctx(1.0);
  const Context a = make_ctx(1.0);
  // hd = k/4 -> theta = pi/4 -> cos = sqrt(2)/2.
  EXPECT_NEAR(finish_via_table(exact_cos, w, a, 128, 512, 0.0f),
              std::sqrt(2.0) / 2.0, 1e-9);
}

TEST(PostProc, CosineTableEntriesAreUnitApproxDots) {
  for (bool pwl : {true, false}) {
    const PostProcessingUnit pp({pwl, true});
    for (std::size_t k : {1u, 63u, 256u, 1024u}) {
      const std::vector<double> table = pp.cosine_table(k, k + 7);
      ASSERT_EQ(table.size(), k + 8);
      for (std::size_t h = 0; h < table.size(); ++h) {
        const double want = hash::approx_dot(1.0, 1.0, h, k, pwl);
        ASSERT_EQ(std::memcmp(&table[h], &want, sizeof(double)), 0)
            << "pwl=" << pwl << " k=" << k << " h=" << h;
      }
    }
  }
}

TEST(PostProc, TableCoversEverySensedDistance) {
  // A quantized sense amp reconstructs h = tau / (bin - 0.5), which exceeds
  // k when tau > k: the table must reach max_reported(k).
  for (std::size_t tau : {64u, 256u, 1024u}) {
    cam::SenseAmpConfig sc;
    sc.mode = cam::SenseMode::kQuantized;
    sc.tau_unit_bins = tau;
    const cam::SenseAmp amp(sc);
    for (std::size_t k : {256u, 1024u}) {
      std::size_t max_seen = 0;
      for (std::size_t h = 0; h <= k; ++h)
        max_seen = std::max(max_seen, amp.measure(h));
      EXPECT_LE(max_seen, amp.max_reported(k)) << "tau=" << tau;
      if (tau > k) EXPECT_GT(max_seen, k) << "tau=" << tau;
    }
  }
  EXPECT_EQ(cam::SenseAmp({}).max_reported(256), 256u);
}

TEST(PostProc, TableFinishMatchesPerDotOracleOnEveryIsa) {
  // Every HD the sense amp can report (past k when quantized), random
  // norms, both cosines and both norm formats: finish_dots over the layer's
  // table gives the per-dot oracle's bits on every reachable ISA table.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> norm(0.01, 40.0);
  for (bool pwl : {true, false}) {
    for (bool minifloat : {true, false}) {
      const PostProcessingUnit::Options opts{pwl, minifloat};
      const std::size_t k = 256;
      const std::size_t max_hd = 300;
      const std::vector<double> table =
          PostProcessingUnit(opts).cosine_table(k, max_hd);
      const Context w = make_ctx(norm(rng));
      std::vector<Context> acts;
      std::vector<double> a_norm;
      std::vector<std::uint16_t> hd;
      for (std::size_t h = 0; h <= max_hd; ++h) {
        acts.push_back(make_ctx(norm(rng)));
        a_norm.push_back(minifloat ? acts.back().norm()
                                   : acts.back().exact_norm);
        hd.push_back(static_cast<std::uint16_t>(h));
      }
      const float bias = -0.75f;
      for (codelet::Isa isa :
           {codelet::Isa::kScalar, codelet::Isa::kAvx2,
            codelet::Isa::kAvx512}) {
        if (!codelet::isa_supported(isa)) continue;
        std::vector<double> got(hd.size());
        codelet::kernels_for(isa)->finish_dots(
            hd.data(), table.data(), minifloat ? w.norm() : w.exact_norm,
            a_norm.data(), static_cast<double>(bias), hd.size(), got.data());
        for (std::size_t j = 0; j < hd.size(); ++j) {
          const double want = finish_dot(opts, w, acts[j], hd[j], k, bias);
          ASSERT_EQ(std::memcmp(&got[j], &want, sizeof(double)), 0)
              << codelet::isa_name(isa) << " pwl=" << pwl
              << " minifloat=" << minifloat << " h=" << hd[j];
        }
      }
    }
  }
}

}  // namespace
}  // namespace deepcam::core
