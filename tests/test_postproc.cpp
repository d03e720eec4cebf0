#include "core/postproc.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace deepcam::core {
namespace {

Context make_ctx(double norm) {
  Context c;
  c.bits = deepcam::BitVec(hash::kMaxHashBits);
  c.exact_norm = norm;
  c.norm_code = deepcam::MiniFloat::encode(static_cast<float>(norm));
  return c;
}

TEST(PostProc, PerfectMatchGivesNormProductPlusBias) {
  PostProcessingUnit pp;
  const Context w = make_ctx(2.0);  // exactly representable
  const Context a = make_ctx(4.0);
  const double out = pp.finish_dot_product(w, a, 0, 512, 1.5f);
  EXPECT_DOUBLE_EQ(out, 2.0 * 4.0 + 1.5);
}

TEST(PostProc, MiniFloatNormOptionChangesResult) {
  PostProcessingUnit::Options mf;
  mf.minifloat_norms = true;
  PostProcessingUnit pp_mf(mf);
  PostProcessingUnit::Options fp;
  fp.minifloat_norms = false;
  PostProcessingUnit pp_fp(fp);
  const Context w = make_ctx(1.23456);  // not representable in E4M3
  const Context a = make_ctx(2.71828);
  const double o_mf = pp_mf.finish_dot_product(w, a, 0, 512, 0.0f);
  const double o_fp = pp_fp.finish_dot_product(w, a, 0, 512, 0.0f);
  EXPECT_NE(o_mf, o_fp);
  EXPECT_NEAR(o_mf, o_fp, std::abs(o_fp) * 0.13);  // two 6.25% quantizations
  EXPECT_DOUBLE_EQ(o_fp, 1.23456 * 2.71828);
}

TEST(PostProc, PwlVersusExactCosineOption) {
  PostProcessingUnit::Options exact_cos;
  exact_cos.use_pwl_cosine = false;
  PostProcessingUnit pp(exact_cos);
  const Context w = make_ctx(1.0);
  const Context a = make_ctx(1.0);
  // hd = k/4 -> theta = pi/4 -> cos = sqrt(2)/2.
  const double out = pp.finish_dot_product(w, a, 128, 512, 0.0f);
  EXPECT_NEAR(out, std::sqrt(2.0) / 2.0, 1e-9);
}

}  // namespace
}  // namespace deepcam::core
