// Properties of the one CAM-layer pricing rule (core::price_cam_layer) and
// the peripheral cycle rule (core::peripheral_cycles) that the engine and
// plan::CostModel share.
#include <gtest/gtest.h>

#include "core/compiled_model.hpp"

namespace deepcam::core {
namespace {

/// Event counts with only the given fields set.
MappingPlan events(std::size_t passes, std::size_t searches,
                   std::size_t rows_written, std::size_t dot_products) {
  MappingPlan m;
  m.passes = passes;
  m.searches = searches;
  m.rows_written = rows_written;
  m.dot_products = dot_products;
  return m;
}

LayerReport price(const MappingPlan& counts, std::size_t k,
                  CyclePreset preset = CyclePreset::kConservative,
                  bool online = false, std::size_t patches = 1,
                  std::size_t n = 9) {
  DeepCamConfig cfg;
  cfg.preset = preset;
  return price_cam_layer("layer", patches, 1, n, k, counts, online, cfg);
}

TEST(Pricing, CopiesGeometryAndCounts) {
  const MappingPlan counts = events(3, 17, 150, 2550);
  DeepCamConfig cfg;
  const LayerReport r =
      price_cam_layer("conv7", 150, 17, 27, 512, counts, true, cfg);
  EXPECT_EQ(r.name, "conv7");
  EXPECT_EQ(r.patches, 150u);
  EXPECT_EQ(r.kernels, 17u);
  EXPECT_EQ(r.context_len, 27u);
  EXPECT_EQ(r.hash_bits, 512u);
  EXPECT_EQ(r.plan.passes, 3u);
  EXPECT_EQ(r.plan.searches, 17u);
  EXPECT_EQ(r.plan.rows_written, 150u);
  EXPECT_EQ(r.plan.dot_products, 2550u);
}

TEST(Pricing, SearchEnergyRisesAboutFourfoldFromOneToFourChunks) {
  const double e1 = price(events(0, 1, 0, 0), 256).cam_energy;
  const double e4 = price(events(0, 1, 0, 0), 1024).cam_energy;
  EXPECT_GT(e1, 0.0);
  EXPECT_GT(e4, 2.5 * e1);  // ~4x cell energy plus a fixed sense-amp term
  EXPECT_LT(e4, 4.5 * e1);
}

TEST(Pricing, WriteEnergyRisesFourfoldFromOneToFourChunks) {
  const double e1 = price(events(0, 0, 1, 0), 256).cam_energy;
  const double e4 = price(events(0, 0, 1, 0), 1024).cam_energy;
  EXPECT_GT(e1, 0.0);
  EXPECT_NEAR(e4 / e1, 4.0, 1e-9);
}

TEST(Pricing, CamEnergyUsesTheActiveWord) {
  // The gates enable whole 256-bit chunks, so k = 300 costs what k = 512
  // costs in the array.
  EXPECT_EQ(price(events(1, 5, 7, 0), 300).cam_energy,
            price(events(1, 5, 7, 0), 512).cam_energy);
}

TEST(Pricing, PostprocEnergyIsLinearInDotProducts) {
  const double e1 = price(events(0, 0, 0, 1), 256).postproc_energy;
  EXPECT_GT(e1, 0.0);
  EXPECT_DOUBLE_EQ(price(events(0, 0, 0, 2), 256).postproc_energy, 2.0 * e1);
  // Hash length does not change the digital datapath.
  EXPECT_EQ(price(events(0, 0, 0, 1), 1024).postproc_energy, e1);
}

TEST(Pricing, ContextGenerationEnergyGrowsWithNTimesK) {
  const MappingPlan none = events(0, 0, 0, 0);
  const LayerReport small =
      price(none, 256, CyclePreset::kConservative, true, 1, 27);
  const LayerReport large =
      price(none, 1024, CyclePreset::kConservative, true, 1, 2304);
  EXPECT_GT(small.ctxgen_energy, 0.0);
  EXPECT_GT(large.ctxgen_energy, 50.0 * small.ctxgen_energy);
  // Offline context generation (the first CAM layer) costs nothing.
  EXPECT_EQ(price(none, 256, CyclePreset::kConservative, false, 1, 27)
                .ctxgen_energy,
            0.0);
}

TEST(Pricing, ContextGenerationLatencyIndependentOfNTimesK) {
  // Bit-serial crossbar input: a fixed latency per patch, pipelined.
  const MappingPlan none = events(0, 0, 0, 0);
  const LayerReport small =
      price(none, 256, CyclePreset::kConservative, true, 4, 27);
  const LayerReport large =
      price(none, 1024, CyclePreset::kConservative, true, 4, 2304);
  EXPECT_GT(small.cycles, 0u);
  EXPECT_EQ(small.cycles, large.cycles);
  EXPECT_EQ(price(none, 256, CyclePreset::kConservative, true, 8, 27).cycles,
            2 * small.cycles);
}

TEST(Pricing, SearchLatencyGrowsWithChunks) {
  std::size_t prev = 0;
  for (const std::size_t k : {256u, 512u, 768u, 1024u}) {
    const std::size_t c = price(events(0, 1, 0, 0), k).cycles;
    EXPECT_GT(c, prev) << "k=" << k;
    prev = c;
  }
}

TEST(Pricing, ConservativeChargesWritesAndDrains) {
  const std::size_t base = price(events(0, 1, 0, 0), 256).cycles;
  EXPECT_GT(price(events(0, 1, 1, 0), 256).cycles, base);
  EXPECT_GT(price(events(1, 1, 0, 0), 256).cycles, base);
}

TEST(Pricing, IdealizedSearchIsOneCycleAndHidesTheRest) {
  for (const std::size_t k : {256u, 1024u}) {
    const LayerReport r = price(events(3, 37, 150, 5550), k,
                                CyclePreset::kIdealized, true, 150, 27);
    EXPECT_EQ(r.cycles, 37u) << "k=" << k;
    // The preset changes latency only, never energy.
    const LayerReport c = price(events(3, 37, 150, 5550), k,
                                CyclePreset::kConservative, true, 150, 27);
    EXPECT_EQ(r.cam_energy, c.cam_energy);
    EXPECT_EQ(r.postproc_energy, c.postproc_energy);
    EXPECT_EQ(r.ctxgen_energy, c.ctxgen_energy);
  }
}

TEST(Pricing, PeripheralCyclesAreSixteenLanesConservativeOnly) {
  EXPECT_EQ(peripheral_cycles(0, CyclePreset::kConservative), 0u);
  EXPECT_EQ(peripheral_cycles(1, CyclePreset::kConservative), 1u);
  EXPECT_EQ(peripheral_cycles(16, CyclePreset::kConservative), 1u);
  EXPECT_EQ(peripheral_cycles(17, CyclePreset::kConservative), 2u);
  EXPECT_EQ(peripheral_cycles(4096, CyclePreset::kIdealized), 0u);
}

}  // namespace
}  // namespace deepcam::core
