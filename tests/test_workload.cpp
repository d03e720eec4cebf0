#include "nn/workload.hpp"

#include <gtest/gtest.h>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"

namespace deepcam::nn {
namespace {

TEST(InferShapes, MatchesActualForward) {
  auto m = make_lenet5(1);
  const Shape in{1, 1, 28, 28};
  const auto shapes = infer_shapes(*m, in);
  Tensor x(in);
  const auto outs = m->forward_all(x);
  ASSERT_EQ(shapes.size(), outs.size());
  for (std::size_t i = 0; i < shapes.size(); ++i)
    EXPECT_TRUE(shapes[i] == outs[i].shape()) << "node " << i;
}

TEST(InferShapes, ResNetGraphMatchesForward) {
  auto m = make_resnet18(2, 100);
  const Shape in{1, 3, 32, 32};
  const auto shapes = infer_shapes(*m, in);
  Tensor x(in);
  const auto outs = m->forward_all(x);
  ASSERT_EQ(shapes.size(), outs.size());
  for (std::size_t i = 0; i < shapes.size(); ++i)
    EXPECT_TRUE(shapes[i] == outs[i].shape()) << "node " << i;
}

TEST(Workload, LeNetGemmDims) {
  auto m = make_lenet5(3);
  const auto work = extract_gemm_workload(*m, {1, 1, 28, 28});
  ASSERT_EQ(work.size(), 5u);  // 2 convs + 3 FCs
  // conv1: 24x24 patches, 6 filters, 25-length contexts.
  EXPECT_EQ(work[0].m, 576u);
  EXPECT_EQ(work[0].n, 6u);
  EXPECT_EQ(work[0].k, 25u);
  // conv2: 8x8 patches, 16 filters, 150-length contexts.
  EXPECT_EQ(work[1].m, 64u);
  EXPECT_EQ(work[1].n, 16u);
  EXPECT_EQ(work[1].k, 150u);
  // fc1: M=1.
  EXPECT_EQ(work[2].m, 1u);
  EXPECT_EQ(work[2].n, 120u);
  EXPECT_EQ(work[2].k, 256u);
}

TEST(Workload, MacsAreMNK) {
  GemmDims g{"x", 3, 5, 7};
  EXPECT_EQ(g.macs(), 105u);
}

TEST(Workload, TotalMacsLeNet) {
  auto m = make_lenet5(4);
  const std::size_t macs = total_macs(*m, {1, 1, 28, 28});
  // 576*6*25 + 64*16*150 + 30720 + 10080 + 840 = 281,640.
  EXPECT_EQ(macs, 576u * 6 * 25 + 64u * 16 * 150 + 256u * 120 + 120u * 84 +
                      84u * 10);
}

TEST(Workload, ChannelMismatchDetected) {
  Model m("bad");
  m.add(std::make_unique<Conv2D>("c", ConvSpec{4, 8, 3, 3, 1, 1}, 1));
  EXPECT_THROW(infer_shapes(m, {1, 3, 8, 8}), Error);
}

TEST(InferShapes, WindowLargerThanInputThrows) {
  // The size_t formula (in + 2·pad − window) / stride + 1 used to wrap:
  // h = w = 2^64 − 1 for this conv, 2^62 for the pool.
  Model conv("conv");
  conv.add(std::make_unique<Conv2D>("c", ConvSpec{1, 2, 5, 5, 1, 0}, 1));
  EXPECT_THROW(infer_shapes(conv, {1, 1, 3, 3}), Error);
  Model pool("pool");
  pool.add(std::make_unique<MaxPool>("p", 4, 4));
  EXPECT_THROW(infer_shapes(pool, {1, 1, 2, 2}), Error);
  Model avg("avg");
  avg.add(std::make_unique<AvgPool>("p", 4, 4));
  EXPECT_THROW(infer_shapes(avg, {1, 1, 2, 2}), Error);
}

TEST(Workload, StrideAndPadPropagate) {
  Model m("s");
  m.add(std::make_unique<Conv2D>("c", ConvSpec{1, 2, 3, 3, 2, 1}, 1));
  const auto shapes = infer_shapes(m, {1, 1, 9, 9});
  // (9 + 2 - 3)/2 + 1 = 5.
  EXPECT_TRUE((shapes[0] == Shape{1, 2, 5, 5}));
}

}  // namespace
}  // namespace deepcam::nn
