#include "hw/kernel_model.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace mib::hw {
namespace {

class KernelModelTest : public ::testing::Test {
 protected:
  KernelModel km_{h100_sxm5()};
};

TEST_F(KernelModelTest, GemmEfficiencySaturatesWithM) {
  const double e1 = km_.gemm_efficiency(1);
  const double e64 = km_.gemm_efficiency(64);
  const double e4096 = km_.gemm_efficiency(4096);
  EXPECT_LT(e1, e64);
  EXPECT_LT(e64, e4096);
  EXPECT_LE(e4096, km_.device().max_compute_efficiency);
  EXPECT_GT(e4096, 0.9 * km_.device().max_compute_efficiency);
}

TEST_F(KernelModelTest, SmallMGemmIsMemoryBound) {
  // Decode-style GEMM: 1 token x large weight matrix.
  const auto c = km_.gemm(1, 4096, 4096, DType::kFP16, DType::kFP16);
  EXPECT_GT(c.memory_s, c.compute_s);
}

TEST_F(KernelModelTest, LargeMGemmIsComputeBound) {
  const auto c = km_.gemm(16384, 4096, 4096, DType::kFP16, DType::kFP16);
  EXPECT_GT(c.compute_s, c.memory_s);
}

TEST_F(KernelModelTest, GemmFlopsAndBytesAccounting) {
  const auto c = km_.gemm(8, 16, 32, DType::kFP16, DType::kFP16);
  EXPECT_DOUBLE_EQ(c.flops, 2.0 * 8 * 16 * 32);
  EXPECT_DOUBLE_EQ(c.bytes, (16.0 * 32 + 8.0 * 32 + 8.0 * 16) * 2.0);
}

TEST_F(KernelModelTest, FP8HalvesWeightTrafficAndDoublesPeak) {
  const auto f16 = km_.gemm(64, 8192, 8192, DType::kFP16, DType::kFP16);
  const auto f8 = km_.gemm(64, 8192, 8192, DType::kFP8E4M3, DType::kFP8E4M3);
  EXPECT_LT(f8.bytes, 0.55 * f16.bytes);
  EXPECT_NEAR(f8.compute_s, f16.compute_s / 2.0, f16.compute_s * 0.01);
  EXPECT_LT(f8.total(), f16.total());
}

TEST_F(KernelModelTest, WeightOnlyInt4CutsBytesNotPeak) {
  const auto f16 = km_.gemm(64, 8192, 8192, DType::kFP16, DType::kFP16);
  const auto w4 = km_.gemm(64, 8192, 8192, DType::kFP16, DType::kINT4);
  EXPECT_LT(w4.bytes, f16.bytes);
  EXPECT_NEAR(w4.compute_s, f16.compute_s, f16.compute_s * 1e-9);
}

TEST_F(KernelModelTest, RooflineTotalIsMaxPlusLaunch) {
  const auto c = km_.op(1e12, 1e9, 0.5, 2);
  EXPECT_DOUBLE_EQ(c.total(),
                   std::max(c.compute_s, c.memory_s) + c.launch_s);
  EXPECT_DOUBLE_EQ(c.launch_s,
                   2 * km_.device().kernel_launch_overhead);
}

TEST_F(KernelModelTest, CostAccumulation) {
  const auto a = km_.op(1e12, 1e9, 0.5);
  const auto b = km_.op(2e12, 3e9, 0.5);
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s.flops, a.flops + b.flops);
  EXPECT_DOUBLE_EQ(s.compute_s, a.compute_s + b.compute_s);
}

TEST_F(KernelModelTest, GroupedGemmFusedBeatsUnfused) {
  const std::vector<double> groups(8, 16.0);
  const auto fused =
      km_.grouped_gemm(groups, 4096, 4096, DType::kFP16, DType::kFP16, true);
  const auto unfused =
      km_.grouped_gemm(groups, 4096, 4096, DType::kFP16, DType::kFP16, false);
  EXPECT_LT(fused.total(), unfused.total());
  EXPECT_LT(fused.launch_s, unfused.launch_s);
  EXPECT_LT(fused.bytes, unfused.bytes);  // no activation round-trip
}

TEST_F(KernelModelTest, GroupedGemmSkipsEmptyGroups) {
  const std::vector<double> some = {16.0, 0.0, 0.0, 16.0};
  const std::vector<double> all = {16.0, 16.0};
  const auto a =
      km_.grouped_gemm(some, 1024, 1024, DType::kFP16, DType::kFP16, false);
  const auto b =
      km_.grouped_gemm(all, 1024, 1024, DType::kFP16, DType::kFP16, false);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
  EXPECT_DOUBLE_EQ(a.launch_s, b.launch_s);
}

TEST_F(KernelModelTest, GroupedGemmAllEmptyIsFree) {
  const std::vector<double> none = {0.0, 0.0};
  const auto c =
      km_.grouped_gemm(none, 1024, 1024, DType::kFP16, DType::kFP16, true);
  EXPECT_DOUBLE_EQ(c.total(), 0.0);
}

TEST_F(KernelModelTest, GroupedGemmWeightTrafficScalesWithActiveGroups) {
  const std::vector<double> two = {8.0, 8.0};
  const std::vector<double> four = {8.0, 8.0, 8.0, 8.0};
  const auto c2 =
      km_.grouped_gemm(two, 4096, 4096, DType::kFP16, DType::kFP16, true);
  const auto c4 =
      km_.grouped_gemm(four, 4096, 4096, DType::kFP16, DType::kFP16, true);
  EXPECT_GT(c4.bytes, 1.8 * c2.bytes);
}

TEST_F(KernelModelTest, AttentionPrefillQuadraticInSeq) {
  const auto s1 =
      km_.attention_prefill(1, 1024, 32, 128, DType::kFP16);
  const auto s2 =
      km_.attention_prefill(1, 2048, 32, 128, DType::kFP16);
  EXPECT_NEAR(s2.flops / s1.flops, 4.0, 0.01);
}

TEST_F(KernelModelTest, AttentionDecodeReadsKv) {
  const double kv_bytes = 1.0 * kGB;
  const auto c = km_.attention_decode(4, 2048, 32, 128, kv_bytes,
                                      DType::kFP16);
  EXPECT_GE(c.bytes, kv_bytes);
  EXPECT_GT(c.memory_s, c.compute_s);  // decode attention is BW-bound
}

TEST_F(KernelModelTest, ElementwiseIsBandwidthBound) {
  const auto c = km_.elementwise(1e8, 2.0, 1.0, DType::kFP16);
  EXPECT_DOUBLE_EQ(c.bytes, 1e8 * 3.0 * 2.0);
  EXPECT_GT(c.memory_s, c.compute_s);
}

TEST_F(KernelModelTest, MemcpyCountsBothDirections) {
  const auto c = km_.memcpy_op(1e9);
  EXPECT_DOUBLE_EQ(c.bytes, 2e9);
}

TEST_F(KernelModelTest, InvalidInputsThrow) {
  EXPECT_THROW(km_.gemm(0, 1, 1, DType::kFP16, DType::kFP16), Error);
  EXPECT_THROW(km_.op(-1, 0, 0.5), Error);
  EXPECT_THROW(km_.op(1, 1, 0.0), Error);
  EXPECT_THROW(km_.op(1, 1, 1.5), Error);
  EXPECT_THROW(km_.grouped_gemm({}, 1, 1, DType::kFP16, DType::kFP16, true),
               Error);
  EXPECT_THROW(km_.grouped_gemm({-1.0}, 1, 1, DType::kFP16, DType::kFP16,
                                true),
               Error);
}

// Parameterized sweep: fused never loses to unfused across group shapes.
class FusedVsUnfused : public ::testing::TestWithParam<int> {};

TEST_P(FusedVsUnfused, FusedNeverSlower) {
  KernelModel km(h100_sxm5());
  const int groups = GetParam();
  std::vector<double> m(groups);
  for (int g = 0; g < groups; ++g) m[g] = 1.0 + g % 7;
  const auto fused =
      km.grouped_gemm(m, 2048, 2048, DType::kFP16, DType::kFP16, true);
  const auto unfused =
      km.grouped_gemm(m, 2048, 2048, DType::kFP16, DType::kFP16, false);
  EXPECT_LE(fused.total(), unfused.total());
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, FusedVsUnfused,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

}  // namespace
}  // namespace mib::hw
