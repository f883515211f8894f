#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace mib::quant {
namespace {

Tensor random_weights(std::size_t rows, std::size_t cols,
                      std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::randn({rows, cols}, rng, 0.05f);
}

TEST(FakeQuantize, FP32IsLossless) {
  Tensor t = random_weights(16, 64);
  const auto err = fake_quantize_tensor(t, DType::kFP32,
                                        Granularity::kPerTensor);
  EXPECT_EQ(err.max_abs_err, 0.0);
  EXPECT_TRUE(std::isinf(err.snr_db()));
}

// Relative-error ceilings per dtype for Gaussian weights.
struct DtypeBound {
  DType dt;
  double max_rel_err;
  double min_rel_err;  ///< must be genuinely lossy (not a silent no-op)
};

// gtest otherwise prints the raw bytes, padding included, into the test name.
void PrintTo(const DtypeBound& p, std::ostream* os) {
  *os << dtype_name(p.dt);
}

class QuantErrorBound : public ::testing::TestWithParam<DtypeBound> {};

TEST_P(QuantErrorBound, RelErrWithinBand) {
  const auto p = GetParam();
  Tensor t = random_weights(32, 256, 7);
  const auto err = fake_quantize_tensor(t, p.dt, Granularity::kPerRow);
  EXPECT_LE(err.rel_err, p.max_rel_err) << dtype_name(p.dt);
  EXPECT_GE(err.rel_err, p.min_rel_err) << dtype_name(p.dt);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, QuantErrorBound,
    ::testing::Values(DtypeBound{DType::kFP16, 5e-4, 1e-6},
                      DtypeBound{DType::kBF16, 5e-3, 1e-5},
                      DtypeBound{DType::kFP8E4M3, 0.05, 1e-3},
                      DtypeBound{DType::kFP8E5M2, 0.09, 5e-3},
                      DtypeBound{DType::kINT8, 0.02, 1e-4},
                      DtypeBound{DType::kINT4, 0.25, 1e-3}),
    [](const ::testing::TestParamInfo<DtypeBound>& param_info) {
      return dtype_name(param_info.param.dt);
    });

TEST(FakeQuantize, ErrorOrderingAcrossPrecisions) {
  auto rel = [](DType dt) {
    Tensor t = random_weights(32, 256, 9);
    return fake_quantize_tensor(t, dt, Granularity::kPerRow).rel_err;
  };
  EXPECT_LT(rel(DType::kFP16), rel(DType::kFP8E4M3));
  EXPECT_LT(rel(DType::kFP8E4M3), rel(DType::kINT4));
  EXPECT_LT(rel(DType::kINT8), rel(DType::kINT4));
}

TEST(FakeQuantize, PerRowBeatsPerTensorOnScaledRows) {
  // Rows with wildly different magnitudes: per-tensor scale wastes range.
  Rng rng(11);
  Tensor t({8, 128});
  for (std::size_t r = 0; r < 8; ++r) {
    const float scale = std::pow(10.0f, static_cast<float>(r) - 4.0f);
    for (auto& v : t.row(r)) {
      v = static_cast<float>(rng.normal()) * scale;
    }
  }
  Tensor t2 = t;
  const auto per_tensor =
      fake_quantize_tensor(t, DType::kINT8, Granularity::kPerTensor);
  const auto per_row =
      fake_quantize_tensor(t2, DType::kINT8, Granularity::kPerRow);
  // Global relative error is dominated by the largest row, so the gap is
  // modest — but per-row must win, and the small rows must survive: under
  // a per-tensor scale the 1e-4-magnitude row quantizes to all zeros.
  EXPECT_LT(per_row.rel_err, per_tensor.rel_err);
  for (float v : t.row(0)) EXPECT_EQ(v, 0.0f);       // per-tensor: wiped out
  float row0_energy = 0.0f;
  for (float v : t2.row(0)) row0_energy += v * v;    // per-row: preserved
  EXPECT_GT(row0_energy, 0.0f);
}

TEST(FakeQuantize, Int8ValuesLieOnScaleGrid) {
  Tensor t = random_weights(4, 64, 13);
  Tensor ref = t;
  fake_quantize_tensor(t, DType::kINT8, Granularity::kPerRow);
  for (std::size_t r = 0; r < 4; ++r) {
    float max_abs = 0.0f;
    for (float v : ref.row(r)) max_abs = std::max(max_abs, std::abs(v));
    const float scale = max_abs / 127.0f;
    for (float v : t.row(r)) {
      const float q = v / scale;
      EXPECT_NEAR(q, std::nearbyint(q), 1e-3);
      EXPECT_LE(std::abs(q), 127.5f);
    }
  }
}

TEST(FakeQuantize, AllZeroTensorIsExact) {
  Tensor t = Tensor::zeros({4, 16});
  const auto err = fake_quantize_tensor(t, DType::kINT4,
                                        Granularity::kPerRow);
  EXPECT_EQ(err.max_abs_err, 0.0);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(FakeQuantize, IntOnSpanRejected) {
  std::vector<float> data(8, 1.0f);
  EXPECT_THROW(fake_quantize(std::span<float>(data), DType::kINT8), Error);
}

TEST(FakeQuantize, IntNeedsRank2) {
  Tensor t({8});
  EXPECT_THROW(fake_quantize_tensor(t, DType::kINT8, Granularity::kPerRow),
               Error);
}

TEST(FakeQuantize, QuantizationIsIdempotent) {
  Tensor t = random_weights(8, 64, 17);
  fake_quantize_tensor(t, DType::kFP8E4M3, Granularity::kPerTensor);
  Tensor once = t;
  const auto err2 =
      fake_quantize_tensor(t, DType::kFP8E4M3, Granularity::kPerTensor);
  EXPECT_EQ(err2.max_abs_err, 0.0);
  EXPECT_EQ(max_abs_diff(once, t), 0.0f);
}

TEST(StorageBits, FloatFormatsHaveNoScaleOverhead) {
  EXPECT_DOUBLE_EQ(storage_bits_per_value(DType::kFP16,
                                          Granularity::kPerRow, 128),
                   16.0);
  EXPECT_DOUBLE_EQ(storage_bits_per_value(DType::kFP8E4M3,
                                          Granularity::kPerTensor, 128),
                   8.0);
}

TEST(StorageBits, IntFormatsAmortizeScales) {
  const double int4_row = storage_bits_per_value(DType::kINT4,
                                                 Granularity::kPerRow, 128);
  EXPECT_NEAR(int4_row, 4.0 + 32.0 / 128.0, 1e-12);
  const double int4_tensor = storage_bits_per_value(
      DType::kINT4, Granularity::kPerTensor, 128);
  EXPECT_LT(int4_tensor, int4_row);
}

TEST(QuantError, SnrComputation) {
  QuantError e;
  e.rel_err = 0.01;
  e.mse = 1e-4;
  EXPECT_NEAR(e.snr_db(), 40.0, 1e-9);
}

}  // namespace
}  // namespace mib::quant
