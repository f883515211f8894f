// Broad parameterized sweeps over the zoo x precision x hardware space:
#include <cctype>
#include <cmath>
// global sanity invariants that every simulated configuration must satisfy.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "models/params.h"

namespace mib::engine {
namespace {

struct SweepCase {
  const char* model;
  const char* device;
  DType dtype;
};

// gtest otherwise prints the raw bytes, pointers included, into the test name.
void PrintTo(const SweepCase& p, std::ostream* os) {
  *os << p.model << " on " << p.device << " at " << dtype_name(p.dtype);
}

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, MetricsSane) {
  const auto p = GetParam();
  core::Scenario s;
  s.model = p.model;
  s.device = p.device;
  s.weight_dtype = p.dtype;
  const auto m = models::model_by_name(p.model);
  const double bytes = models::weight_bytes(m, p.dtype);
  const double dev_mem = hw::device_by_name(p.device).usable_mem();
  s.n_devices =
      std::string(p.device) == "cs3"
          ? 1
          : std::max(1, static_cast<int>(std::ceil(bytes / (0.8 * dev_mem))));
  // TP degree must divide head count; bump to the next power of two.
  while (m.n_heads % s.n_devices != 0) ++s.n_devices;
  s.batch = 8;
  s.input_tokens = s.output_tokens = 512;

  const auto r = s.run();
  EXPECT_GT(r.ttft_s, 0.0);
  EXPECT_GT(r.e2e_s, r.ttft_s);
  EXPECT_GT(r.throughput_tok_s, 10.0);
  EXPECT_LT(r.throughput_tok_s, 1e7);
  EXPECT_GT(r.itl_s, 0.0);
  EXPECT_LT(r.itl_s, 1.0);
  EXPECT_LE(r.memory.total(),
            hw::device_by_name(p.device).usable_mem() * 1.001);

  // Monotonicity spot-check: doubling the batch never lowers throughput by
  // more than rounding (wave boundaries aside, it should rise).
  const auto r2 = s.with_batch(16).run();
  if (r2.waves == r.waves) {
    EXPECT_GE(r2.throughput_tok_s, r.throughput_tok_s * 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooByHardware, EngineSweep,
    ::testing::Values(
        SweepCase{"OLMoE-1B-7B", "h100", DType::kFP16},
        SweepCase{"OLMoE-1B-7B", "h100", DType::kFP8E4M3},
        SweepCase{"OLMoE-1B-7B", "h100", DType::kINT4},
        SweepCase{"OLMoE-1B-7B", "a100", DType::kFP16},
        SweepCase{"OLMoE-1B-7B", "h200", DType::kFP16},
        SweepCase{"OLMoE-1B-7B", "b200", DType::kFP16},
        SweepCase{"OLMoE-1B-7B", "cs3", DType::kFP16},
        SweepCase{"Mixtral-8x7B", "h100", DType::kFP16},
        SweepCase{"Mixtral-8x7B", "h100", DType::kFP8E4M3},
        SweepCase{"Mixtral-8x7B", "b200", DType::kFP16},
        SweepCase{"Qwen1.5-MoE-A2.7B", "h100", DType::kFP16},
        SweepCase{"Qwen3-30B-A3B", "h100", DType::kFP8E4M3},
        SweepCase{"DeepSeek-V2-Lite", "h100", DType::kFP16},
        SweepCase{"DeepSeek-V2-Lite", "h200", DType::kINT8},
        SweepCase{"Phi-3.5-MoE", "h100", DType::kFP16},
        SweepCase{"Llama-4-Scout-17B-16E", "h100", DType::kFP8E4M3},
        SweepCase{"Llama-4-Scout-17B-16E", "cs3", DType::kFP8E4M3},
        SweepCase{"Qwen3-8B", "h100", DType::kFP16},
        SweepCase{"Qwen3-0.6B", "h100", DType::kFP16}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      std::string n = param_info.param.model;
      n += "_";
      n += param_info.param.device;
      n += "_";
      n += dtype_name(param_info.param.dtype);
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// VLM sweep: image inputs behave across devices.
class VlmSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(VlmSweep, ImagesPriceIn) {
  core::Scenario s;
  s.model = GetParam();
  s.batch = 8;
  s.input_tokens = s.output_tokens = 256;
  const auto text = s.run();
  s.images_per_request = 2;
  const auto vlm = s.run();
  EXPECT_GT(vlm.ttft_s, text.ttft_s);
  EXPECT_GT(vlm.e2e_s, text.e2e_s);
  EXPECT_LT(vlm.samples_per_s, text.samples_per_s);
  EXPECT_GT(vlm.memory.kv_cache, text.memory.kv_cache);  // image tokens
}

INSTANTIATE_TEST_SUITE_P(VlmFamily, VlmSweep,
                         ::testing::Values("DeepSeek-VL2-Tiny",
                                           "DeepSeek-VL2-Small",
                                           "DeepSeek-VL2", "MolmoE-1B"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace mib::engine
