// Validation of the zoo against published parameter counts — the paper's
// Table 1 (Model Size / Active Parameters columns) and the models' own
// technical reports. This is the ground truth anchoring the cost model.
#include <gtest/gtest.h>

#include <cctype>

#include "models/params.h"
#include "models/zoo.h"

namespace mib::models {
namespace {

struct PublishedCounts {
  const char* name;
  double total_b;   ///< published total parameters (billions)
  double active_b;  ///< published active parameters (billions)
  double tol;       ///< relative tolerance (VL2 family is calibrated)
};

// gtest otherwise prints the raw bytes, pointer included, into the test name.
void PrintTo(const PublishedCounts& p, std::ostream* os) { *os << p.name; }

class ZooParams : public ::testing::TestWithParam<PublishedCounts> {};

TEST_P(ZooParams, MatchesPublishedTotals) {
  const auto& p = GetParam();
  const auto m = model_by_name(p.name);
  EXPECT_NEAR(total_params(m) / 1e9, p.total_b, p.total_b * p.tol)
      << m.name << " total";
  EXPECT_NEAR(active_params(m) / 1e9, p.active_b, p.active_b * p.tol)
      << m.name << " active";
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ZooParams,
    ::testing::Values(
        PublishedCounts{"Mixtral-8x7B", 46.7, 12.9, 0.03},
        PublishedCounts{"Qwen1.5-MoE-A2.7B", 14.3, 2.7, 0.03},
        PublishedCounts{"Qwen3-30B-A3B", 30.5, 3.3, 0.03},
        PublishedCounts{"DeepSeek-V2-Lite", 15.7, 2.4, 0.12},
        PublishedCounts{"Phi-3.5-MoE", 41.9, 6.6, 0.03},
        PublishedCounts{"OLMoE-1B-7B", 6.9, 1.3, 0.03},
        PublishedCounts{"DeepSeek-VL2-Tiny", 3.0, 1.0, 0.15},
        PublishedCounts{"DeepSeek-VL2-Small", 16.0, 2.8, 0.15},
        PublishedCounts{"DeepSeek-VL2", 27.0, 4.5, 0.10},
        PublishedCounts{"Llama-4-Scout-17B-16E", 109.0, 17.0, 0.03},
        PublishedCounts{"DeepSeek-V3", 671.0, 37.0, 0.03},
        PublishedCounts{"Kimi-K2", 1040.0, 32.0, 0.04},
        PublishedCounts{"Qwen3-0.6B", 0.6, 0.6, 0.05},
        PublishedCounts{"Qwen3-1.7B", 1.7, 1.7, 0.05},
        PublishedCounts{"Qwen3-4B", 4.0, 4.0, 0.05},
        PublishedCounts{"Qwen3-8B", 8.2, 8.2, 0.05}),
    [](const ::testing::TestParamInfo<PublishedCounts>& param_info) {
      std::string n = param_info.param.name;
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(Zoo, Table1HasNineModels) {
  EXPECT_EQ(table1_models().size(), 9u);
  EXPECT_EQ(llm_models().size(), 6u);
  EXPECT_EQ(vlm_models().size(), 3u);
}

TEST(Zoo, AllModelsValidate) {
  for (const auto& m : all_models()) {
    EXPECT_NO_THROW(m.validate()) << m.name;
  }
}

TEST(Zoo, NamesAreUnique) {
  const auto all = all_models();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].name, all[j].name);
    }
  }
}

TEST(Zoo, LookupIsCaseInsensitive) {
  EXPECT_EQ(model_by_name("mixtral-8x7b").name, "Mixtral-8x7B");
  EXPECT_EQ(model_by_name("OLMOE-1B-7B").name, "OLMoE-1B-7B");
  EXPECT_THROW(model_by_name("gpt-5"), ConfigError);
}

TEST(Zoo, Table1ArchitectureColumns) {
  // Spot checks against the paper's Table 1 (layers / experts / top-k).
  const auto mixtral = model_by_name("Mixtral-8x7B");
  EXPECT_EQ(mixtral.n_layers, 32);
  EXPECT_EQ(mixtral.n_experts, 8);
  EXPECT_EQ(mixtral.top_k, 2);
  EXPECT_EQ(mixtral.hidden, 4096);
  EXPECT_EQ(mixtral.expert_ffn, 14336);

  const auto qwen3 = model_by_name("Qwen3-30B-A3B");
  EXPECT_EQ(qwen3.n_layers, 48);
  EXPECT_EQ(qwen3.n_experts, 128);
  EXPECT_EQ(qwen3.top_k, 8);

  const auto olmoe = model_by_name("OLMoE-1B-7B");
  EXPECT_EQ(olmoe.n_layers, 16);
  EXPECT_EQ(olmoe.n_experts, 64);
  EXPECT_EQ(olmoe.top_k, 8);

  const auto dsl = model_by_name("DeepSeek-V2-Lite");
  EXPECT_EQ(dsl.n_layers, 27);
  EXPECT_EQ(dsl.n_experts, 64);
  EXPECT_EQ(dsl.top_k, 6);
  EXPECT_EQ(dsl.attention, AttentionKind::kMLA);
}

TEST(Zoo, VLMsHaveVisionTowers) {
  for (const auto& m : vlm_models()) {
    EXPECT_TRUE(m.vision.has_value()) << m.name;
    EXPECT_EQ(m.modality, Modality::kTextImage) << m.name;
    EXPECT_GT(m.vision->patch_tokens, 0) << m.name;
  }
}

TEST(Zoo, MolmoESharesOlmoeBackbone) {
  const auto molmoe = molmoe_1b();
  const auto olmoe = olmoe_1b_7b();
  EXPECT_EQ(molmoe.n_experts, olmoe.n_experts);
  EXPECT_EQ(molmoe.top_k, olmoe.top_k);
  EXPECT_EQ(molmoe.n_layers, olmoe.n_layers);
  EXPECT_TRUE(molmoe.vision.has_value());
}

TEST(Zoo, DraftModelsShareQwen3Vocab) {
  const auto target = qwen3_30b_a3b();
  for (const auto& d :
       {qwen3_0_6b(), qwen3_1_7b(), qwen3_4b(), qwen3_8b()}) {
    EXPECT_EQ(d.vocab, target.vocab) << d.name;
    EXPECT_FALSE(d.is_moe()) << d.name;
  }
}

TEST(Zoo, PhiHasReducedSoftwareEfficiency) {
  EXPECT_LT(phi35_moe().sw_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(mixtral_8x7b().sw_efficiency, 1.0);
}

}  // namespace
}  // namespace mib::models
