#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "engine/layer_cost.h"
#include "models/zoo.h"

namespace mib::engine {
namespace {

LayerCostModel make(const models::ModelConfig& m, int devices = 1) {
  return LayerCostModel(m, hw::Cluster::h100_node(devices),
                        parallel::tp_plan(devices), CostConfig{});
}

double total_of(const std::vector<OpRecord>& ops) {
  double t = 0.0;
  for (const auto& op : ops) t += op.seconds;
  return t;
}

TEST(Profile, DecodeOpsSumToStepTotal) {
  for (const auto& m :
       {models::olmoe_1b_7b(), models::deepseek_v2_lite(),
        models::qwen3_1_7b()}) {
    const auto lc = make(m);
    const auto ops = lc.profile_decode_step(16, 2048);
    const double total = lc.decode_step(16, 2048).total();
    EXPECT_NEAR(total_of(ops), total, total * 1e-9) << m.name;
  }
}

TEST(Profile, PrefillOpsSumToTotal) {
  const auto lc = make(models::olmoe_1b_7b());
  const auto ops = lc.profile_prefill(8, 1024);
  const double total = lc.prefill(8, 1024).total();
  EXPECT_NEAR(total_of(ops), total, total * 1e-9);
}

TEST(Profile, SortedDescendingWithMergedNames) {
  const auto lc = make(models::olmoe_1b_7b());
  const auto ops = lc.profile_decode_step(16, 2048);
  ASSERT_GT(ops.size(), 4u);
  for (std::size_t i = 1; i < ops.size(); ++i) {
    EXPECT_GE(ops[i - 1].seconds, ops[i].seconds);
  }
  // Names unique after merging.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      EXPECT_NE(ops[i].name, ops[j].name);
    }
  }
}

TEST(Profile, LayerOpsCarryLayerCounts) {
  const auto lc = make(models::olmoe_1b_7b());  // 16 layers, all MoE
  const auto ops = lc.profile_decode_step(4, 512);
  for (const auto& op : ops) {
    if (op.name == "moe.experts_gate_up" || op.name == "attn.qkvo_proj") {
      EXPECT_EQ(op.instances, 16) << op.name;
    }
    if (op.name == "step.framework_overhead") {
      EXPECT_EQ(op.instances, 1);
    }
  }
}

TEST(Profile, MoEExpertsDominateDecode) {
  // The paper's Fig. 1 premise at runtime: expert weights dominate the
  // decode step for MoE models.
  const auto lc = make(models::olmoe_1b_7b());
  const auto ops = lc.profile_decode_step(32, 2048);
  double moe = 0.0, total = total_of(ops);
  for (const auto& op : ops) {
    if (op.name.rfind("moe.", 0) == 0) moe += op.seconds;
  }
  EXPECT_GT(moe / total, 0.35);
}

TEST(Profile, DenseModelHasNoMoEOps) {
  const auto lc = make(models::qwen3_1_7b());
  for (const auto& op : lc.profile_decode_step(8, 1024)) {
    EXPECT_NE(op.name.rfind("moe.", 0), 0u) << op.name;
  }
}

TEST(Profile, CommOpsAppearUnderTp) {
  const auto lc = make(models::mixtral_8x7b(), 4);
  const auto ops = lc.profile_decode_step(16, 2048);
  bool saw_attn_ar = false, saw_ffn_ar = false;
  for (const auto& op : ops) {
    if (op.name == "comm.attn_allreduce") saw_attn_ar = true;
    if (op.name == "comm.ffn_allreduce") saw_ffn_ar = true;
  }
  EXPECT_TRUE(saw_attn_ar);
  EXPECT_TRUE(saw_ffn_ar);
}

TEST(Profile, VisionOpInVlmPrefill) {
  const auto lc = make(models::deepseek_vl2_tiny());
  const auto ops = lc.profile_prefill(4, 256, 1);
  bool saw = false;
  for (const auto& op : ops) saw |= op.name == "vision.encode";
  EXPECT_TRUE(saw);
}

TEST(Profile, PipelineRejected) {
  const LayerCostModel lc(models::olmoe_1b_7b(), hw::Cluster::h100_node(4),
                          parallel::pp_plan(4), CostConfig{});
  EXPECT_THROW(lc.profile_decode_step(8, 512), Error);
  EXPECT_THROW(lc.profile_prefill(8, 512), Error);
}

TEST(Profile, ProfilingDoesNotPerturbNormalRuns) {
  const auto lc = make(models::deepseek_v2_lite());
  const double before = lc.decode_step(8, 1024).total();
  lc.profile_decode_step(8, 1024);
  const double after = lc.decode_step(8, 1024).total();
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(Profile, ConcurrentPricingLeavesProfilesExact) {
  // One model shared across threads: pricers loop decode_step while this
  // thread profiles. A profile must hold exactly its own step's ops, and
  // the const pricing calls must not reach into the profile's sink.
  const auto lc = make(models::olmoe_1b_7b());
  const double total = lc.decode_step(16, 2048).total();
  std::atomic<bool> stop{false};
  std::vector<std::thread> pricers;
  for (int t = 0; t < 2; ++t) {
    pricers.emplace_back([&lc, &stop] {
      while (!stop.load()) lc.decode_step(4, 512);
    });
  }
  int inexact = 0;
  for (int k = 0; k < 2000; ++k) {
    const double sum = total_of(lc.profile_decode_step(16, 2048));
    if (std::abs(sum - total) > total * 1e-9) ++inexact;
  }
  stop = true;
  for (auto& t : pricers) t.join();
  EXPECT_EQ(inexact, 0);
}

TEST(Profile, FlopsAndBytesAggregated) {
  const auto lc = make(models::olmoe_1b_7b());
  const auto ops = lc.profile_decode_step(16, 2048);
  double bytes = 0.0;
  for (const auto& op : ops) bytes += op.bytes;
  // A decode step at saturated coverage reads most of the 13.8 GiB of
  // weights: total traffic must be in the GB range.
  EXPECT_GT(bytes, 5e9);
  EXPECT_LT(bytes, 50e9);
}

}  // namespace
}  // namespace mib::engine
