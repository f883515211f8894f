// Step pricing is exact: a decode step recomposed from its batch-only
// parts equals LayerCostModel::decode_step bit for bit, and a Replica,
// which keeps those parts per pricing model, prices every step exactly as
// a fresh reprice of the same batch would, across model swaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "engine/layer_cost.h"
#include "engine/replica.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "parallel/plan.h"

namespace mib::engine {
namespace {

struct PlanCase {
  std::string name;
  parallel::ParallelPlan plan;
  bool balanced;
};

std::vector<PlanCase> plan_cases() {
  return {{"tp1", parallel::tp_plan(1), false},
          {"tp2", parallel::tp_plan(2), false},
          {"pp2", parallel::pp_plan(2), false},
          {"ep2_balanced", parallel::tp_ep_plan(2), true}};
}

std::vector<models::ModelConfig> pricing_models() {
  return {models::olmoe_1b_7b(), models::qwen3_30b_a3b(),
          models::deepseek_v2_lite(), models::phi35_moe()};
}

LayerCostModel make(const models::ModelConfig& m, const PlanCase& pc) {
  CostConfig cost;
  cost.ep_balanced_placement = pc.balanced;
  return LayerCostModel(m, hw::Cluster::h100_node(pc.plan.devices()),
                        pc.plan, cost);
}

TEST(StepPricing, ModelsCoverDenseLayersMlaAndSoftwareEfficiency) {
  const auto ds = models::deepseek_v2_lite();
  EXPECT_GT(ds.dense_layers(), 0);
  EXPECT_EQ(ds.attention, models::AttentionKind::kMLA);
  EXPECT_LT(models::phi35_moe().sw_efficiency, 1.0);
}

// The sweep also hashes every decode_step total (FNV-1a over the bit
// patterns, in sweep order) against a pinned digest, so a change to the
// roofline arithmetic or to the order it is summed in fails here too. A
// change that means to alter decode prices re-derives the digest.
TEST(StepPricing, RecomposedDecodeIsBitIdentical) {
  const double ctxs[] = {1.0,    1.25,   7.0,    100.5,
                         511.75, 2048.0, 4095.3, 32768.0};
  std::uint64_t digest = 1469598103934665603ull;
  for (const auto& m : pricing_models()) {
    for (const auto& pc : plan_cases()) {
      const auto lc = make(m, pc);
      for (int b = 1; b <= 256; ++b) {
        const auto parts = lc.decode_parts(b);
        for (double ctx : ctxs) {
          const auto direct = lc.decode_step(b, ctx);
          const auto kept = lc.decode_step(parts, b, ctx);
          EXPECT_EQ(kept.total(), direct.total())
              << m.name << " " << pc.name << " b=" << b << " ctx=" << ctx;
          EXPECT_EQ(kept.attention, direct.attention)
              << m.name << " " << pc.name << " b=" << b << " ctx=" << ctx;
          const double total = direct.total();
          std::uint64_t bits;
          std::memcpy(&bits, &total, sizeof bits);
          for (int i = 0; i < 8; ++i) {
            digest ^= (bits >> (8 * i)) & 0xffu;
            digest *= 1099511628211ull;
          }
        }
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_EQ(digest, 0x53eec15ecc1bd96cull)
      << std::hex << "sweep digest 0x" << digest;
}

TEST(StepPricing, ProfileStillSumsToDecodeTotal) {
  for (const auto& m : pricing_models()) {
    for (const auto& pc : plan_cases()) {
      if (pc.plan.pp > 1) continue;  // profiles require pp == 1
      const auto lc = make(m, pc);
      const auto ops = lc.profile_decode_step(24, 1500.5);
      double sum = 0.0;
      bool paged = false;
      for (const auto& op : ops) {
        sum += op.seconds;
        if (op.name == "attn.paged_decode") {
          paged = true;
          EXPECT_EQ(op.instances, m.n_layers) << m.name << " " << pc.name;
        }
      }
      EXPECT_TRUE(paged) << m.name << " " << pc.name;
      const double total = lc.decode_step(24, 1500.5).total();
      EXPECT_NEAR(sum, total, total * 1e-9) << m.name << " " << pc.name;
    }
  }
}

// Replays a replica step by step and reprices each step from the batch it
// built, with no memo: the decode batch and its mean context from the
// sequences whose prefill was done before the step, the prefill tokens
// from the chunks the step added. Swaps between two pricing models along
// the way, including back to one whose prices the replica already holds.
TEST(StepPricing, ReplicaMatchesARepriceAcrossModelSwaps) {
  const auto m = models::qwen3_30b_a3b();
  const auto fused = make(m, plan_cases()[0]);
  CostConfig naive_cost;
  naive_cost.fused_moe = false;
  const LayerCostModel naive(m, hw::Cluster::h100_node(1),
                             parallel::tp_plan(1), naive_cost);
  ASSERT_NE(fused.decode_step(8, 300.0).total(),
            naive.decode_step(8, 300.0).total());

  ReplicaConfig rc;
  rc.max_batch = 16;
  rc.prefill_tokens_per_step = 384;
  Replica r(&fused, 2000, rc);
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    Sequence s;
    s.request_id = i;
    s.arrival_s = 0.01 * i;
    s.input_tokens = 16 + (i * 137) % 700;
    s.output_tokens = 1 + (i * 29) % 48;
    r.enqueue(s);
  }

  int steps = 0, mixed = 0, prefill_only = 0;
  while (r.has_work()) {
    const LayerCostModel* cost = (steps / 3) % 2 == 0 ? &fused : &naive;
    r.set_cost_model(cost);
    std::map<int, int> prefilled_before;
    for (int id = 0; id < n; ++id) {
      if (const Sequence* s = r.find(id)) prefilled_before[id] = s->prefilled;
    }
    r.begin_step(0.0);

    int decode_batch = 0, prefill_tokens = 0;
    double ctx_sum = 0.0;
    for (const auto& s : r.running()) {
      const int before = prefilled_before.at(s.request_id);
      if (before >= s.input_tokens) {
        ++decode_batch;
        ctx_sum += static_cast<double>(before + s.generated);
      } else {
        prefill_tokens += s.prefilled - before;
      }
    }
    double expected = 0.0;
    if (decode_batch > 0) {
      expected += cost->decode_step(decode_batch,
                                    std::max(1.0, ctx_sum / decode_batch))
                      .total();
    }
    if (prefill_tokens > 0) {
      const auto pf = cost->prefill(1, prefill_tokens);
      expected += pf.total() - pf.head - pf.overhead;
      if (decode_batch == 0) expected += pf.head + pf.overhead;
    }
    ASSERT_EQ(r.step_end_s(), expected) << "step " << steps;
    mixed += decode_batch > 0 && prefill_tokens > 0;
    prefill_only += decode_batch == 0;
    r.complete_step();
    ++steps;
  }
  // The replay crossed every pricing branch.
  EXPECT_GT(mixed, 0);
  EXPECT_GT(prefill_only, 0);
  EXPECT_GT(steps - mixed - prefill_only, 0);
  EXPECT_GT(r.preemptions(), 0);
}

}  // namespace
}  // namespace mib::engine
