// The functional transformer with MLA attention: the end-to-end version of
// the DeepSeek-V2 / VL2 architecture the engine's memory model prices.
#include <gtest/gtest.h>

#include "common/error.h"
#include "moe/transformer.h"

namespace mib::moe {
namespace {

TransformerConfig mla_cfg() {
  TransformerConfig c;
  c.vocab = 64;
  c.n_layers = 2;
  c.hidden = 32;
  c.n_heads = 4;
  c.head_dim = 8;
  c.use_mla = true;
  c.mla_kv_rank = 8;
  c.mla_rope_dim = 4;
  c.n_experts = 4;
  c.top_k = 2;
  c.expert_ffn = 48;
  return c;
}

TEST(TransformerMla, GeneratesDeterministically) {
  const Transformer a(mla_cfg(), 5);
  const Transformer b(mla_cfg(), 5);
  auto sa = a.new_session();
  auto sb = b.new_session();
  const auto ga = a.generate({1, 2, 3}, 10, sa);
  EXPECT_EQ(ga, b.generate({1, 2, 3}, 10, sb));
  EXPECT_EQ(ga.size(), 10u);
}

TEST(TransformerMla, IncrementalMatchesFull) {
  const Transformer model(mla_cfg(), 7);
  const std::vector<int> seq = {4, 8, 15, 16, 23, 42};

  auto inc = model.new_session();
  std::vector<float> inc_last;
  for (int tok : seq) {
    const Tensor l = model.forward({tok}, inc);
    inc_last.assign(l.row(0).begin(), l.row(0).end());
  }
  auto full = model.new_session();
  const Tensor l = model.forward(seq, full);
  for (std::size_t v = 0; v < 64; ++v) {
    EXPECT_NEAR(inc_last[v], l.at(seq.size() - 1, v), 1e-4f);
  }
}

TEST(TransformerMla, CacheSmallerThanMhaCounterpart) {
  // Same geometry with MHA: the functional latent cache must be smaller.
  auto mha_cfg = mla_cfg();
  mha_cfg.use_mla = false;
  mha_cfg.n_kv_heads = 4;
  const Transformer mla(mla_cfg(), 11);
  const Transformer mha(mha_cfg, 11);
  auto sm = mla.new_session();
  auto sh = mha.new_session();
  mla.forward({1, 2, 3, 4, 5, 6, 7, 8}, sm);
  mha.forward({1, 2, 3, 4, 5, 6, 7, 8}, sh);
  EXPECT_EQ(sm.position(), sh.position());
  // MLA: (8 + 4) floats/token/layer vs MHA: 2*4*8 = 64 floats.
  EXPECT_LT(sm.kv_bytes() * 4, sh.kv_bytes());
  EXPECT_EQ(sm.kv_bytes(), 8u * 12u * sizeof(float) * 2u);
}

TEST(TransformerMla, SessionsNotInterchangeable) {
  const Transformer mla(mla_cfg(), 13);
  auto c = mla_cfg();
  c.use_mla = false;
  const Transformer mha(c, 13);
  auto mha_session = mha.new_session();
  EXPECT_THROW(mla.forward({1}, mha_session), Error);

  // Equal row widths: GQA with one KV head of 8 floats caches 2 * 8 = 16
  // floats per position, MLA with rank 8 and rope key 8 caches 8 + 8 = 16.
  auto narrow_mha = c;
  narrow_mha.n_kv_heads = 1;
  auto wide_rope = mla_cfg();
  wide_rope.mla_rope_dim = 8;
  const Transformer gqa1(narrow_mha, 13);
  const Transformer mla16(wide_rope, 13);
  auto gqa_session = gqa1.new_session();
  auto mla_session = mla16.new_session();
  EXPECT_THROW(mla16.forward({1}, gqa_session), Error);
  EXPECT_THROW(gqa1.forward({1}, mla_session), Error);
  // Each model still runs its own session.
  mla16.forward({1}, mla_session);
  gqa1.forward({1}, gqa_session);
}

TEST(TransformerMla, RouterCountsStillAccumulate) {
  Transformer model(mla_cfg(), 17);
  auto s = model.new_session();
  model.forward({1, 2, 3, 4}, s);
  const auto counts = model.activation_counts();
  ASSERT_EQ(counts.size(), 2u);
  std::uint64_t total = 0;
  for (auto cnt : counts[0]) total += cnt;
  EXPECT_EQ(total, 4u * 2u);
}

TEST(TransformerMla, ConfigValidation) {
  auto c = mla_cfg();
  c.mla_kv_rank = 0;
  EXPECT_THROW(Transformer(c, 1), Error);
  c = mla_cfg();
  c.mla_rope_dim = 3;  // odd
  EXPECT_THROW(Transformer(c, 1), Error);
}

}  // namespace
}  // namespace mib::moe
