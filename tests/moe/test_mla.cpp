#include "moe/mla.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "moe/attention.h"

namespace mib::moe {
namespace {

MlaConfig cfg(int hidden = 32, int heads = 4, int head_dim = 8,
              int rank = 8, int rope = 4) {
  return MlaConfig{hidden, heads, head_dim, rank, rope};
}

Tensor tokens(int n, int hidden, std::uint64_t seed = 3) {
  Rng rng(seed);
  return Tensor::randn({static_cast<std::size_t>(n),
                        static_cast<std::size_t>(hidden)},
                       rng);
}

TEST(MlaConfig, Validation) {
  cfg().validate();
  EXPECT_THROW(cfg(0).validate(), Error);
  EXPECT_THROW(cfg(32, 4, 8, 0).validate(), Error);       // no rank
  EXPECT_THROW(cfg(32, 4, 8, 8, 3).validate(), Error);    // odd rope
  EXPECT_EQ(cfg().cache_dim(), 12);
}

TEST(KvState, LatentRowsAppendAndBytes) {
  Rng rng(1);
  KvState kv = MlaAttention(cfg(), rng).new_cache();
  EXPECT_TRUE(kv.holds(KvRow::kLatentRopeKey, 8, 4));
  std::vector<float> latent(8, 1.0f), rope_key(4, 1.0f);
  kv.append(latent, rope_key);
  kv.append(latent, rope_key);
  EXPECT_EQ(kv.tokens(), 2);
  EXPECT_EQ(kv.row(1).size(), 12u);
  EXPECT_EQ(kv.bytes(), 2u * 12u * sizeof(float));
  EXPECT_THROW(kv.row(2), Error);
  std::vector<float> bad(7, 0.0f);
  EXPECT_THROW(kv.append(bad, rope_key), Error);
  EXPECT_THROW(kv.append(latent, bad), Error);
}

TEST(MlaAttention, OutputShape) {
  Rng rng(1);
  MlaAttention attn(cfg(), rng);
  KvState kv = attn.new_cache();
  const Tensor y = attn.forward(tokens(5, 32), kv, 0);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 32u);
  EXPECT_EQ(kv.tokens(), 5);
}

TEST(MlaAttention, IncrementalMatchesFullSequence) {
  Rng rng(2);
  MlaAttention attn(cfg(), rng);
  const Tensor x = tokens(6, 32, 9);

  KvState kv_full = attn.new_cache();
  const Tensor full = attn.forward(x, kv_full, 0);

  KvState kv_inc = attn.new_cache();
  for (std::size_t t = 0; t < 6; ++t) {
    Tensor one({1, 32});
    std::copy(x.row(t).begin(), x.row(t).end(), one.row(0).begin());
    const Tensor y = attn.forward(one, kv_inc, static_cast<int>(t));
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_NEAR(y.at(0, j), full.at(t, j), 1e-5f) << "t=" << t;
    }
  }
}

TEST(MlaAttention, CausalityHolds) {
  Rng rng(3);
  MlaAttention attn(cfg(), rng);
  Tensor a = tokens(4, 32, 11);
  Tensor b = a;
  for (auto& v : b.row(3)) v += 1.0f;
  KvState kva = attn.new_cache(), kvb = attn.new_cache();
  const Tensor ya = attn.forward(a, kva, 0);
  const Tensor yb = attn.forward(b, kvb, 0);
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(ya.at(t, j), yb.at(t, j));
    }
  }
}

TEST(MlaAttention, CacheSmallerThanMhaEquivalent) {
  // The whole point of MLA: cache_dim = rank + rope << 2 * heads * head_dim.
  const auto c = cfg(32, 4, 8, 8, 4);
  const int mha_dim = 2 * c.n_heads * c.head_dim;  // 64 floats/token
  EXPECT_LT(c.cache_dim(), mha_dim / 4);

  // And at DeepSeek-V2-Lite geometry: (512+64) vs 2*16*128 = 4096: 7.1x.
  const auto ds = cfg(2048, 16, 128, 512, 64);
  EXPECT_NEAR(static_cast<double>(2 * 16 * 128) / ds.cache_dim(), 7.1, 0.1);
}

TEST(MlaAttention, StartPosChecked) {
  Rng rng(4);
  MlaAttention attn(cfg(), rng);
  KvState kv = attn.new_cache();
  attn.forward(tokens(2, 32), kv, 0);
  EXPECT_THROW(attn.forward(tokens(1, 32), kv, 0), Error);
  attn.forward(tokens(1, 32), kv, 2);
}

TEST(MlaAttention, PositionSensitivityViaRopeKey) {
  // The cached rope key (last rope_dim floats) of identical tokens at
  // different positions must differ; the latent must not.
  Rng rng(5);
  MlaAttention attn(cfg(), rng);
  const Tensor x = tokens(1, 32, 13);
  Tensor two({2, 32});
  std::copy(x.row(0).begin(), x.row(0).end(), two.row(0).begin());
  std::copy(x.row(0).begin(), x.row(0).end(), two.row(1).begin());
  KvState kv = attn.new_cache();
  attn.forward(two, kv, 0);
  const auto e0 = kv.row(0);
  const auto e1 = kv.row(1);
  float lat_diff = 0.0f, rope_diff = 0.0f;
  for (int j = 0; j < 8; ++j) {
    lat_diff = std::max(lat_diff, std::abs(e0[j] - e1[j]));
  }
  for (int j = 8; j < 12; ++j) {
    rope_diff = std::max(rope_diff, std::abs(e0[j] - e1[j]));
  }
  EXPECT_EQ(lat_diff, 0.0f);   // latent is position-free
  EXPECT_GT(rope_diff, 1e-5f);  // rope key is rotated
}

TEST(MlaAttention, ParamCountFormula) {
  Rng rng(6);
  const auto c = cfg(32, 4, 8, 8, 4);
  MlaAttention attn(c, rng);
  const std::size_t expected =
      32u * 32 +          // wq_nope [4*8, 32]
      16u * 32 +          // wq_rope [4*4, 32]
      8u * 32 +           // w_dkv
      4u * 32 +           // w_kr
      32u * 8 + 32u * 8 + // w_uk, w_uv
      32u * 32;           // wo
  EXPECT_EQ(attn.param_count(), expected);
}

TEST(MlaAttention, DiffersFromStandardAttention) {
  // Sanity: MLA and MHA are different functions even at matched dims.
  Rng rng1(7), rng2(7);
  MlaAttention mla(cfg(), rng1);
  Attention mha(AttentionConfig{32, 4, 4, 8}, rng2);
  const Tensor x = tokens(3, 32, 17);
  KvState mkv = mla.new_cache();
  KvState kv(AttentionConfig{32, 4, 4, 8});
  const Tensor ym = mla.forward(x, mkv, 0);
  const Tensor ya = mha.forward(x, kv, 0);
  EXPECT_GT(max_abs_diff(ym, ya), 1e-3f);
}

}  // namespace
}  // namespace mib::moe
