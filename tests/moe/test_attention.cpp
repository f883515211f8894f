#include "moe/attention.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mib::moe {
namespace {

AttentionConfig cfg(int hidden = 32, int heads = 4, int kv_heads = 4,
                    int head_dim = 8) {
  return AttentionConfig{hidden, heads, kv_heads, head_dim};
}

Tensor tokens(int n, int hidden, std::uint64_t seed = 3) {
  Rng rng(seed);
  return Tensor::randn({static_cast<std::size_t>(n),
                        static_cast<std::size_t>(hidden)},
                       rng);
}

TEST(AttentionConfig, Validation) {
  cfg().validate();
  EXPECT_THROW(cfg(0).validate(), Error);
  EXPECT_THROW(cfg(32, 4, 3).validate(), Error);       // indivisible
  EXPECT_THROW(cfg(32, 4, 5).validate(), Error);       // kv > q
  EXPECT_THROW(cfg(32, 4, 4, 7).validate(), Error);    // odd head_dim
}

TEST(KvState, AppendAndRead) {
  KvState kv(cfg());
  EXPECT_EQ(kv.tokens(), 0);
  std::vector<float> k(32, 1.0f), v(32, 2.0f);
  kv.append(k, v);
  EXPECT_EQ(kv.tokens(), 1);
  ASSERT_EQ(kv.row(0).size(), 64u);  // K then V
  EXPECT_EQ(kv.row(0)[0], 1.0f);
  EXPECT_EQ(kv.row(0)[32], 2.0f);
  EXPECT_THROW(kv.row(1), Error);
  kv.clear();
  EXPECT_EQ(kv.tokens(), 0);
}

TEST(KvState, RowSizeChecked) {
  KvState kv(cfg());
  std::vector<float> bad(16, 0.0f), good(32, 0.0f);
  EXPECT_THROW(kv.append(bad, good), Error);
}

TEST(Attention, OutputShape) {
  Rng rng(1);
  Attention attn(cfg(), rng);
  KvState kv(cfg());
  const Tensor y = attn.forward(tokens(5, 32), kv, 0);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 32u);
  EXPECT_EQ(kv.tokens(), 5);
}

TEST(Attention, IncrementalMatchesFullSequence) {
  // The KV-cache correctness property: decoding token-by-token must equal
  // processing the whole sequence at once.
  Rng rng(2);
  Attention attn(cfg(), rng);
  const Tensor x = tokens(6, 32, 9);

  KvState kv_full(cfg());
  const Tensor full = attn.forward(x, kv_full, 0);

  KvState kv_inc(cfg());
  for (std::size_t t = 0; t < 6; ++t) {
    Tensor one({1, 32});
    std::copy(x.row(t).begin(), x.row(t).end(), one.row(0).begin());
    const Tensor y = attn.forward(one, kv_inc, static_cast<int>(t));
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_NEAR(y.at(0, j), full.at(t, j), 1e-5f)
          << "t=" << t << " j=" << j;
    }
  }
}

TEST(Attention, CausalityPastUnaffectedByFuture) {
  Rng rng(3);
  Attention attn(cfg(), rng);
  Tensor a = tokens(4, 32, 11);
  Tensor b = a;
  // Change only the last token of b.
  for (auto& v : b.row(3)) v += 1.0f;

  KvState kva(cfg()), kvb(cfg());
  const Tensor ya = attn.forward(a, kva, 0);
  const Tensor yb = attn.forward(b, kvb, 0);
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(ya.at(t, j), yb.at(t, j)) << "t=" << t;
    }
  }
  // The last output must differ.
  float diff = 0.0f;
  for (std::size_t j = 0; j < 32; ++j) {
    diff = std::max(diff, std::abs(ya.at(3, j) - yb.at(3, j)));
  }
  EXPECT_GT(diff, 1e-6f);
}

TEST(Attention, RopeEncodesPositionIntoCachedKeys) {
  // Identical token content at different positions must produce different
  // cached keys (RoPE is applied before caching) while the values — which
  // carry no positional encoding — stay identical.
  Rng rng(4);
  Attention attn(cfg(), rng);
  Tensor x = tokens(1, 32, 13);
  Tensor two({2, 32});
  std::copy(x.row(0).begin(), x.row(0).end(), two.row(0).begin());
  std::copy(x.row(0).begin(), x.row(0).end(), two.row(1).begin());

  KvState kv(cfg());
  attn.forward(two, kv, 0);
  const auto key = [&](int p) { return kv.row(p).first(32); };
  const auto value = [&](int p) { return kv.row(p).subspan(32); };
  float key_diff = 0.0f, value_diff = 0.0f, key_norm = 0.0f;
  for (std::size_t j = 0; j < key(0).size(); ++j) {
    key_diff = std::max(key_diff, std::abs(key(0)[j] - key(1)[j]));
    value_diff = std::max(value_diff, std::abs(value(0)[j] - value(1)[j]));
    key_norm = std::max(key_norm, std::abs(key(0)[j]));
  }
  EXPECT_GT(key_diff, 1e-4f * key_norm);
  EXPECT_EQ(value_diff, 0.0f);

  // And RoPE preserves per-pair norms (it is a rotation).
  for (int p : {0, 1}) {
    double norm = 0.0;
    for (float v : key(p)) norm += static_cast<double>(v) * v;
    if (p == 0) key_norm = static_cast<float>(norm);
    if (p == 1) {
      EXPECT_NEAR(static_cast<float>(norm), key_norm, 1e-3f * key_norm);
    }
  }
}

TEST(Attention, GqaSharesKvHeads) {
  // 4 query heads over 2 kv heads still runs and matches MHA shape.
  Rng rng(5);
  const auto c = cfg(32, 4, 2, 8);
  Attention attn(c, rng);
  KvState kv(c);
  const Tensor y = attn.forward(tokens(3, 32), kv, 0);
  EXPECT_EQ(y.dim(1), 32u);
  EXPECT_EQ(kv.tokens(), 3);
}

TEST(Attention, StartPosMustMatchCache) {
  Rng rng(6);
  Attention attn(cfg(), rng);
  KvState kv(cfg());
  attn.forward(tokens(2, 32), kv, 0);
  EXPECT_THROW(attn.forward(tokens(1, 32), kv, 0), Error);
  attn.forward(tokens(1, 32), kv, 2);  // correct continuation
}

TEST(Attention, SingleTokenAttendsToItself) {
  // With one cached position the attention weights are exactly 1: output
  // equals Wo * V for that token, independent of the Q values' scale.
  Rng rng(7);
  Attention attn(cfg(), rng);
  const Tensor x = tokens(1, 32, 17);
  KvState kv1(cfg()), kv2(cfg());
  const Tensor y1 = attn.forward(x, kv1, 0);
  // Scale the query weights: softmax over a single position is invariant.
  Attention attn2 = attn;
  scale_inplace(attn2.mutable_wq(), 3.0f);
  const Tensor y2 = attn2.forward(x, kv2, 0);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-5f);
}

TEST(RmsNorm, NormalizesRows) {
  RmsNorm norm(8);
  Tensor x = Tensor::full({2, 8}, 4.0f);
  norm.apply(x);
  for (float v : x.flat()) EXPECT_NEAR(v, 1.0f, 1e-4);
}

TEST(RmsNorm, WeightScales) {
  RmsNorm norm(4);
  for (auto& w : norm.weight()) w = 2.0f;
  Tensor x = Tensor::full({1, 4}, 1.0f);
  norm.apply(x);
  for (float v : x.flat()) EXPECT_NEAR(v, 2.0f, 1e-4);
}

TEST(RmsNorm, DimChecked) {
  RmsNorm norm(8);
  Tensor x({1, 4});
  EXPECT_THROW(norm.apply(x), Error);
  EXPECT_THROW(RmsNorm(0), Error);
}

}  // namespace
}  // namespace mib::moe
