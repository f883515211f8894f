#include "moe/vision_encoder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "moe/transformer.h"

namespace mib::moe {
namespace {

VisionEncoderConfig cfg() {
  VisionEncoderConfig c;
  c.image_size = 16;
  c.patch_size = 8;
  c.channels = 3;
  c.hidden = 32;
  c.n_heads = 4;
  c.n_layers = 2;
  c.mlp_dim = 64;
  c.llm_hidden = 48;
  return c;
}

Tensor image(const VisionEncoderConfig& c, std::uint64_t seed = 3) {
  Rng rng(seed);
  return Tensor::randn(
      {static_cast<std::size_t>(c.channels * c.image_size * c.image_size)},
      rng);
}

TEST(VisionEncoder, OutputShape) {
  const auto c = cfg();
  VisionEncoder enc(c, 1);
  const Tensor tokens = enc.encode(image(c));
  EXPECT_EQ(tokens.dim(0), 4u);   // (16/8)^2 patches
  EXPECT_EQ(tokens.dim(1), 48u);  // llm hidden
}

TEST(VisionEncoder, DeterministicAndSeedSensitive) {
  const auto c = cfg();
  VisionEncoder a(c, 7), b(c, 7), d(c, 8);
  const Tensor img = image(c);
  EXPECT_EQ(max_abs_diff(a.encode(img), b.encode(img)), 0.0f);
  EXPECT_GT(max_abs_diff(a.encode(img), d.encode(img)), 1e-3f);
}

TEST(VisionEncoder, ContentSensitivityIsGlobal) {
  // Bidirectional attention: perturbing ONE patch changes EVERY output
  // token (unlike causal attention, where earlier tokens are immune).
  const auto c = cfg();
  VisionEncoder enc(c, 9);
  Tensor a = image(c, 4);
  Tensor b = a;
  // Perturb the last patch's pixels (bottom-right window of channel 0).
  for (std::size_t i = 0; i < 16; ++i) {
    b.at(b.size() - 1 - i) += 1.0f;
  }
  const Tensor ya = enc.encode(a);
  const Tensor yb = enc.encode(b);
  for (std::size_t t = 0; t < ya.dim(0); ++t) {
    float diff = 0.0f;
    for (std::size_t j = 0; j < ya.dim(1); ++j) {
      diff = std::max(diff, std::abs(ya.at(t, j) - yb.at(t, j)));
    }
    EXPECT_GT(diff, 1e-6f) << "patch " << t;
  }
}

TEST(VisionEncoder, PositionEmbeddingBreaksPatchSymmetry) {
  // A uniform image has identical patches; only the positional embedding
  // separates the output tokens.
  const auto c = cfg();
  VisionEncoder enc(c, 11);
  const Tensor img = Tensor::full(
      {static_cast<std::size_t>(c.channels * c.image_size * c.image_size)},
      0.5f);
  const Tensor y = enc.encode(img);
  float diff = 0.0f;
  for (std::size_t j = 0; j < y.dim(1); ++j) {
    diff = std::max(diff, std::abs(y.at(0, j) - y.at(1, j)));
  }
  EXPECT_GT(diff, 1e-5f);
}

TEST(VisionEncoder, ParamCountPositiveAndScales) {
  auto small = cfg();
  auto big = cfg();
  big.n_layers = 4;
  EXPECT_GT(VisionEncoder(big, 1).param_count(),
            VisionEncoder(small, 1).param_count());
}

TEST(VisionEncoder, InputValidation) {
  const auto c = cfg();
  VisionEncoder enc(c, 1);
  Tensor wrong({16});
  EXPECT_THROW(enc.encode(wrong), Error);
  auto bad = cfg();
  bad.patch_size = 5;  // 16 % 5 != 0
  EXPECT_THROW(VisionEncoder(bad, 1), Error);
  bad = cfg();
  bad.n_heads = 0;  // rejected before hidden / n_heads is formed
  EXPECT_THROW(VisionEncoder(bad, 1), Error);
}

TEST(VisionEncoder, EndToEndVlmPipeline) {
  // Pixels -> patch tokens -> prepend to a text prompt -> MoE LLM decode:
  // the full functional VLM pipeline.
  const auto vc = cfg();
  VisionEncoder enc(vc, 21);
  const Tensor vis_tokens = enc.encode(image(vc, 13));

  TransformerConfig tc;
  tc.vocab = 64;
  tc.n_layers = 2;
  tc.hidden = 48;  // matches the projector output
  tc.n_heads = 4;
  tc.n_kv_heads = 4;
  tc.head_dim = 12;
  tc.n_experts = 4;
  tc.top_k = 2;
  tc.expert_ffn = 64;
  const Transformer llm(tc, 23);

  // Drive the LLM with the image tokens via embeddings is not exposed; the
  // pipeline check here is that the vision tokens have the right shape and
  // finite values to serve as soft prompt embeddings.
  EXPECT_EQ(vis_tokens.dim(1), static_cast<std::size_t>(tc.hidden));
  for (float v : vis_tokens.flat()) EXPECT_TRUE(std::isfinite(v));

  // And the LLM itself decodes normally after.
  auto s = llm.new_session();
  EXPECT_EQ(llm.generate({1, 2, 3}, 4, s).size(), 4u);
}

}  // namespace
}  // namespace mib::moe
