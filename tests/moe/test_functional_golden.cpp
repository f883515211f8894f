// Functional-stack contract: exact outputs of the CPU MoE stack on a fixed
// set of small inputs.
//
// Each row pins a 64-bit FNV-1a digest over the float bits (and, for
// speculative decoding, the token ids and counters) that one entry point
// produces: MHA, GQA and MLA transformer logits over a prefill followed by
// single-token greedy decode steps, a forward after `Session::truncate`,
// `speculative_generate`, `VisionEncoder::encode`, and both `MoELayer`
// execution paths. The other functional tests compare within tolerances;
// this one fails on any change to the arithmetic or its order. On a
// mismatch the failure message prints the row as it should be pasted.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "moe/moe_layer.h"
#include "moe/transformer.h"
#include "moe/vision_encoder.h"

namespace mib::moe {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void t(const Tensor& x) {
    u(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, x.data() + i, sizeof bits);
      u(bits);
    }
  }
};

TransformerConfig mha() {
  TransformerConfig c;
  c.vocab = 64;
  c.n_layers = 2;
  c.hidden = 32;
  c.n_heads = 4;
  c.n_kv_heads = 4;
  c.head_dim = 8;
  c.n_experts = 4;
  c.top_k = 2;
  c.expert_ffn = 48;
  return c;
}

TransformerConfig gqa() {
  auto c = mha();
  c.n_kv_heads = 2;
  c.n_shared_experts = 1;
  c.shared_expert_ffn = 24;
  return c;
}

TransformerConfig mla() {
  auto c = mha();
  c.use_mla = true;
  c.mla_kv_rank = 8;
  c.mla_rope_dim = 4;
  return c;
}

std::vector<int> prompt(int n) {
  std::vector<int> p;
  for (int i = 0; i < n; ++i) p.push_back((7 * i + 3) % 64);
  return p;
}

/// Logits of a 24-token prefill, then of 12 greedy single-token steps.
std::uint64_t decode_digest(const TransformerConfig& c) {
  const Transformer model(c, 21);
  auto s = model.new_session();
  Fnv f;
  Tensor logits = model.forward(prompt(24), s);
  f.t(logits);
  for (int step = 0; step < 12; ++step) {
    const int next = greedy_sample(logits.row(logits.dim(0) - 1));
    logits = model.forward({next}, s);
    f.t(logits);
  }
  return f.h;
}

/// Logits of a 5-token forward after rolling a 16-token session back to 9.
std::uint64_t truncate_digest(const TransformerConfig& c) {
  const Transformer model(c, 22);
  auto s = model.new_session();
  model.forward(prompt(16), s);
  s.truncate(9);
  Fnv f;
  f.u(s.kv_bytes());
  f.t(model.forward({5, 9, 2, 6, 5}, s));
  return f.h;
}

std::uint64_t speculative_digest() {
  auto draft_cfg = mha();
  draft_cfg.n_layers = 1;
  const Transformer target(mha(), 23);
  const Transformer draft(draft_cfg, 23);
  SpeculativeStats stats;
  const auto out =
      speculative_generate(target, draft, prompt(6), 20, 3, &stats);
  Fnv f;
  for (int tok : out) f.u(static_cast<std::uint64_t>(tok));
  f.u(static_cast<std::uint64_t>(stats.proposed));
  f.u(static_cast<std::uint64_t>(stats.accepted));
  f.u(static_cast<std::uint64_t>(stats.target_passes));
  return f.h;
}

std::uint64_t vision_digest() {
  VisionEncoderConfig c;
  c.image_size = 16;
  c.patch_size = 4;
  c.hidden = 32;
  c.n_heads = 4;
  c.mlp_dim = 64;
  c.llm_hidden = 32;
  const VisionEncoder enc(c, 24);
  Rng rng(25);
  Fnv f;
  f.t(enc.encode(Tensor::randn(
      {static_cast<std::size_t>(c.channels * c.image_size * c.image_size)},
      rng)));
  return f.h;
}

std::uint64_t moe_layer_digest(bool fused) {
  MoELayerConfig c;
  c.hidden = 32;
  c.expert_ffn = 48;
  c.n_experts = 8;
  c.top_k = 2;
  c.n_shared_experts = 1;
  c.shared_expert_ffn = 16;
  Rng rng(26);
  MoELayer layer(c, rng);
  Rng xrng(27);
  const Tensor x = Tensor::randn({20, 32}, xrng);
  ThreadPool pool(2);
  Fnv f;
  f.t(fused ? layer.forward_fused(x, &pool) : layer.forward_staged(x));
  return f.h;
}

struct Golden {
  const char* name;
  std::function<std::uint64_t()> run;
  std::uint64_t digest;
};

TEST(FunctionalGolden, BitwiseIdentical) {
  const std::vector<Golden> rows = {
      {"mha-decode", [] { return decode_digest(mha()); },
       0x7e1e1f3f0088c3daull},
      {"gqa-decode", [] { return decode_digest(gqa()); },
       0x6dbaf956aff277bcull},
      {"mla-decode", [] { return decode_digest(mla()); },
       0x74b6533f83d11c1bull},
      {"mha-truncate", [] { return truncate_digest(mha()); },
       0x53203276059569f6ull},
      {"mla-truncate", [] { return truncate_digest(mla()); },
       0x97b6017bd4cf20b2ull},
      {"speculative", speculative_digest, 0x1a2d9d606011cb93ull},
      {"vision-encode", vision_digest, 0xfbf69b70caaf8bd9ull},
      {"moe-fused", [] { return moe_layer_digest(true); },
       0x227fd43d19478aaeull},
      {"moe-staged", [] { return moe_layer_digest(false); },
       0x227fd43d19478aaeull},
  };
  for (const auto& g : rows) {
    const std::uint64_t got = g.run();
    char line[128];
    std::snprintf(line, sizeof line, "{\"%s\", ..., 0x%016" PRIx64 "ull},",
                  g.name, got);
    EXPECT_EQ(got, g.digest) << line;
  }
}

}  // namespace
}  // namespace mib::moe
