// A complete, executable MoE transformer (CPU, small scale).
//
// This is the functional counterpart of the serving simulator: embedding
// -> N x (RMSNorm -> attention+KV cache -> RMSNorm -> MoE/dense FFN) ->
// final norm -> LM head, with incremental decoding and greedy sampling.
// Every block's attention is MHA/GQA or, with use_mla, MLA; the choice is
// made once, when the blocks are built. A Session holds one KvState per
// layer whose rows are that attention's: K then V for MHA/GQA, the latent
// then the shared rope key for MLA (moe/attention.h).
// It exists so the suite's claims rest on a running system: tests verify
// that incremental decode with the KV cache reproduces full-sequence
// recomputation bit-for-bit (to float tolerance), that causality holds,
// and that router statistics accumulate exactly as the analytic model
// assumes.
#pragma once

#include <memory>
#include <vector>

#include "moe/attention.h"
#include "moe/moe_layer.h"

namespace mib::moe {

struct TransformerConfig {
  int vocab = 256;
  int n_layers = 2;
  int hidden = 64;
  int n_heads = 4;
  int n_kv_heads = 4;
  int head_dim = 16;
  /// Use Multi-head Latent Attention (compressed KV) instead of MHA/GQA.
  bool use_mla = false;
  int mla_kv_rank = 16;
  int mla_rope_dim = 8;
  /// MoE geometry; n_experts == 0 makes every FFN dense with dense_ffn.
  int n_experts = 4;
  int top_k = 2;
  int expert_ffn = 128;
  int n_shared_experts = 0;
  int shared_expert_ffn = 0;
  int dense_ffn = 128;

  void validate() const;
  bool is_moe() const { return n_experts > 0; }
};

/// Decoding session state: one KV cache per layer plus the position.
class Session {
 public:
  Session() = default;

  int position() const { return position_; }
  void clear();

  /// Bytes held by the per-layer KV caches (fp32 functional storage).
  std::size_t kv_bytes() const;

  /// Roll every layer's cache back to `position` tokens (speculative
  /// decoding rejects the tail).
  void truncate(int position);

 private:
  friend class Transformer;
  std::vector<KvState> kv_;  // one per layer
  int position_ = 0;
};

class Transformer {
 public:
  Transformer(TransformerConfig cfg, std::uint64_t seed);

  const TransformerConfig& config() const { return cfg_; }

  /// Start a decoding session (allocates per-layer KV caches).
  Session new_session() const;

  /// Forward `token_ids` through the model continuing `session`; returns
  /// logits [tokens, vocab] and advances the session.
  Tensor forward(const std::vector<int>& token_ids, Session& session) const;

  /// Greedy generation: prefill `prompt`, then emit `max_new` tokens.
  std::vector<int> generate(const std::vector<int>& prompt, int max_new,
                            Session& session) const;

  /// Per-layer router activation counts (empty for dense FFNs).
  std::vector<std::vector<std::uint64_t>> activation_counts() const;
  void reset_activation_counts();

  MoELayer& moe_layer(int layer);
  std::size_t param_count() const;

 private:
  struct Block {
    std::unique_ptr<RmsNorm> attn_norm;
    std::unique_ptr<AttentionLayer> attention;  // MHA/GQA or MLA
    std::unique_ptr<RmsNorm> ffn_norm;
    std::unique_ptr<MoELayer> moe;      // one of moe / dense is set
    std::unique_ptr<Expert> dense_ffn;  // dense FFN reuses the Expert math
  };

  TransformerConfig cfg_;
  Tensor embedding_;  // [vocab, hidden]
  std::vector<Block> blocks_;
  std::unique_ptr<RmsNorm> final_norm_;
  Tensor lm_head_;  // [vocab, hidden]
};

/// Argmax over a logits row (deterministic tie-break toward lower id).
int greedy_sample(std::span<const float> logits);

/// Functional speculative decoding with greedy (lossless) verification:
/// the draft proposes `draft_tokens` greedily, the target scores the whole
/// proposal in one forward pass and accepts the longest prefix matching
/// its own greedy choices; rejected tokens roll both KV caches back. The
/// output is therefore *identical* to target.generate() — the correctness
/// contract of speculative decoding — while target forward passes shrink
/// by the measured acceptance rate.
struct SpeculativeStats {
  long long proposed = 0;
  long long accepted = 0;
  long long target_passes = 0;

  double acceptance_rate() const {
    return proposed > 0 ? static_cast<double>(accepted) / proposed : 0.0;
  }
};

std::vector<int> speculative_generate(const Transformer& target,
                                      const Transformer& draft,
                                      const std::vector<int>& prompt,
                                      int max_new, int draft_tokens,
                                      SpeculativeStats* stats = nullptr);

}  // namespace mib::moe
