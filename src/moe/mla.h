// Functional Multi-head Latent Attention (DeepSeek-V2 style).
//
// MLA caches a low-rank latent per token instead of full K/V heads:
//   c_t  = W_dkv · x_t                (latent, rank r)
//   k_t^R = RoPE(W_kr · x_t)          (decoupled shared rope key)
//   K_t  = W_uk · c_t,  V_t = W_uv · c_t   (reconstructed at attention time)
// Its KvState rows (KvRow::kLatentRopeKey) hold only c_t then k_t^R:
// r + rope_dim floats per token per layer — the compression the engine's
// memory model charges for DeepSeek-V2-Lite and the VL2 family. RoPE, the
// per-head softmax step and the cache type are the ones Attention uses
// (moe/attention.h); MLA supplies only how a score and a value row are
// formed from a cached latent. This functional implementation lets tests
// verify (a) incremental == full recompute, (b) the cache really is
// smaller than MHA's, and (c) reconstruction round-trips the latent.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/tensor.h"
#include "moe/attention.h"

namespace mib::moe {

struct MlaConfig {
  int hidden = 0;
  int n_heads = 0;
  int head_dim = 0;      ///< per-head dim of reconstructed K(nope) and V
  int kv_rank = 0;       ///< latent dim r
  int rope_dim = 0;      ///< decoupled rope key dim (shared across heads)
  float rope_theta = 10000.0f;

  void validate() const;
  /// Cached floats per token (latent + rope key).
  int cache_dim() const { return kv_rank + rope_dim; }
};

class MlaAttention : public AttentionLayer {
 public:
  MlaAttention(MlaConfig cfg, Rng& rng);

  const MlaConfig& config() const { return cfg_; }

  Tensor forward(const Tensor& x, KvState& kv, int start_pos) const override;
  KvState new_cache() const override {
    return KvState(KvRow::kLatentRopeKey, cfg_.kv_rank, cfg_.rope_dim);
  }
  std::size_t param_count() const override;

 private:
  MlaConfig cfg_;
  std::vector<double> rope_freqs_;  // [rope_dim / 2]
  Tensor wq_nope_;  // [n_heads*head_dim, hidden]  (query, content part)
  Tensor wq_rope_;  // [n_heads*rope_dim, hidden]  (query, rope part)
  Tensor w_dkv_;    // [kv_rank, hidden]           (latent down-projection)
  Tensor w_kr_;     // [rope_dim, hidden]          (shared rope key)
  Tensor w_uk_;     // [n_heads*head_dim, kv_rank] (K up-projection)
  Tensor w_uv_;     // [n_heads*head_dim, kv_rank] (V up-projection)
  Tensor wo_;       // [hidden, n_heads*head_dim]
};

}  // namespace mib::moe
