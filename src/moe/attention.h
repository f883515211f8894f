// Functional causal self-attention with RoPE and an incremental KV cache —
// the attention half of the executable MoE transformer (moe/transformer.h).
//
// Both attention kinds share one cache type, KvState, that keeps one row
// per position:
//   * MHA/GQA (Attention, this file): the position's K then V, kv_dim
//     floats each (n_kv_heads <= n_heads; each KV head serves a group of
//     query heads);
//   * MLA (MlaAttention, moe/mla.h): the latent then the shared rope key.
// They also share one RoPE (apply_rope over a frequency table each layer
// computes at construction) and one per-head causal step (attend_head);
// each kind supplies only how a score and a value row are formed.
//
// This is real numerics at small scale: tests verify causality, the
// equivalence of incremental decoding with full-sequence recomputation,
// and GQA head-group sharing.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/tensor.h"

namespace mib::moe {

struct AttentionConfig {
  int hidden = 0;
  int n_heads = 0;
  int n_kv_heads = 0;
  int head_dim = 0;
  float rope_theta = 10000.0f;

  void validate() const;
  int q_dim() const { return n_heads * head_dim; }
  int kv_dim() const { return n_kv_heads * head_dim; }
};

/// What the rows of a KvState hold.
enum class KvRow {
  kKeyValue,       ///< MHA/GQA: K then V, kv_dim floats each
  kLatentRopeKey,  ///< MLA: the latent (kv_rank), then the rope key (rope_dim)
};

/// Per-sequence cache of one attention layer: one row per position, each
/// row `first` floats then `second` floats, as `kind` names them.
class KvState {
 public:
  KvState() = default;
  /// MHA/GQA cache for `cfg`: rows of K then V.
  explicit KvState(const AttentionConfig& cfg);
  KvState(KvRow kind, int first, int second);

  /// Whether rows are `kind` rows of `first` then `second` floats (an
  /// attention layer refuses any other cache).
  bool holds(KvRow kind, int first, int second) const {
    return kind_ == kind && first_ == first && dim_ == first + second;
  }

  int tokens() const { return tokens_; }
  void clear();

  /// Append one position's row: `first`, then `second`.
  void append(std::span<const float> first, std::span<const float> second);

  std::span<const float> row(int pos) const;

  /// Bytes held by the cache (fp32 functional storage).
  std::size_t bytes() const { return data_.size() * sizeof(float); }

  /// Roll the cache back to `tokens` positions (speculative-decoding
  /// rejection discards the KV of rejected tokens).
  void truncate(int tokens);

 private:
  KvRow kind_ = KvRow::kKeyValue;
  int first_ = 0;
  int dim_ = 0;
  int tokens_ = 0;
  std::vector<float> data_;  // [tokens, dim]
};

/// RoPE inverse frequencies theta^(-2i/dim) for i < dim / 2.
std::vector<double> rope_frequencies(int dim, float theta);

/// Rotate each pair (row[2i], row[2i+1]) of a 2 * freqs.size() float row
/// by the angle pos * freqs[i].
void apply_rope(std::span<float> row, int pos, std::span<const double> freqs);

/// One head's causal step over cache positions [0, scores.size()):
/// s_p = score(p) * scale, then out = sum_p softmax(s)_p * value(p).
/// `score(p)` returns the raw q·k at p and `value(p)` the head's value row
/// at p; `scores` is scratch sized to the context.
template <class Score, class Value>
void attend_head(std::vector<float>& scores, float scale, const Score& score,
                 const Value& value, std::span<float> out) {
  const int ctx = static_cast<int>(scores.size());
  float mx = -1e30f;
  for (int p = 0; p < ctx; ++p) {
    scores[p] = score(p) * scale;
    mx = std::max(mx, scores[p]);
  }
  float denom = 0.0f;
  for (int p = 0; p < ctx; ++p) {
    scores[p] = std::exp(scores[p] - mx);
    denom += scores[p];
  }
  std::fill(out.begin(), out.end(), 0.0f);
  for (int p = 0; p < ctx; ++p) {
    const float w = scores[p] / denom;
    const std::span<const float> v = value(p);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * v[i];
  }
}

/// What the transformer holds a block's attention through: MHA/GQA
/// (Attention) or MLA (MlaAttention), chosen when the blocks are built.
class AttentionLayer {
 public:
  AttentionLayer() = default;
  AttentionLayer(const AttentionLayer&) = default;
  AttentionLayer(AttentionLayer&&) = default;
  AttentionLayer& operator=(const AttentionLayer&) = default;
  AttentionLayer& operator=(AttentionLayer&&) = default;
  virtual ~AttentionLayer() = default;

  /// Causal forward over `x` [tokens, hidden] starting at absolute
  /// position `start_pos`; the new tokens' rows are appended to `kv`.
  /// Returns [tokens, hidden]. Incremental decode passes one token at a
  /// time with the running cache.
  virtual Tensor forward(const Tensor& x, KvState& kv,
                         int start_pos) const = 0;

  /// An empty cache of the rows this layer reads and writes.
  virtual KvState new_cache() const = 0;

  virtual std::size_t param_count() const = 0;
};

/// Multi-head (MHA) or grouped-query (GQA) attention.
class Attention : public AttentionLayer {
 public:
  Attention(AttentionConfig cfg, Rng& rng);

  const AttentionConfig& config() const { return cfg_; }

  Tensor forward(const Tensor& x, KvState& kv, int start_pos) const override;
  KvState new_cache() const override { return KvState(cfg_); }
  std::size_t param_count() const override;

  Tensor& mutable_wq() { return wq_; }

 private:
  AttentionConfig cfg_;
  std::vector<double> rope_freqs_;  // [head_dim / 2]
  Tensor wq_;  // [q_dim, hidden]
  Tensor wk_;  // [kv_dim, hidden]
  Tensor wv_;  // [kv_dim, hidden]
  Tensor wo_;  // [hidden, q_dim]
};

/// RMSNorm: y = x / rms(x) * weight.
class RmsNorm {
 public:
  explicit RmsNorm(int dim, float eps = 1e-5f);

  /// Normalize each row of x [tokens, dim] in place.
  void apply(Tensor& x) const;

  std::span<float> weight() { return {w_.data(), w_.size()}; }

 private:
  std::vector<float> w_;
  float eps_;
};

}  // namespace mib::moe
