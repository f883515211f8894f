#include "moe/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "moe/mla.h"

namespace mib::moe {

void TransformerConfig::validate() const {
  MIB_ENSURE(vocab > 1, "vocab must exceed 1");
  MIB_ENSURE(n_layers >= 1, "need at least one layer");
  MIB_ENSURE(hidden > 0, "hidden must be positive");
  if (use_mla) {
    MlaConfig mc{hidden, n_heads, head_dim, mla_kv_rank, mla_rope_dim};
    mc.validate();
  } else {
    AttentionConfig ac{hidden, n_heads, n_kv_heads, head_dim};
    ac.validate();
  }
  if (is_moe()) {
    MIB_ENSURE(top_k >= 1 && top_k <= n_experts, "top_k out of range");
    MIB_ENSURE(expert_ffn > 0, "expert_ffn must be positive");
  } else {
    MIB_ENSURE(dense_ffn > 0, "dense_ffn must be positive");
  }
}

void Session::clear() {
  for (auto& kv : kv_) kv.clear();
  position_ = 0;
}

void Session::truncate(int position) {
  MIB_ENSURE(position >= 0 && position <= position_,
             "cannot truncate session to " << position << " of "
                                           << position_);
  for (auto& kv : kv_) kv.truncate(position);
  position_ = position;
}

std::size_t Session::kv_bytes() const {
  std::size_t b = 0;
  for (const auto& kv : kv_) b += kv.bytes();
  return b;
}

Transformer::Transformer(TransformerConfig cfg, std::uint64_t seed)
    : cfg_(cfg) {
  cfg_.validate();
  Rng rng(seed);
  const auto h = static_cast<std::size_t>(cfg_.hidden);
  const float emb_scale = 1.0f / std::sqrt(static_cast<float>(cfg_.hidden));
  embedding_ = Tensor::randn({static_cast<std::size_t>(cfg_.vocab), h}, rng,
                             emb_scale);
  lm_head_ = Tensor::randn({static_cast<std::size_t>(cfg_.vocab), h}, rng,
                           emb_scale);

  blocks_.resize(cfg_.n_layers);
  for (auto& b : blocks_) {
    b.attn_norm = std::make_unique<RmsNorm>(cfg_.hidden);
    Rng layer_rng = rng.split();
    if (cfg_.use_mla) {
      MlaConfig mc{cfg_.hidden, cfg_.n_heads, cfg_.head_dim,
                   cfg_.mla_kv_rank, cfg_.mla_rope_dim};
      b.attention = std::make_unique<MlaAttention>(mc, layer_rng);
    } else {
      AttentionConfig ac{cfg_.hidden, cfg_.n_heads, cfg_.n_kv_heads,
                         cfg_.head_dim};
      b.attention = std::make_unique<Attention>(ac, layer_rng);
    }
    b.ffn_norm = std::make_unique<RmsNorm>(cfg_.hidden);
    if (cfg_.is_moe()) {
      MoELayerConfig mc;
      mc.hidden = cfg_.hidden;
      mc.expert_ffn = cfg_.expert_ffn;
      mc.n_experts = cfg_.n_experts;
      mc.top_k = cfg_.top_k;
      mc.n_shared_experts = cfg_.n_shared_experts;
      mc.shared_expert_ffn = cfg_.shared_expert_ffn;
      b.moe = std::make_unique<MoELayer>(mc, layer_rng);
    } else {
      b.dense_ffn =
          std::make_unique<Expert>(cfg_.hidden, cfg_.dense_ffn, layer_rng);
    }
  }
  final_norm_ = std::make_unique<RmsNorm>(cfg_.hidden);
}

Session Transformer::new_session() const {
  Session s;
  for (const auto& b : blocks_) s.kv_.push_back(b.attention->new_cache());
  return s;
}

Tensor Transformer::forward(const std::vector<int>& token_ids,
                            Session& session) const {
  MIB_ENSURE(!token_ids.empty(), "forward needs at least one token");
  MIB_ENSURE(session.kv_.size() == blocks_.size(),
             "session does not belong to this model");
  const std::size_t tokens = token_ids.size();
  const auto h = static_cast<std::size_t>(cfg_.hidden);

  Tensor x({tokens, h});
  for (std::size_t t = 0; t < tokens; ++t) {
    MIB_ENSURE(token_ids[t] >= 0 && token_ids[t] < cfg_.vocab,
               "token id out of vocab: " << token_ids[t]);
    const auto src = embedding_.row(static_cast<std::size_t>(token_ids[t]));
    std::copy(src.begin(), src.end(), x.row(t).begin());
  }

  const int start = session.position_;
  for (int l = 0; l < cfg_.n_layers; ++l) {
    auto& b = blocks_[static_cast<std::size_t>(l)];
    Tensor normed = x;
    b.attn_norm->apply(normed);
    add_inplace(x, b.attention->forward(
                       normed, session.kv_[static_cast<std::size_t>(l)],
                       start));

    Tensor ffn_in = x;
    b.ffn_norm->apply(ffn_in);
    Tensor ffn_out = b.moe ? b.moe->forward_fused(ffn_in)
                           : b.dense_ffn->forward(ffn_in);
    add_inplace(x, ffn_out);
  }
  session.position_ += static_cast<int>(tokens);

  final_norm_->apply(x);
  Tensor logits;
  matmul(x, lm_head_, logits, /*b_transposed=*/true);  // [tokens, vocab]
  return logits;
}

std::vector<int> Transformer::generate(const std::vector<int>& prompt,
                                       int max_new, Session& session) const {
  MIB_ENSURE(max_new >= 0, "negative generation length");
  std::vector<int> out;
  out.reserve(max_new);
  Tensor logits = forward(prompt, session);
  int next = greedy_sample(logits.row(logits.dim(0) - 1));
  for (int i = 0; i < max_new; ++i) {
    out.push_back(next);
    if (i + 1 == max_new) break;
    logits = forward({next}, session);
    next = greedy_sample(logits.row(0));
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> Transformer::activation_counts()
    const {
  std::vector<std::vector<std::uint64_t>> out;
  for (const auto& b : blocks_) {
    if (b.moe) out.push_back(b.moe->router().activation_counts());
  }
  return out;
}

void Transformer::reset_activation_counts() {
  for (auto& b : blocks_) {
    if (b.moe) b.moe->router().reset_counts();
  }
}

MoELayer& Transformer::moe_layer(int layer) {
  MIB_ENSURE(layer >= 0 && layer < cfg_.n_layers, "layer out of range");
  auto& b = blocks_[static_cast<std::size_t>(layer)];
  MIB_ENSURE(b.moe != nullptr, "layer " << layer << " has a dense FFN");
  return *b.moe;
}

std::size_t Transformer::param_count() const {
  std::size_t p = embedding_.size() + lm_head_.size();
  for (const auto& b : blocks_) {
    p += b.attention->param_count();
    p += 2u * static_cast<std::size_t>(cfg_.hidden);  // norms
    if (b.moe) {
      p += b.moe->total_params();
    } else {
      p += b.dense_ffn->param_count();
    }
  }
  p += static_cast<std::size_t>(cfg_.hidden);  // final norm
  return p;
}

std::vector<int> speculative_generate(const Transformer& target,
                                      const Transformer& draft,
                                      const std::vector<int>& prompt,
                                      int max_new, int draft_tokens,
                                      SpeculativeStats* stats) {
  MIB_ENSURE(max_new >= 0, "negative generation length");
  MIB_ENSURE(draft_tokens >= 1, "need at least one draft token per cycle");
  MIB_ENSURE(target.config().vocab == draft.config().vocab,
             "speculative decoding requires a shared vocabulary");

  auto ts = target.new_session();
  auto ds = draft.new_session();

  std::vector<int> out;
  out.reserve(max_new);

  // Prefill both models; the target's last-position logits pick token 1.
  Tensor tlogits = target.forward(prompt, ts);
  draft.forward(prompt, ds);
  if (stats) ++stats->target_passes;
  int last = greedy_sample(tlogits.row(tlogits.dim(0) - 1));

  while (static_cast<int>(out.size()) < max_new) {
    out.push_back(last);
    if (static_cast<int>(out.size()) == max_new) break;
    const int remaining = max_new - static_cast<int>(out.size());
    const int k = std::min(draft_tokens, remaining);

    // Draft proposes k tokens greedily, starting from `last`.
    std::vector<int> proposal;
    proposal.reserve(k);
    Tensor dlogits = draft.forward({last}, ds);
    for (int i = 0; i < k; ++i) {
      const int tok = greedy_sample(dlogits.row(0));
      proposal.push_back(tok);
      if (i + 1 < k) dlogits = draft.forward({tok}, ds);
    }

    // Target scores `last` followed by the proposal in ONE forward pass;
    // position j's logits give the target's own next token after seeing
    // proposal[0..j-1].
    std::vector<int> block;
    block.push_back(last);
    block.insert(block.end(), proposal.begin(), proposal.end());
    const int t_before = ts.position();
    tlogits = target.forward(block, ts);
    if (stats) {
      ++stats->target_passes;
      stats->proposed += k;
    }

    int accepted = 0;
    int corrected = greedy_sample(tlogits.row(0));
    while (accepted < k && proposal[accepted] == corrected) {
      out.push_back(proposal[accepted]);
      ++accepted;
      if (static_cast<int>(out.size()) == max_new) break;
      corrected = greedy_sample(tlogits.row(accepted));
    }
    if (stats) stats->accepted += accepted;
    if (static_cast<int>(out.size()) == max_new) break;

    // The first divergence (or the bonus position) supplies the next token
    // from the TARGET's distribution — this is what makes the output
    // identical to plain target decoding.
    last = corrected;

    // Roll back the speculative tail: target keeps the accepted prefix;
    // the draft must hold exactly the same history before the next cycle.
    ts.truncate(t_before + 1 + accepted);
    if (ds.position() > ts.position()) {
      ds.truncate(ts.position());
    } else if (ds.position() < ts.position()) {
      // Full acceptance: the draft never ingested its own last proposal —
      // replay the missing tail of the emitted stream.
      std::vector<int> missing(out.end() - (ts.position() - ds.position()),
                               out.end());
      draft.forward(missing, ds);
    }
  }
  return out;
}

int greedy_sample(std::span<const float> logits) {
  MIB_ENSURE(!logits.empty(), "empty logits");
  int best = 0;
  float best_v = logits[0];
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > best_v) {
      best_v = logits[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace mib::moe
