#include "moe/mla.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mib::moe {

void MlaConfig::validate() const {
  MIB_ENSURE(hidden > 0, "MLA hidden must be positive");
  MIB_ENSURE(n_heads > 0, "MLA needs heads");
  MIB_ENSURE(head_dim > 0, "MLA head_dim must be positive");
  MIB_ENSURE(kv_rank > 0, "MLA needs a positive latent rank");
  MIB_ENSURE(rope_dim >= 2 && rope_dim % 2 == 0,
             "rope_dim must be even and >= 2");
  MIB_ENSURE(rope_theta > 0, "rope_theta must be positive");
}

MlaAttention::MlaAttention(MlaConfig cfg, Rng& rng) : cfg_(cfg) {
  cfg_.validate();
  rope_freqs_ = rope_frequencies(cfg_.rope_dim, cfg_.rope_theta);
  const auto h = static_cast<std::size_t>(cfg_.hidden);
  const auto qd = static_cast<std::size_t>(cfg_.n_heads * cfg_.head_dim);
  const auto qr = static_cast<std::size_t>(cfg_.n_heads * cfg_.rope_dim);
  const auto r = static_cast<std::size_t>(cfg_.kv_rank);
  const float hs = 1.0f / std::sqrt(static_cast<float>(cfg_.hidden));
  const float rs = 1.0f / std::sqrt(static_cast<float>(cfg_.kv_rank));
  wq_nope_ = Tensor::randn({qd, h}, rng, hs);
  wq_rope_ = Tensor::randn({qr, h}, rng, hs);
  w_dkv_ = Tensor::randn({r, h}, rng, hs);
  w_kr_ = Tensor::randn({static_cast<std::size_t>(cfg_.rope_dim), h}, rng,
                        hs);
  w_uk_ = Tensor::randn({qd, r}, rng, rs);
  w_uv_ = Tensor::randn({qd, r}, rng, rs);
  wo_ = Tensor::randn({h, qd}, rng,
                      1.0f / std::sqrt(static_cast<float>(qd)));
}

Tensor MlaAttention::forward(const Tensor& x, KvState& kv,
                             int start_pos) const {
  MIB_ENSURE(x.rank() == 2 &&
                 x.dim(1) == static_cast<std::size_t>(cfg_.hidden),
             "MLA input must be [tokens, hidden]");
  MIB_ENSURE(kv.holds(KvRow::kLatentRopeKey, cfg_.kv_rank, cfg_.rope_dim),
             "KV cache rows are not this MLA layer's latent rows");
  MIB_ENSURE(start_pos == kv.tokens(),
             "start_pos must equal cached tokens");
  const std::size_t tokens = x.dim(0);
  const auto d = static_cast<std::size_t>(cfg_.head_dim);
  const auto rd = static_cast<std::size_t>(cfg_.rope_dim);
  const auto r = static_cast<std::size_t>(cfg_.kv_rank);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d + rd));

  Tensor q_nope, q_rope, latent, k_rope;
  matmul(x, wq_nope_, q_nope, true);  // [tokens, H*d]
  matmul(x, wq_rope_, q_rope, true);  // [tokens, H*rd]
  matmul(x, w_dkv_, latent, true);    // [tokens, r]
  matmul(x, w_kr_, k_rope, true);     // [tokens, rd]

  // RoPE the query rope-part per head and the shared rope key; cache
  // (latent, rope key).
  for (std::size_t t = 0; t < tokens; ++t) {
    const int pos = start_pos + static_cast<int>(t);
    auto qr_row = q_rope.row(t);
    for (int hh = 0; hh < cfg_.n_heads; ++hh) {
      apply_rope(qr_row.subspan(hh * rd, rd), pos, rope_freqs_);
    }
    apply_rope(k_rope.row(t), pos, rope_freqs_);
    kv.append(latent.row(t), k_rope.row(t));
  }

  // Up-project every position this forward attends to once: its K(nope)
  // heads W_uk · latent and its V heads W_uv · latent, [ctx, H*d] each.
  const std::size_t ctx = kv.tokens();
  Tensor lat({ctx, r});
  for (std::size_t p = 0; p < ctx; ++p) {
    const auto row = kv.row(static_cast<int>(p)).subspan(0, r);
    std::copy(row.begin(), row.end(), lat.row(p).begin());
  }
  Tensor k_nope, v_up;
  matmul(lat, w_uk_, k_nope, true);
  matmul(lat, w_uv_, v_up, true);

  Tensor attn_out({tokens, static_cast<std::size_t>(cfg_.n_heads) * d});
  std::vector<float> scores;
  for (std::size_t t = 0; t < tokens; ++t) {
    scores.resize(start_pos + t + 1);
    for (int hh = 0; hh < cfg_.n_heads; ++hh) {
      const auto qn = q_nope.row(t).subspan(hh * d, d);
      const auto qr = q_rope.row(t).subspan(hh * rd, rd);
      const auto score = [&](int p) {
        const auto kn = k_nope.row(p).subspan(hh * d, d);
        const auto row = kv.row(p);
        const auto kr = row.subspan(r, rd);
        float s = 0.0f;
        for (std::size_t i = 0; i < d; ++i) s += qn[i] * kn[i];
        // Shared rope-key term.
        for (std::size_t j = 0; j < rd; ++j) s += qr[j] * kr[j];
        return s;
      };
      const auto value = [&](int p) {
        return v_up.row(p).subspan(hh * d, d);
      };
      attend_head(scores, inv_sqrt, score, value,
                  attn_out.row(t).subspan(hh * d, d));
    }
  }

  Tensor out;
  matmul(attn_out, wo_, out, true);
  return out;
}

std::size_t MlaAttention::param_count() const {
  return wq_nope_.size() + wq_rope_.size() + w_dkv_.size() + w_kr_.size() +
         w_uk_.size() + w_uv_.size() + wo_.size();
}

}  // namespace mib::moe
