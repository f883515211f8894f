#include "moe/attention.h"

#include <cmath>

#include "common/error.h"

namespace mib::moe {

void AttentionConfig::validate() const {
  MIB_ENSURE(hidden > 0, "attention hidden must be positive");
  MIB_ENSURE(n_heads > 0, "n_heads must be positive");
  MIB_ENSURE(n_kv_heads > 0 && n_kv_heads <= n_heads,
             "n_kv_heads must be in [1, n_heads]");
  MIB_ENSURE(n_heads % n_kv_heads == 0,
             "n_heads must be divisible by n_kv_heads");
  MIB_ENSURE(head_dim > 0 && head_dim % 2 == 0,
             "head_dim must be positive and even (RoPE pairs)");
  MIB_ENSURE(rope_theta > 0, "rope_theta must be positive");
}

KvState::KvState(const AttentionConfig& cfg)
    : KvState(KvRow::kKeyValue, cfg.kv_dim(), cfg.kv_dim()) {
  cfg.validate();
}

KvState::KvState(KvRow kind, int first, int second)
    : kind_(kind), first_(first), dim_(first + second) {}

void KvState::clear() {
  tokens_ = 0;
  data_.clear();
}

void KvState::append(std::span<const float> first,
                     std::span<const float> second) {
  MIB_ENSURE(dim_ > 0, "KvState not initialized");
  MIB_ENSURE(first.size() == static_cast<std::size_t>(first_) &&
                 first.size() + second.size() ==
                     static_cast<std::size_t>(dim_),
             "KV row size mismatch");
  data_.insert(data_.end(), first.begin(), first.end());
  data_.insert(data_.end(), second.begin(), second.end());
  ++tokens_;
}

void KvState::truncate(int tokens) {
  MIB_ENSURE(tokens >= 0 && tokens <= tokens_,
             "cannot truncate to " << tokens << " of " << tokens_);
  tokens_ = tokens;
  data_.resize(static_cast<std::size_t>(tokens) * dim_);
}

std::span<const float> KvState::row(int pos) const {
  MIB_ENSURE(pos >= 0 && pos < tokens_, "KV position out of range");
  return {data_.data() + static_cast<std::size_t>(pos) * dim_,
          static_cast<std::size_t>(dim_)};
}

std::vector<double> rope_frequencies(int dim, float theta) {
  std::vector<double> freqs(static_cast<std::size_t>(dim / 2));
  for (int i = 0; i < dim / 2; ++i) {
    freqs[i] = 1.0 / std::pow(theta, 2.0 * i / static_cast<double>(dim));
  }
  return freqs;
}

void apply_rope(std::span<float> row, int pos,
                std::span<const double> freqs) {
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double angle = pos * freqs[i];
    const float cs = static_cast<float>(std::cos(angle));
    const float sn = static_cast<float>(std::sin(angle));
    const float a = row[2 * i];
    const float b = row[2 * i + 1];
    row[2 * i] = a * cs - b * sn;
    row[2 * i + 1] = a * sn + b * cs;
  }
}

Attention::Attention(AttentionConfig cfg, Rng& rng) : cfg_(cfg) {
  cfg_.validate();
  rope_freqs_ = rope_frequencies(cfg_.head_dim, cfg_.rope_theta);
  const auto h = static_cast<std::size_t>(cfg_.hidden);
  const float scale = 1.0f / std::sqrt(static_cast<float>(cfg_.hidden));
  wq_ = Tensor::randn({static_cast<std::size_t>(cfg_.q_dim()), h}, rng,
                      scale);
  wk_ = Tensor::randn({static_cast<std::size_t>(cfg_.kv_dim()), h}, rng,
                      scale);
  wv_ = Tensor::randn({static_cast<std::size_t>(cfg_.kv_dim()), h}, rng,
                      scale);
  wo_ = Tensor::randn({h, static_cast<std::size_t>(cfg_.q_dim())}, rng,
                      1.0f / std::sqrt(static_cast<float>(cfg_.q_dim())));
}

Tensor Attention::forward(const Tensor& x, KvState& kv, int start_pos) const {
  MIB_ENSURE(x.rank() == 2 &&
                 x.dim(1) == static_cast<std::size_t>(cfg_.hidden),
             "attention input must be [tokens, hidden]");
  MIB_ENSURE(kv.holds(KvRow::kKeyValue, cfg_.kv_dim(), cfg_.kv_dim()),
             "KV cache rows are not this attention's K/V rows");
  MIB_ENSURE(start_pos == kv.tokens(),
             "start_pos " << start_pos << " must equal cached tokens "
                          << kv.tokens());
  const std::size_t tokens = x.dim(0);
  const auto d = static_cast<std::size_t>(cfg_.head_dim);
  const auto kv_dim = static_cast<std::size_t>(cfg_.kv_dim());
  const int group = cfg_.n_heads / cfg_.n_kv_heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));

  // Projections for the new tokens.
  Tensor q, k, v;
  matmul(x, wq_, q, /*b_transposed=*/true);  // [tokens, q_dim]
  matmul(x, wk_, k, /*b_transposed=*/true);  // [tokens, kv_dim]
  matmul(x, wv_, v, /*b_transposed=*/true);

  // RoPE on Q and K, then append K/V to the cache.
  for (std::size_t t = 0; t < tokens; ++t) {
    const int pos = start_pos + static_cast<int>(t);
    auto qrow = q.row(t);
    for (int hh = 0; hh < cfg_.n_heads; ++hh) {
      apply_rope(qrow.subspan(hh * d, d), pos, rope_freqs_);
    }
    auto krow = k.row(t);
    for (int hh = 0; hh < cfg_.n_kv_heads; ++hh) {
      apply_rope(krow.subspan(hh * d, d), pos, rope_freqs_);
    }
    kv.append(krow, v.row(t));
  }

  // Causal attention: token t attends to cache positions [0, start_pos+t].
  Tensor attn_out({tokens, static_cast<std::size_t>(cfg_.q_dim())});
  std::vector<float> scores;
  for (std::size_t t = 0; t < tokens; ++t) {
    scores.resize(start_pos + t + 1);
    for (int hh = 0; hh < cfg_.n_heads; ++hh) {
      const std::size_t kv_off = static_cast<std::size_t>(hh / group) * d;
      const auto qh = q.row(t).subspan(hh * d, d);
      const auto score = [&](int p) {
        const auto kh = kv.row(p).subspan(kv_off, d);
        float s = 0.0f;
        for (std::size_t i = 0; i < d; ++i) s += qh[i] * kh[i];
        return s;
      };
      const auto value = [&](int p) {
        return kv.row(p).subspan(kv_dim + kv_off, d);
      };
      attend_head(scores, inv_sqrt_d, score, value,
                  attn_out.row(t).subspan(hh * d, d));
    }
  }

  Tensor out;
  matmul(attn_out, wo_, out, /*b_transposed=*/true);  // [tokens, hidden]
  return out;
}

std::size_t Attention::param_count() const {
  return wq_.size() + wk_.size() + wv_.size() + wo_.size();
}

RmsNorm::RmsNorm(int dim, float eps) : w_(dim, 1.0f), eps_(eps) {
  MIB_ENSURE(dim > 0, "RmsNorm dim must be positive");
}

void RmsNorm::apply(Tensor& x) const {
  MIB_ENSURE(x.rank() == 2 && x.dim(1) == w_.size(),
             "RmsNorm dim mismatch");
  for (std::size_t t = 0; t < x.dim(0); ++t) {
    auto row = x.row(t);
    double ss = 0.0;
    for (float v : row) ss += static_cast<double>(v) * v;
    const float inv_rms = static_cast<float>(
        1.0 / std::sqrt(ss / static_cast<double>(row.size()) + eps_));
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = row[i] * inv_rms * w_[i];
    }
  }
}

}  // namespace mib::moe
