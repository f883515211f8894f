#include "moe/moe_layer.h"

#include <algorithm>

#include "common/error.h"

namespace mib::moe {

void MoELayerConfig::validate() const {
  MIB_ENSURE(hidden > 0, "hidden must be positive");
  MIB_ENSURE(expert_ffn > 0, "expert_ffn must be positive");
  MIB_ENSURE(n_experts > 0, "n_experts must be positive");
  MIB_ENSURE(top_k >= 1 && top_k <= n_experts, "top_k out of range");
  MIB_ENSURE(n_shared_experts >= 0, "negative shared experts");
  if (n_shared_experts > 0) {
    MIB_ENSURE(shared_expert_ffn > 0, "shared experts need a ffn dim");
  }
}

MoELayer::MoELayer(MoELayerConfig cfg, Rng& rng) : cfg_(cfg) {
  cfg_.validate();
  RouterConfig rc;
  rc.hidden = cfg_.hidden;
  rc.n_experts = cfg_.n_experts;
  rc.top_k = cfg_.top_k;
  rc.order = cfg_.order;
  rc.renormalize = cfg_.renormalize;
  router_ = std::make_unique<Router>(rc, rng);

  experts_.reserve(cfg_.n_experts);
  for (int e = 0; e < cfg_.n_experts; ++e) {
    experts_.emplace_back(cfg_.hidden, cfg_.expert_ffn, rng);
  }
  for (int s = 0; s < cfg_.n_shared_experts; ++s) {
    shared_.emplace_back(cfg_.hidden, cfg_.shared_expert_ffn, rng);
  }
}

Expert& MoELayer::expert(int i) {
  MIB_ENSURE(i >= 0 && i < n_experts(), "expert index out of range");
  return experts_[i];
}

const Expert& MoELayer::expert(int i) const {
  MIB_ENSURE(i >= 0 && i < n_experts(), "expert index out of range");
  return experts_[i];
}

Expert& MoELayer::shared_expert(int i) {
  MIB_ENSURE(i >= 0 && i < static_cast<int>(shared_.size()),
             "shared expert index out of range");
  return shared_[i];
}

void MoELayer::add_shared(const Tensor& x, Tensor& y) const {
  std::vector<float> tmp(cfg_.hidden);
  for (const auto& s : shared_) {
    for (std::size_t t = 0; t < x.dim(0); ++t) {
      s.forward(x.row(t), tmp);
      auto yr = y.row(t);
      for (std::size_t j = 0; j < yr.size(); ++j) yr[j] += tmp[j];
    }
  }
}

MoELayer::Assignment MoELayer::gather_lists(const Tensor& x) {
  MIB_ENSURE(x.rank() == 2 && x.dim(1) == static_cast<std::size_t>(cfg_.hidden),
             "MoE input must be [tokens, hidden]");
  const auto routes = router_->route(x);
  Assignment assignment(experts_.size());
  for (std::size_t t = 0; t < routes.size(); ++t) {
    const TokenRoute& r = routes[t];
    for (std::size_t j = 0; j < r.experts.size(); ++j) {
      assignment[r.experts[j]].push_back({t, r.weights[j]});
    }
  }
  return assignment;
}

Tensor MoELayer::forward_staged(const Tensor& x) {
  // Stage 1: per-expert gather lists.
  const Assignment assignment = gather_lists(x);
  Tensor y = Tensor::zeros({x.dim(0), x.dim(1)});

  // Stage 2: run experts one after another; scatter-add each result.
  std::vector<float> out(cfg_.hidden);
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    for (const auto& [t, w] : assignment[e]) {
      experts_[e].forward(x.row(t), out);
      auto yr = y.row(t);
      for (std::size_t j = 0; j < yr.size(); ++j) yr[j] += w * out[j];
    }
  }

  add_shared(x, y);
  return y;
}

Tensor MoELayer::forward_fused(const Tensor& x, ThreadPool* pool) {
  const Assignment assignment = gather_lists(x);
  Tensor y = Tensor::zeros({x.dim(0), x.dim(1)});

  // One grouped pass: experts execute concurrently; each expert owns the
  // rows of every token assigned to it. Writes race only if a token's two
  // experts update y.row(t) concurrently, so each expert accumulates into a
  // private buffer keyed by token and we merge sequentially per expert
  // order to keep results deterministic.
  std::vector<Tensor> partial(experts_.size());
  ThreadPool& tp = pool ? *pool : ThreadPool::shared();
  tp.parallel_for(0, experts_.size(), [&](std::size_t e) {
    const auto& list = assignment[e];
    if (list.empty()) return;
    Tensor buf({list.size(), static_cast<std::size_t>(cfg_.hidden)});
    for (std::size_t i = 0; i < list.size(); ++i) {
      experts_[e].forward(x.row(list[i].first), buf.row(i));
    }
    partial[e] = std::move(buf);
  });

  for (std::size_t e = 0; e < experts_.size(); ++e) {
    const auto& list = assignment[e];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto [t, w] = list[i];
      auto src = partial[e].row(i);
      auto yr = y.row(t);
      for (std::size_t j = 0; j < yr.size(); ++j) yr[j] += w * src[j];
    }
  }

  add_shared(x, y);
  return y;
}

std::size_t MoELayer::total_params() const {
  std::size_t p = static_cast<std::size_t>(cfg_.hidden) * experts_.size();
  for (const auto& e : experts_) p += e.param_count();
  for (const auto& s : shared_) p += s.param_count();
  return p;
}

std::size_t MoELayer::active_params_per_token() const {
  std::size_t p = static_cast<std::size_t>(cfg_.hidden) * experts_.size();
  const std::size_t k = std::min<std::size_t>(router_->config().top_k,
                                              experts_.size());
  // Routed experts share a geometry, so any k of them cost the same.
  if (!experts_.empty()) p += k * experts_.front().param_count();
  for (const auto& s : shared_) p += s.param_count();
  return p;
}

void MoELayer::drop_experts(const std::vector<int>& expert_ids) {
  router_->drop_experts(expert_ids);
  std::vector<Expert> kept;
  kept.reserve(experts_.size() - expert_ids.size());
  std::size_t drop_pos = 0;
  for (int e = 0; e < static_cast<int>(experts_.size()); ++e) {
    if (drop_pos < expert_ids.size() && expert_ids[drop_pos] == e) {
      ++drop_pos;
      continue;
    }
    kept.push_back(std::move(experts_[e]));
  }
  experts_ = std::move(kept);
  cfg_.n_experts = static_cast<int>(experts_.size());
  cfg_.top_k = std::min(cfg_.top_k, cfg_.n_experts);
}

void MoELayer::sync_ffn_from_experts() {
  MIB_ENSURE(!experts_.empty(), "layer has no experts");
  const int ffn = experts_.front().ffn();
  for (const auto& e : experts_) {
    MIB_ENSURE(e.ffn() == ffn, "experts disagree on FFN dim");
  }
  cfg_.expert_ffn = ffn;
}

}  // namespace mib::moe
