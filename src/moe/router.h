// Top-k softmax router — the gating network of a MoE layer.
//
// This is real, executable routing (not a cost model): logits are a learned
// linear map of the token, the top-k experts are selected, and their gate
// probabilities become combine weights. The router also keeps activation
// counters (the quantity visualized in the paper's Fig. 15) and supports a
// logit *prior* that emulates the balanced (aux-loss-trained,
// DeepSeek-style) vs. skewed (MolmoE-style) routers the paper contrasts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/tensor.h"

namespace mib::moe {

/// Order of softmax vs. top-k selection. Mixtral renormalizes the softmax
/// over the selected experts (kTopKThenSoftmax); OLMoE/DeepSeek take the
/// global softmax probabilities of the selected experts
/// (kSoftmaxThenTopK).
enum class ScoreOrder { kSoftmaxThenTopK, kTopKThenSoftmax };

struct RouterConfig {
  int hidden = 0;
  int n_experts = 0;
  int top_k = 0;
  ScoreOrder order = ScoreOrder::kSoftmaxThenTopK;
  /// Whether combine weights of the selected experts are renormalized to
  /// sum to 1 (Mixtral / DeepSeek do; OLMoE does not).
  bool renormalize = true;

  void validate() const;
};

/// Routing decision for one token.
struct TokenRoute {
  std::vector<int> experts;    ///< selected expert ids, highest score first
  std::vector<float> weights;  ///< combine weights, same order
};

class Router {
 public:
  /// Random gate initialization (scale 1/sqrt(hidden)).
  Router(RouterConfig cfg, Rng& rng);
  /// Explicit gate weights [n_experts, hidden].
  Router(RouterConfig cfg, Tensor gate);

  const RouterConfig& config() const { return cfg_; }
  const Tensor& gate() const { return gate_; }

  /// Add a fixed per-expert logit bias. A zero prior (default) models an
  /// aux-loss-balanced router; a Zipf-decaying prior models a skewed one.
  void set_logit_prior(std::vector<float> prior);

  /// Route a batch of tokens x [tokens, hidden]; updates activation
  /// counters.
  std::vector<TokenRoute> route(const Tensor& x);

  /// Number of times each expert was selected since the last reset.
  const std::vector<std::uint64_t>& activation_counts() const {
    return counts_;
  }
  void reset_counts();

  /// Remove the given experts (sorted unique ids) from the gate — the
  /// router half of inter-expert pruning. top_k is clamped to the remaining
  /// expert count.
  void drop_experts(const std::vector<int>& expert_ids);

 private:
  RouterConfig cfg_;
  Tensor gate_;  // [n_experts, hidden]
  std::vector<float> prior_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace mib::moe
