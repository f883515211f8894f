// A complete MoE block: router + routed experts + optional shared experts.
//
// Two execution strategies mirror the GPU implementations the paper
// compares (§7.2):
//   * staged  — the "naive" path: route, then for each expert gather its
//               tokens, run it, scatter-add results back (separate kernels).
//   * fused   — group tokens by expert once and execute all experts in a
//               single pass, parallel across experts on the thread pool.
// Both produce the same numerics (verified by tests to ~1e-5, the float
// reassociation bound), which is the functional claim behind Fused MoE.
#pragma once

#include <memory>
#include <vector>

#include "common/tensor.h"
#include "common/thread_pool.h"
#include "moe/expert.h"
#include "moe/router.h"

namespace mib::moe {

struct MoELayerConfig {
  int hidden = 0;
  int expert_ffn = 0;
  int n_experts = 0;
  int top_k = 0;
  int n_shared_experts = 0;
  int shared_expert_ffn = 0;
  ScoreOrder order = ScoreOrder::kSoftmaxThenTopK;
  bool renormalize = true;

  void validate() const;
};

class MoELayer {
 public:
  MoELayer(MoELayerConfig cfg, Rng& rng);

  const MoELayerConfig& config() const { return cfg_; }
  Router& router() { return *router_; }
  const Router& router() const { return *router_; }
  int n_experts() const { return static_cast<int>(experts_.size()); }
  Expert& expert(int i);
  const Expert& expert(int i) const;
  Expert& shared_expert(int i);

  /// Staged (unfused) execution of x [tokens, hidden].
  Tensor forward_staged(const Tensor& x);

  /// Fused execution; pool == nullptr uses the shared pool, pass a pool
  /// with 1 thread for deterministic single-threaded runs.
  Tensor forward_fused(const Tensor& x, ThreadPool* pool = nullptr);

  /// Total / active parameter counts of this layer (router included).
  std::size_t total_params() const;
  std::size_t active_params_per_token() const;

  /// --- pruning hooks (used by moe/pruning.h) ---
  /// Remove routed experts by id (sorted unique); updates the router.
  void drop_experts(const std::vector<int>& expert_ids);

  /// Refresh config().expert_ffn after intra-expert pruning resized the
  /// experts. All experts must share one FFN dim.
  void sync_ffn_from_experts();

 private:
  /// Per expert, the (token, weight) pairs routed to it.
  using Assignment = std::vector<std::vector<std::pair<std::size_t, float>>>;

  /// Route x [tokens, hidden] once and build every expert's gather list
  /// (what the unfused GPU path builds on the host before its launches).
  Assignment gather_lists(const Tensor& x);

  /// Combine shared-expert output into y (shared experts always run).
  void add_shared(const Tensor& x, Tensor& y) const;

  MoELayerConfig cfg_;
  std::unique_ptr<Router> router_;
  std::vector<Expert> experts_;
  std::vector<Expert> shared_;
};

}  // namespace mib::moe
