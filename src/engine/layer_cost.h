// Per-phase analytical costs of a transformer forward pass.
//
// Prefill and decode are priced per layer from the kernel model, with the
// parallel plan deciding sharding, collectives and pipeline stretch. All the
// paper's optimization studies act here: dtype changes the roofline, Fused
// MoE changes launch counts and activation round-trips, pruning changes the
// geometry, EP changes collectives and adds the slowest-device penalty.
//
// Of a decode step's charges only the paged attention core depends on the
// context length. decode_parts(batch) returns the rest, and
// decode_step(parts, batch, ctx) adds the core back in the order
// decode_step(batch, ctx) sums it; the latter is built from the same two
// calls, so a caller that keeps the parts of a batch (an engine PriceBook
// does) prices every step bit-identically. The model itself caches
// nothing lazily: what it keeps is fixed at construction, and const calls
// never write.
#pragma once

#include <string>
#include <vector>

#include "common/dtype.h"
#include "hw/cluster.h"
#include "hw/kernel_model.h"
#include "models/config.h"
#include "parallel/expert_placement.h"
#include "parallel/plan.h"

namespace mib::engine {

/// Knobs of the cost model that the paper's experiments sweep.
struct CostConfig {
  DType weight_dtype = DType::kFP16;
  DType act_dtype = DType::kFP16;
  DType kv_dtype = DType::kFP16;
  /// Fused MoE kernel (one grouped launch, no activation round-trip) vs.
  /// the naive per-expert path (§7.2).
  bool fused_moe = true;
  /// Token-to-expert skew (0 = balanced router).
  parallel::RoutingModel routing;
  /// Under EP, place experts with the LPT-balanced optimizer instead of
  /// contiguous blocks (spreads popular experts across devices).
  bool ep_balanced_placement = false;
};

/// Time breakdown of one phase (seconds, per whole phase).
struct PhaseBreakdown {
  double attention = 0.0;  ///< projections + attention core
  double ffn = 0.0;        ///< MoE / dense FFN compute incl. shared experts
  double router = 0.0;     ///< gate GEMM + top-k
  double comm = 0.0;       ///< allreduce / all-to-all / pipeline transfers
  double head = 0.0;       ///< LM head + embedding
  double vision = 0.0;     ///< vision tower (VLM prefill only)
  double overhead = 0.0;   ///< kernel launches + per-step framework cost
  double bubble = 0.0;     ///< pipeline fill/drain stretch

  double total() const {
    return attention + ffn + router + comm + head + vision + overhead +
           bubble;
  }
};

/// One aggregated operation of a simulated profile (layer counts folded
/// in) — the row a GPU profiler would show.
struct OpRecord {
  std::string name;
  double seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  long long instances = 0;
};

class LayerCostModel {
 public:
  LayerCostModel(models::ModelConfig model, hw::Cluster cluster,
                 parallel::ParallelPlan plan, CostConfig cost);

  const models::ModelConfig& model() const { return model_; }
  const hw::Cluster& cluster() const { return cluster_; }
  const parallel::ParallelPlan& plan() const { return plan_; }

  /// Full prefill of `batch` sequences of `seq_len` text tokens (plus
  /// vision tokens when images_per_request > 0), producing the first output
  /// token. This is TTFT.
  PhaseBreakdown prefill(int batch, int seq_len,
                         int images_per_request = 0) const;

  /// The charges of one decode step that depend on `batch` alone, before
  /// the software-efficiency factor: every bucket but attention, and of
  /// attention the per-layer projections and norms and the KV append.
  /// Only the paged attention core reads the context length.
  struct DecodeParts {
    double qkvo_proj = 0.0;           ///< one layer's Q/K/V/O projections
    double norm_rope_residual = 0.0;  ///< one layer's norms, RoPE, residuals
    double kv_append = 0.0;           ///< KV write of all layers
    double ffn = 0.0;
    double router = 0.0;
    double comm = 0.0;
    double head = 0.0;
    double overhead = 0.0;
  };
  DecodeParts decode_parts(int batch) const;

  /// One decode step for `batch` sequences at context length `ctx`.
  PhaseBreakdown decode_step(int batch, double ctx) const;

  /// The same step from `decode_parts(batch)`: adds the paged attention
  /// core at `ctx` in the order decode_step(batch, ctx) sums it, so a
  /// caller that keeps the parts of a batch gets bit-identical totals.
  PhaseBreakdown decode_step(const DecodeParts& parts, int batch,
                             double ctx) const;

  /// Effective prompt length including vision tokens.
  int effective_prompt_tokens(int seq_len, int images_per_request) const;

  /// Vision tower encode time for `images` images (exposed for tests).
  double vision_encode_time(int images) const;

  /// Op-level profile of one decode step (aggregated across layers, sorted
  /// by time descending). Sum of op seconds equals decode_step().total().
  /// Requires pp == 1 (pipeline stretch has no per-op attribution).
  std::vector<OpRecord> profile_decode_step(int batch, double ctx) const;

  /// Op-level profile of a full prefill; same contract as above.
  std::vector<OpRecord> profile_prefill(int batch, int seq_len,
                                        int images_per_request = 0) const;

 private:
  /// Cost of the FFN of one layer for `tokens` tokens entering it.
  /// `decode_assignments` — routed expert draws for coverage statistics.
  void add_ffn_cost(double tokens, bool moe_layer, PhaseBreakdown& out) const;

  /// Attention of one layer: Q/K/V/O projections, norms/RoPE/residuals,
  /// the paged decode core, and the TP allreduce charged into `comm`.
  hw::KernelCost attention_proj(double tokens) const;
  hw::KernelCost attention_norm(double tokens) const;
  hw::KernelCost paged_decode(int batch, double ctx) const;
  void add_attention_allreduce(double tokens, double& comm) const;
  /// Attention heads per TP rank.
  double heads_shard() const;

  /// Every layer of one pass: `attn` is one layer's attention, charged
  /// for all layers; adds each layer kind's FFN and sums over the layers.
  PhaseBreakdown sum_layers(double tokens, const PhaseBreakdown& attn) const;

  /// Divide kernel-time components by the model's software efficiency.
  void apply_sw_efficiency(PhaseBreakdown& out) const;

  /// Profiling sink: when active, every charge() also appends an OpRecord
  /// scaled by `multiplier` (the layer count of the enclosing scope).
  struct TraceSink {
    std::vector<OpRecord> ops;
    double multiplier = 1.0;
  };
  void charge(double& bucket, const char* name,
              const hw::KernelCost& c) const;
  void charge_time(double& bucket, const char* name, double seconds) const;
  std::vector<OpRecord> finish_profile(TraceSink& sink) const;

  /// Set only on the private copy a profile call prices with, so const
  /// calls on a shared model never write through it.
  TraceSink* sink_ = nullptr;

  models::ModelConfig model_;
  hw::Cluster cluster_;
  parallel::ParallelPlan plan_;
  CostConfig cost_;
  hw::KernelModel kernel_;

  /// Routing statistics fixed by the model, the plan and the routing skew,
  /// kept from construction so a pricing call does not rebuild them:
  /// log1p(-p_i) per expert (MoE models), and under EP with balanced
  /// placement the probabilities and the placement.
  std::vector<double> log1m_expert_p_;
  std::vector<double> expert_p_;
  std::vector<int> placement_;
};

}  // namespace mib::engine
