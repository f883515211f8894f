#include "engine/memory.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/table.h"
#include "common/units.h"
#include "models/params.h"

namespace mib::engine {

MemoryModel::MemoryModel(models::ModelConfig model, parallel::ParallelPlan plan,
                         DType weight_dtype, DType kv_dtype, DType act_dtype)
    : model_(std::move(model)),
      plan_(plan),
      weight_dtype_(weight_dtype),
      kv_dtype_(kv_dtype),
      act_dtype_(act_dtype) {
  model_.validate();
  plan_.validate(model_);
}

double MemoryModel::weight_bytes_per_device() const {
  // TP slices every matrix, PP splits layers, EP redistributes (but does not
  // change the total). Norm weights and the router gate are replicated
  // across tp; both are <0.1% so an even split is accurate to that level.
  return models::weight_bytes(model_, weight_dtype_) / plan_.devices();
}

double MemoryModel::kv_bytes_per_token_per_device() const {
  const double per_layer = model_.kv_bytes_per_token_per_layer(kv_dtype_);
  const double all_layers = per_layer * model_.n_layers;
  if (model_.attention == models::AttentionKind::kMLA) {
    // The MLA latent is per-token, not per-head: TP replicates it.
    return all_layers / plan_.pp;
  }
  // GQA/MHA KV heads shard across tp until one head per rank remains.
  const int kv_shard = std::min(plan_.tp, model_.n_kv_heads);
  return all_layers / (kv_shard * plan_.pp);
}

double MemoryModel::activation_bytes(double tokens) const {
  MIB_ENSURE(tokens >= 0, "negative tokens");
  // Watermark: hidden-state residual + widest transient per token. The MoE
  // up-projection of the routed tokens dominates: top_k * 2 * expert_ffn
  // per token (gate+up activations), sharded by tp unless EP holds whole
  // experts.
  const double h = model_.hidden;
  double widest = 4.0 * h;  // residual + norm + attn q/o transients
  if (model_.is_moe()) {
    const double ffn_local =
        plan_.ep ? model_.expert_ffn
                 : static_cast<double>(model_.expert_ffn) / plan_.tp;
    widest += 2.0 * model_.top_k * ffn_local;
    widest += 2.0 * model_.n_shared_experts *
              (static_cast<double>(model_.shared_expert_ffn) / plan_.tp);
  } else {
    widest += 2.0 * static_cast<double>(model_.dense_ffn) / plan_.tp;
  }
  return tokens * widest * bytes_of(act_dtype_);
}

MemoryBreakdown MemoryModel::breakdown(int batch, int max_context,
                                       int prefill_tokens) const {
  MIB_ENSURE(batch >= 1, "batch must be >= 1");
  MIB_ENSURE(max_context >= 1, "context must be >= 1");
  MemoryBreakdown b;
  b.weights = weight_bytes_per_device();
  b.kv_cache = static_cast<double>(batch) * max_context *
               kv_bytes_per_token_per_device();
  b.activations = activation_bytes(prefill_tokens);
  return b;
}

long long MemoryModel::kv_token_capacity(const hw::DeviceSpec& dev,
                                         int prefill_tokens) const {
  const double budget = dev.usable_mem() - weight_bytes_per_device() -
                        activation_bytes(prefill_tokens);
  MIB_ENSURE(budget > 0, model_.name << ": weights leave no room for KV cache");
  const auto tokens =
      static_cast<long long>(budget / kv_bytes_per_token_per_device());
  MIB_ENSURE(tokens >= 1, "KV capacity below one token");
  return tokens;
}

int MemoryModel::max_concurrent_seqs(int max_context, int prefill_tokens,
                                     const hw::DeviceSpec& dev) const {
  const double budget = dev.usable_mem() - weight_bytes_per_device() -
                        activation_bytes(prefill_tokens);
  if (budget <= 0) return 0;
  const double per_seq =
      static_cast<double>(max_context) * kv_bytes_per_token_per_device();
  return static_cast<int>(std::floor(budget / per_seq));
}

void MemoryModel::check(int batch, int max_context, int prefill_tokens,
                        const hw::DeviceSpec& dev) const {
  const auto b = breakdown(batch, max_context, prefill_tokens);
  if (b.total() > dev.usable_mem()) {
    // A single sequence must fit; larger batches can fall back to wave
    // scheduling, which the engine decides. Report the single-seq check.
    const auto b1 = breakdown(1, max_context, prefill_tokens);
    if (b1.total() > dev.usable_mem()) {
      throw OutOfMemoryError(
          model_.name + " [" + plan_.label() + "]: requires " +
              format_fixed(to_gib(b1.total()), 1) + " GiB > " +
              format_fixed(to_gib(dev.usable_mem()), 1) +
              " GiB usable on " + dev.name,
          to_gib(b1.total()), to_gib(dev.usable_mem()));
    }
  }
}

}  // namespace mib::engine
