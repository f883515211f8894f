#include "engine/layer_cost.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "models/params.h"
#include "parallel/pipeline.h"

namespace mib::engine {

namespace {
/// Number of KV shards under tensor parallelism: KV heads split across tp
/// until one head per rank; the MLA latent is per-token and replicates.
int kv_shard(const models::ModelConfig& m, const parallel::ParallelPlan& p) {
  if (m.attention == models::AttentionKind::kMLA) return 1;
  return std::min(p.tp, m.n_kv_heads);
}
}  // namespace

LayerCostModel::LayerCostModel(models::ModelConfig model, hw::Cluster cluster,
                               parallel::ParallelPlan plan, CostConfig cost)
    : model_(std::move(model)),
      cluster_(std::move(cluster)),
      plan_(plan),
      cost_(cost),
      kernel_(cluster_.device()) {
  model_.validate();
  plan_.validate(model_);
  MIB_ENSURE(plan_.devices() <= cluster_.size(),
             "plan needs " << plan_.devices() << " devices, cluster has "
                           << cluster_.size());
  if (model_.is_moe()) {
    auto probs = parallel::expert_probabilities(model_.n_experts,
                                                cost_.routing);
    log1m_expert_p_ = parallel::log1m_probabilities(probs);
    if (plan_.ep && plan_.tp > 1 && cost_.ep_balanced_placement) {
      placement_ = parallel::balanced_placement(probs, plan_.tp);
      expert_p_ = std::move(probs);
    }
  }
}

int LayerCostModel::effective_prompt_tokens(int seq_len,
                                            int images_per_request) const {
  MIB_ENSURE(seq_len >= 1, "prompt needs at least one token");
  MIB_ENSURE(images_per_request >= 0, "negative image count");
  if (images_per_request == 0) return seq_len;
  MIB_ENSURE(model_.vision.has_value(),
             model_.name << " has no vision tower but got image inputs");
  return seq_len + images_per_request * model_.vision->patch_tokens;
}

double LayerCostModel::vision_encode_time(int images) const {
  MIB_ENSURE(images >= 0, "negative image count");
  if (images == 0) return 0.0;
  MIB_ENSURE(model_.vision.has_value(),
             model_.name << " has no vision tower");
  const auto& v = *model_.vision;
  const double tokens = static_cast<double>(images) * v.patch_tokens;
  // ViT forward: 2 FLOPs per param per token + quadratic attention.
  const double proj_flops = 2.0 * v.params() * tokens;
  const double attn_flops = 4.0 * static_cast<double>(images) *
                            static_cast<double>(v.patch_tokens) *
                            v.patch_tokens * v.hidden;
  const double bytes =
      v.params() * bytes_of(cost_.weight_dtype) +
      tokens * v.hidden * bytes_of(cost_.act_dtype) * 4.0;
  // The tower is replicated per TP rank in vLLM; images split across ranks.
  const double shard = std::max(1, plan_.tp);
  const auto c = kernel_.op((proj_flops + attn_flops) / shard, bytes,
                            kernel_.gemm_efficiency(tokens / shard),
                            /*launches=*/v.n_layers * 4);
  // Host preprocessing overlaps across CPU cores but not with GPU prefill
  // of the same request batch; charge it with a parallelism factor of 8.
  const double preprocess = images * v.preprocess_s / 8.0;
  return c.total() + preprocess;
}

hw::KernelCost LayerCostModel::attention_proj(double tokens) const {
  // Q/K/V/O projections as one GEMM of the aggregate parameter volume.
  const double h = model_.hidden;
  const double attn_params = models::attention_params_per_layer(model_);
  hw::KernelCost proj = kernel_.gemm(tokens, attn_params / (plan_.tp * h), h,
                                     cost_.act_dtype, cost_.weight_dtype);
  proj.launch_s += 3.0 * kernel_.device().kernel_launch_overhead;
  return proj;
}

hw::KernelCost LayerCostModel::attention_norm(double tokens) const {
  // Norms, RoPE, residual adds.
  return kernel_.elementwise(tokens * model_.hidden, 4.0, 2.0,
                             cost_.act_dtype);
}

double LayerCostModel::heads_shard() const {
  return std::max(1.0, static_cast<double>(model_.n_heads) / plan_.tp);
}

hw::KernelCost LayerCostModel::paged_decode(int batch, double ctx) const {
  const double kv_per_layer =
      model_.kv_bytes_per_token_per_layer(cost_.kv_dtype);
  const double kv_read = batch * ctx * kv_per_layer / kv_shard(model_, plan_);
  return kernel_.attention_decode(batch, ctx, heads_shard(), model_.head_dim,
                                  kv_read, cost_.act_dtype);
}

void LayerCostModel::add_attention_allreduce(double tokens,
                                             double& comm) const {
  const int tp = plan_.tp;
  if (tp > 1) {
    const auto& ic = cluster_.interconnect_for_group(tp);
    charge_time(comm, "comm.attn_allreduce",
                ic.allreduce(tokens * model_.hidden * bytes_of(cost_.act_dtype),
                             tp));
  }
}

PhaseBreakdown LayerCostModel::sum_layers(double tokens,
                                          const PhaseBreakdown& attn) const {
  const int n_dense_layers = model_.dense_layers();
  PhaseBreakdown moe_layer_cost = attn;
  PhaseBreakdown dense_layer_cost = attn;  // attention identical
  if (sink_) sink_->multiplier = model_.moe_layers();
  if (model_.is_moe()) add_ffn_cost(tokens, true, moe_layer_cost);
  if (sink_) sink_->multiplier = n_dense_layers;
  if (n_dense_layers > 0) add_ffn_cost(tokens, false, dense_layer_cost);
  if (sink_) sink_->multiplier = 1.0;

  PhaseBreakdown out;
  auto accumulate = [&](const PhaseBreakdown& src, int times) {
    out.attention += src.attention * times;
    out.ffn += src.ffn * times;
    out.router += src.router * times;
    out.comm += src.comm * times;
  };
  if (model_.is_moe()) accumulate(moe_layer_cost, model_.moe_layers());
  if (n_dense_layers > 0) accumulate(dense_layer_cost, n_dense_layers);
  return out;
}

void LayerCostModel::add_ffn_cost(double tokens, bool moe_layer,
                                  PhaseBreakdown& out) const {
  const double h = model_.hidden;
  const int tp = plan_.tp;
  const double act_b = bytes_of(cost_.act_dtype);
  const auto& ic = cluster_.interconnect_for_group(std::max(1, tp));

  if (!moe_layer) {
    const double ffn_local = static_cast<double>(model_.dense_ffn) / tp;
    charge(out.ffn, "ffn.dense_gate_up",
           kernel_.gemm(tokens, 2.0 * ffn_local, h, cost_.act_dtype,
                        cost_.weight_dtype));
    charge(out.ffn, "ffn.dense_down",
           kernel_.gemm(tokens, h, ffn_local, cost_.act_dtype,
                        cost_.weight_dtype));
    charge(out.ffn, "ffn.silu_mul",
           kernel_.elementwise(tokens * ffn_local, 2.0, 1.0,
                               cost_.act_dtype));
    if (tp > 1) {
      charge_time(out.comm, "comm.ffn_allreduce",
                  ic.allreduce(tokens * h * act_b, tp));
    }
    return;
  }

  const int E = model_.n_experts;
  const int k = model_.top_k;
  const double assignments = tokens * k;

  // Router: gate GEMM + top-k softmax.
  charge(out.router, "moe.router_gemm",
         kernel_.gemm(tokens, E, h, cost_.act_dtype, cost_.act_dtype));
  charge(out.router, "moe.router_topk",
         kernel_.elementwise(tokens * E, 2.0, 1.0, cost_.act_dtype));

  const double distinct_global = std::max(
      1.0, parallel::expected_distinct_experts(log1m_expert_p_, assignments));

  double local_assignments = assignments;
  double local_distinct = distinct_global;
  double ffn_local = static_cast<double>(model_.expert_ffn) / tp;
  // EP dispatch must materialize the routed tokens into communication
  // buffers for the all-to-all, so the fused single-pass kernel is not
  // available: the activation round-trip and per-expert launches return.
  const bool fused = cost_.fused_moe && !(plan_.ep && tp > 1);
  if (plan_.ep && tp > 1) {
    // Whole experts per device; the slowest device gates the layer.
    double share;
    if (cost_.ep_balanced_placement) {
      const double factor = parallel::expected_max_load_factor_for_placement(
          expert_p_, placement_, tp, assignments);
      share = std::clamp(factor / tp, 1.0 / tp, 1.0);
    } else {
      share = parallel::expected_max_group_share(E, assignments, tp,
                                                 cost_.routing);
    }
    local_assignments = assignments * share;
    local_distinct = std::max(1.0, distinct_global / tp);
    ffn_local = model_.expert_ffn;
    // Dispatch + combine all-to-all of the routed hidden states.
    charge_time(out.comm, "comm.ep_all_to_all",
                2.0 * ic.all_to_all(assignments * h * act_b, tp));
  } else if (tp > 1) {
    charge_time(out.comm, "comm.ffn_allreduce",
                ic.allreduce(tokens * h * act_b, tp));
  }

  // Grouped expert GEMMs: gate+up then down.
  const auto n_groups = static_cast<std::size_t>(
      std::max(1.0, std::round(local_distinct)));
  const std::vector<double> group_m(
      n_groups, local_assignments / static_cast<double>(n_groups));
  charge(out.ffn, "moe.experts_gate_up",
         kernel_.grouped_gemm(group_m, 2.0 * ffn_local, h, cost_.act_dtype,
                              cost_.weight_dtype, fused));
  charge(out.ffn, "moe.experts_down",
         kernel_.grouped_gemm(group_m, h, ffn_local, cost_.act_dtype,
                              cost_.weight_dtype, fused));
  // SiLU-mul on the routed intermediate + weighted scatter-combine.
  charge(out.ffn, "moe.silu_mul",
         kernel_.elementwise(local_assignments * ffn_local, 2.0, 1.0,
                             cost_.act_dtype));
  charge(out.ffn, "moe.scatter_combine",
         kernel_.elementwise(local_assignments * h, 2.0, 1.0,
                             cost_.act_dtype));

  // Shared experts: dense SwiGLU, tensor-sharded across tp.
  if (model_.n_shared_experts > 0) {
    const double shared_local =
        static_cast<double>(model_.n_shared_experts) *
        model_.shared_expert_ffn / tp;
    charge(out.ffn, "moe.shared_gate_up",
           kernel_.gemm(tokens, 2.0 * shared_local, h, cost_.act_dtype,
                        cost_.weight_dtype));
    charge(out.ffn, "moe.shared_down",
           kernel_.gemm(tokens, h, shared_local, cost_.act_dtype,
                        cost_.weight_dtype));
  }
}

LayerCostModel::DecodeParts LayerCostModel::decode_parts(int batch) const {
  MIB_ENSURE(batch >= 1, "batch must be >= 1");
  const double h = model_.hidden;
  const int tp = plan_.tp;
  const double act_b = bytes_of(cost_.act_dtype);
  const double tokens = batch;

  // Attention of one layer around its paged core, which decode_step adds.
  DecodeParts parts;
  PhaseBreakdown attn;
  if (sink_) sink_->multiplier = model_.n_layers;  // attention: all layers
  charge(parts.qkvo_proj, "attn.qkvo_proj", attention_proj(tokens));
  charge(parts.norm_rope_residual, "attn.norm_rope_residual",
         attention_norm(tokens));
  add_attention_allreduce(tokens, attn.comm);
  PhaseBreakdown out = sum_layers(tokens, attn);

  // Embedding gather + KV append.
  charge(out.head, "embed.gather", kernel_.memcpy_op(tokens * h * act_b));
  const double kv_write =
      tokens * model_.kv_bytes_per_token_per_layer(cost_.kv_dtype) *
      model_.n_layers / plan_.devices();
  charge(parts.kv_append, "attn.kv_append", kernel_.memcpy_op(kv_write));

  // LM head (vocab-sharded) + logits allgather.
  charge(out.head, "head.lm_gemm",
         kernel_.gemm(tokens, static_cast<double>(model_.vocab) / tp, h,
                      cost_.act_dtype, cost_.weight_dtype));
  if (tp > 1) {
    const auto& ic = cluster_.interconnect_for_group(tp);
    charge_time(out.comm, "comm.logits_allgather",
                ic.allgather(tokens * model_.vocab * act_b / tp, tp));
  }

  // Pipeline boundary transfers; a lone decode batch gets no overlap.
  if (plan_.pp > 1) {
    const auto& ic = cluster_.interconnect_for_group(plan_.devices());
    charge_time(out.comm, "comm.pp_boundary",
                parallel::pipeline_transfer_time(tokens * h * act_b,
                                                 plan_.pp, 1, ic));
  }

  charge_time(out.overhead, "step.framework_overhead",
              kernel_.device().step_overhead);
  parts.ffn = out.ffn;
  parts.router = out.router;
  parts.comm = out.comm;
  parts.head = out.head;
  parts.overhead = out.overhead;
  return parts;
}

PhaseBreakdown LayerCostModel::decode_step(const DecodeParts& parts,
                                           int batch, double ctx) const {
  MIB_ENSURE(ctx >= 1.0, "context must be >= 1");
  double core = 0.0;
  if (sink_) sink_->multiplier = model_.n_layers;
  charge(core, "attn.paged_decode", paged_decode(batch, ctx));
  if (sink_) sink_->multiplier = 1.0;
  // One layer's attention, summed in the order its charges are made.
  const double layer = (parts.qkvo_proj + core) + parts.norm_rope_residual;

  PhaseBreakdown out;
  if (model_.is_moe()) out.attention += layer * model_.moe_layers();
  if (model_.dense_layers() > 0) {
    out.attention += layer * model_.dense_layers();
  }
  out.attention += parts.kv_append;
  out.ffn = parts.ffn;
  out.router = parts.router;
  out.comm = parts.comm;
  out.head = parts.head;
  out.overhead = parts.overhead;
  apply_sw_efficiency(out);
  return out;
}

PhaseBreakdown LayerCostModel::decode_step(int batch, double ctx) const {
  return decode_step(decode_parts(batch), batch, ctx);
}

PhaseBreakdown LayerCostModel::prefill(int batch, int seq_len,
                                       int images_per_request) const {
  MIB_ENSURE(batch >= 1, "batch must be >= 1");
  const int seq_eff = effective_prompt_tokens(seq_len, images_per_request);
  const double tokens = static_cast<double>(batch) * seq_eff;
  const double h = model_.hidden;
  const int tp = plan_.tp;
  const double act_b = bytes_of(cost_.act_dtype);

  PhaseBreakdown attn;
  if (sink_) sink_->multiplier = model_.n_layers;
  charge(attn.attention, "attn.qkvo_proj", attention_proj(tokens));
  charge(attn.attention, "attn.flash_prefill",
         kernel_.attention_prefill(batch, seq_eff, heads_shard(),
                                   model_.head_dim, cost_.act_dtype));
  charge(attn.attention, "attn.norm_rope_residual", attention_norm(tokens));
  add_attention_allreduce(tokens, attn.comm);
  const PhaseBreakdown layers = sum_layers(tokens, attn);

  PhaseBreakdown out = layers;
  if (plan_.pp > 1) {
    // Microbatched fill/drain: the per-layer work overlaps across stages.
    const int m = parallel::choose_microbatches(batch, plan_.pp);
    const double layer_total = layers.total();
    const double piped =
        parallel::pipeline_fill_drain_time(layer_total, plan_.pp, m);
    const double scale = 1.0 / plan_.pp;
    out.attention = layers.attention * scale;
    out.ffn = layers.ffn * scale;
    out.router = layers.router * scale;
    out.comm = layers.comm * scale;
    out.bubble = piped - layer_total * scale;
    const auto& ic = cluster_.interconnect_for_group(plan_.devices());
    out.comm += parallel::pipeline_transfer_time(
        tokens / m * h * act_b, plan_.pp, m, ic);
  }

  // KV write for the whole prompt.
  const double kv_write =
      tokens * model_.kv_bytes_per_token_per_layer(cost_.kv_dtype) *
      model_.n_layers / plan_.devices();
  charge(out.attention, "attn.kv_append", kernel_.memcpy_op(kv_write));

  // Embedding + LM head for the last position of each sequence.
  charge(out.head, "embed.gather", kernel_.memcpy_op(tokens * h * act_b));
  charge(out.head, "head.lm_gemm",
         kernel_.gemm(batch, static_cast<double>(model_.vocab) / tp, h,
                      cost_.act_dtype, cost_.weight_dtype));
  if (tp > 1) {
    const auto& ic = cluster_.interconnect_for_group(tp);
    charge_time(out.comm, "comm.logits_allgather",
                ic.allgather(batch * model_.vocab * act_b / tp, tp));
  }

  if (images_per_request > 0) {
    charge_time(out.vision, "vision.encode",
                vision_encode_time(batch * images_per_request));
  }

  charge_time(out.overhead, "step.framework_overhead",
              kernel_.device().step_overhead);
  apply_sw_efficiency(out);
  return out;
}

void LayerCostModel::charge(double& bucket, const char* name,
                            const hw::KernelCost& c) const {
  bucket += c.total();
  if (sink_) {
    sink_->ops.push_back(OpRecord{name, c.total() * sink_->multiplier,
                                  c.flops * sink_->multiplier,
                                  c.bytes * sink_->multiplier,
                                  static_cast<long long>(sink_->multiplier)});
  }
}

void LayerCostModel::charge_time(double& bucket, const char* name,
                                 double seconds) const {
  bucket += seconds;
  if (sink_) {
    sink_->ops.push_back(OpRecord{name, seconds * sink_->multiplier, 0.0,
                                  0.0,
                                  static_cast<long long>(sink_->multiplier)});
  }
}

std::vector<OpRecord> LayerCostModel::finish_profile(TraceSink& sink) const {
  // Merge same-name records, apply the software-efficiency factor to
  // on-device kernels (names not prefixed "comm." / "step."), sort by time.
  std::vector<OpRecord> merged;
  for (const auto& op : sink.ops) {
    auto it = std::find_if(merged.begin(), merged.end(),
                           [&](const OpRecord& m) { return m.name == op.name; });
    if (it == merged.end()) {
      merged.push_back(op);
    } else {
      it->seconds += op.seconds;
      it->flops += op.flops;
      it->bytes += op.bytes;
      it->instances += op.instances;
    }
  }
  const double f = model_.sw_efficiency;
  if (f < 1.0) {
    for (auto& op : merged) {
      if (op.name.rfind("comm.", 0) != 0 && op.name.rfind("step.", 0) != 0) {
        op.seconds /= f;
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.seconds > b.seconds;
            });
  return merged;
}

std::vector<OpRecord> LayerCostModel::profile_decode_step(int batch,
                                                          double ctx) const {
  MIB_ENSURE(plan_.pp == 1,
             "op profiles require pp == 1 (pipeline stretch has no per-op "
             "attribution)");
  TraceSink sink;
  LayerCostModel traced = *this;
  traced.sink_ = &sink;
  traced.decode_step(batch, ctx);
  return finish_profile(sink);
}

std::vector<OpRecord> LayerCostModel::profile_prefill(
    int batch, int seq_len, int images_per_request) const {
  MIB_ENSURE(plan_.pp == 1,
             "op profiles require pp == 1 (pipeline stretch has no per-op "
             "attribution)");
  TraceSink sink;
  LayerCostModel traced = *this;
  traced.sink_ = &sink;
  traced.prefill(batch, seq_len, images_per_request);
  return finish_profile(sink);
}

void LayerCostModel::apply_sw_efficiency(PhaseBreakdown& out) const {
  const double f = model_.sw_efficiency;
  if (f >= 1.0) return;
  // Framework maturity affects on-device kernels, not collectives or the
  // fixed per-step overhead.
  out.attention /= f;
  out.ffn /= f;
  out.router /= f;
  out.head /= f;
  out.vision /= f;
}

}  // namespace mib::engine
