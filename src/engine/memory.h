// Per-device memory accounting and OOM boundaries.
//
// The paper marks configurations that exceed H100 memory as missing data
// points; this model reproduces those boundaries. Per-device footprint =
// sharded weights + KV cache for the batch's full context + transient
// activation watermark, checked against the device's usable fraction
// (vLLM's gpu_memory_utilization).
#pragma once

#include "common/dtype.h"
#include "hw/device.h"
#include "models/config.h"
#include "parallel/plan.h"

namespace mib::engine {

struct MemoryBreakdown {
  double weights = 0.0;      ///< bytes per device
  double kv_cache = 0.0;     ///< bytes per device at peak context
  double activations = 0.0;  ///< transient watermark per device
  double total() const { return weights + kv_cache + activations; }
};

class MemoryModel {
 public:
  MemoryModel(models::ModelConfig model, parallel::ParallelPlan plan,
              DType weight_dtype, DType kv_dtype, DType act_dtype);

  /// Sharded weight bytes per device (TP slices tensors, PP splits layers,
  /// EP distributes experts — all divide evenly; embeddings are
  /// vocab-sharded across tp as in vLLM/Megatron).
  double weight_bytes_per_device() const;

  /// KV bytes per token across all layers, per device.
  double kv_bytes_per_token_per_device() const;

  /// Activation watermark for a forward pass over `tokens` tokens
  /// (per device).
  double activation_bytes(double tokens) const;

  /// Full breakdown for `batch` sequences at `max_context` tokens each with
  /// a prefill chunk of `prefill_tokens`.
  MemoryBreakdown breakdown(int batch, int max_context,
                            int prefill_tokens) const;

  /// KV-cache capacity in tokens per device once the sharded weights and
  /// the activation watermark of a `prefill_tokens`-token step are
  /// resident. Throws when the weights leave no room for one token.
  long long kv_token_capacity(const hw::DeviceSpec& dev,
                              int prefill_tokens) const;

  /// Largest number of sequences of `max_context` tokens that fit on the
  /// device after weights and activations; 0 if even the weights don't fit.
  int max_concurrent_seqs(int max_context, int prefill_tokens,
                          const hw::DeviceSpec& dev) const;

  /// Throws OutOfMemoryError if the configuration cannot run at all.
  void check(int batch, int max_context, int prefill_tokens,
             const hw::DeviceSpec& dev) const;

 private:
  models::ModelConfig model_;
  parallel::ParallelPlan plan_;
  DType weight_dtype_;
  DType kv_dtype_;
  DType act_dtype_;
};

}  // namespace mib::engine
