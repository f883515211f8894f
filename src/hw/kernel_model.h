// Roofline kernel cost model.
//
// Every simulated GPU operation is charged
//     max(flops / achievable_flops, bytes / achievable_bandwidth) + launches
// where achievable compute throughput depends on the GEMM's token (M)
// dimension — small per-expert batches under-fill tensor-core tiles, which
// is the mechanism behind several of the paper's trends (why many-expert
// configs lose prefill efficiency, why decode is memory-bound, why Fused MoE
// wins). The model is intentionally analytic: it exposes the same quantities
// (FLOPs, bytes, launches) that a profiler would report.
#pragma once

#include <vector>

#include "common/dtype.h"
#include "hw/device.h"

namespace mib::hw {

/// Cost breakdown of one (possibly grouped) kernel.
struct KernelCost {
  double compute_s = 0.0;  ///< flops / achievable FLOP/s
  double memory_s = 0.0;   ///< bytes / achievable bandwidth
  double launch_s = 0.0;   ///< kernel-launch overhead (not overlapped)
  double flops = 0.0;      ///< total floating-point work
  double bytes = 0.0;      ///< total DRAM traffic

  /// Wall time: compute and memory overlap, launches do not.
  double total() const {
    return (compute_s > memory_s ? compute_s : memory_s) + launch_s;
  }

  /// Accumulate another kernel's cost (sequential execution).
  KernelCost& operator+=(const KernelCost& other);
};

KernelCost operator+(KernelCost a, const KernelCost& b);

class KernelModel {
 public:
  explicit KernelModel(DeviceSpec spec);

  const DeviceSpec& device() const { return spec_; }

  /// Fraction of peak FLOPs achievable for a GEMM with M tokens.
  double gemm_efficiency(double m) const;

  /// Generic roofline op. `launches` counts kernel launches.
  KernelCost op(double flops, double bytes, double compute_efficiency,
                int launches = 1) const;

  /// Dense GEMM: activations [m,k] (act dtype) x weights [k,n] (weight
  /// dtype) -> [m,n]. Weight bytes dominate memory traffic at small m.
  KernelCost gemm(double m, double n, double k, DType act, DType weight) const;

  /// Grouped GEMM over experts: group_m[i] tokens hit expert i, each expert
  /// is a [k,n] weight matrix. `fused` == one launch, no intermediate
  /// activation round-trip; unfused == one launch per non-empty group plus a
  /// gather and a scatter pass over the routed activations.
  KernelCost grouped_gemm(const std::vector<double>& group_m, double n,
                          double k, DType act, DType weight,
                          bool fused) const;

  /// Causal self-attention over a prefill chunk (FlashAttention-style: no
  /// quadratic DRAM traffic, quadratic FLOPs halved by causal masking).
  KernelCost attention_prefill(double batch, double seq, double heads,
                               double head_dim, DType act) const;

  /// One decode step of attention: reads the whole KV cache.
  /// `kv_bytes` is the total KV-cache bytes read (caller computes it from
  /// the model's KV layout — GQA/MLA change this, not the kernel).
  KernelCost attention_decode(double batch, double ctx, double heads,
                              double head_dim, double kv_bytes,
                              DType act) const;

  /// Element-wise op over `elems` elements with `reads`+`writes` passes.
  KernelCost elementwise(double elems, double reads, double writes,
                         DType act) const;

  /// Pure data movement of `bytes`.
  KernelCost memcpy_op(double bytes) const;

 private:
  DeviceSpec spec_;
};

}  // namespace mib::hw
