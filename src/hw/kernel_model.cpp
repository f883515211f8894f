#include "hw/kernel_model.h"

#include <algorithm>
#include <cmath>

namespace mib::hw {

KernelCost& KernelCost::operator+=(const KernelCost& other) {
  // Sequential composition: rooflines do not overlap across kernels, so the
  // conservative sum keeps each kernel's own max(compute, memory).
  compute_s += other.compute_s;
  memory_s += other.memory_s;
  launch_s += other.launch_s;
  flops += other.flops;
  bytes += other.bytes;
  return *this;
}

KernelCost operator+(KernelCost a, const KernelCost& b) { return a += b; }

KernelModel::KernelModel(DeviceSpec spec) : spec_(std::move(spec)) {
  MIB_ENSURE(spec_.peak_flops_16 > 0, "device has no compute peak");
  MIB_ENSURE(spec_.mem_bw > 0, "device has no memory bandwidth");
}

double KernelModel::gemm_efficiency(double m) const {
  MIB_ENSURE(m > 0, "gemm_efficiency needs m > 0");
  return spec_.max_compute_efficiency * m / (m + spec_.gemm_m_half);
}

KernelCost KernelModel::op(double flops, double bytes,
                           double compute_efficiency, int launches) const {
  MIB_ENSURE(flops >= 0 && bytes >= 0, "negative work");
  MIB_ENSURE(compute_efficiency > 0 && compute_efficiency <= 1.0,
             "compute efficiency out of (0,1]: " << compute_efficiency);
  KernelCost c;
  c.flops = flops;
  c.bytes = bytes;
  c.compute_s = flops > 0
                    ? flops / (spec_.peak_flops_16 * compute_efficiency)
                    : 0.0;
  // Single-pass streaming: weights/activations are touched once, so every
  // roofline op reads at the achievable DRAM bandwidth.
  c.memory_s = bytes > 0 ? bytes / (spec_.mem_bw * spec_.mem_efficiency)
                         : 0.0;
  c.launch_s = launches * spec_.kernel_launch_overhead;
  return c;
}

namespace {
/// Effective compute dtype of a GEMM: math runs at the wider of the two
/// operand dtypes (weight-only quantization dequantizes into 16-bit MACs).
DType gemm_compute_dtype(DType act, DType weight) {
  const bool act8 = bytes_of(act) <= 1.0;
  const bool w8 = bytes_of(weight) <= 1.0;
  if (act8 && w8) return act;  // true 8-bit tensor-core path
  return bytes_of(act) >= 2.0 ? act : weight;
}
}  // namespace

KernelCost KernelModel::gemm(double m, double n, double k, DType act,
                             DType weight) const {
  MIB_ENSURE(m > 0 && n > 0 && k > 0, "gemm dims must be positive");
  const double flops = 2.0 * m * n * k;
  const double bytes = n * k * bytes_of(weight) +      // weights
                       m * k * bytes_of(act) +          // input
                       m * n * bytes_of(act);           // output
  const DType compute = gemm_compute_dtype(act, weight);
  const double peak_ratio =
      spec_.peak_flops(compute) / spec_.peak_flops_16;
  KernelCost c = op(flops, bytes, gemm_efficiency(m));
  c.compute_s /= peak_ratio;  // FP8 math doubles peak on H100
  return c;
}

KernelCost KernelModel::grouped_gemm(const std::vector<double>& group_m,
                                     double n, double k, DType act,
                                     DType weight, bool fused) const {
  MIB_ENSURE(!group_m.empty(), "grouped_gemm needs at least one group");
  MIB_ENSURE(n > 0 && k > 0, "grouped_gemm dims must be positive");

  double flops = 0.0;
  double act_bytes = 0.0;
  double weight_bytes = 0.0;
  double compute_s = 0.0;
  int nonempty = 0;
  const DType compute = gemm_compute_dtype(act, weight);
  const double peak =
      spec_.peak_flops(compute) * 1.0;  // efficiency applied per group

  for (double m : group_m) {
    MIB_ENSURE(m >= 0, "negative group size");
    if (m <= 0) continue;
    ++nonempty;
    const double f = 2.0 * m * n * k;
    flops += f;
    act_bytes += m * (k + n) * bytes_of(act);
    weight_bytes += n * k * bytes_of(weight);
    compute_s += f / (peak * gemm_efficiency(m));
  }
  if (nonempty == 0) return KernelCost{};

  KernelCost c;
  c.flops = flops;
  c.bytes = act_bytes + weight_bytes;
  c.compute_s = compute_s;

  const double stream_bw = spec_.mem_bw * spec_.mem_efficiency;
  if (fused) {
    // One grouped launch; routing gather/scatter happens in-kernel via
    // index arrays, so no extra activation round-trip through DRAM.
    c.memory_s = c.bytes / stream_bw;
    c.launch_s = spec_.kernel_launch_overhead;
  } else {
    // Per-expert launches plus an explicit gather before and scatter after:
    // the routed activations make one extra round trip through DRAM.
    const double extra = 2.0 * act_bytes;
    c.bytes += extra;
    c.memory_s = c.bytes / stream_bw;
    c.launch_s = (nonempty + 2) * spec_.kernel_launch_overhead;
  }
  return c;
}

KernelCost KernelModel::attention_prefill(double batch, double seq,
                                          double heads, double head_dim,
                                          DType act) const {
  MIB_ENSURE(batch > 0 && seq > 0 && heads > 0 && head_dim > 0,
             "attention dims must be positive");
  // FlashAttention: QK^T and PV each cost 2*S^2*D per head; causal masking
  // halves the useful work. DRAM traffic is linear (tiles stay in SRAM).
  const double flops = 0.5 * 4.0 * batch * seq * seq * heads * head_dim;
  const double bytes =
      batch * seq * heads * head_dim * bytes_of(act) * 4.0;  // Q,K,V,O
  // Long-sequence attention sustains high utilization; reuse GEMM curve with
  // M = per-head tile rows ~ seq.
  return op(flops, bytes, gemm_efficiency(seq));
}

KernelCost KernelModel::attention_decode(double batch, double ctx,
                                         double heads, double head_dim,
                                         double kv_bytes, DType act) const {
  MIB_ENSURE(batch > 0 && heads > 0 && head_dim > 0,
             "attention dims must be positive");
  MIB_ENSURE(ctx >= 0 && kv_bytes >= 0, "negative context");
  // One query token per sequence attends over ctx cached tokens.
  const double flops = 4.0 * batch * ctx * heads * head_dim;
  const double bytes =
      kv_bytes + 2.0 * batch * heads * head_dim * bytes_of(act);
  // Decode attention is a bandwidth kernel: a single query row cannot fill
  // tensor-core tiles, so efficiency is that of an M=batch GEMM.
  return op(flops, bytes, gemm_efficiency(std::max(1.0, batch)));
}

KernelCost KernelModel::elementwise(double elems, double reads, double writes,
                                    DType act) const {
  MIB_ENSURE(elems >= 0 && reads >= 0 && writes >= 0, "negative work");
  const double bytes = elems * (reads + writes) * bytes_of(act);
  return op(elems, bytes, spec_.max_compute_efficiency);
}

KernelCost KernelModel::memcpy_op(double bytes) const {
  MIB_ENSURE(bytes >= 0, "negative bytes");
  return op(0.0, 2.0 * bytes, spec_.max_compute_efficiency);  // read + write
}

}  // namespace mib::hw
