// Device descriptors for the roofline cost model.
//
// A DeviceSpec captures the handful of hardware quantities that determine
// transformer-inference performance: peak math throughput per dtype, memory
// capacity and bandwidth, kernel-launch overhead and achievable-efficiency
// ceilings. Presets are calibrated from public datasheets:
//   * H100 SXM5 80GB  — 989.4 TFLOPS dense BF16/FP16, 1978.9 TFLOPS FP8,
//                       3.35 TB/s HBM3, 50 MB L2, 132 SMs, NVLink4.
//   * A100 SXM4 80GB  — 312 TFLOPS BF16, 624 TOPS INT8, 2.04 TB/s HBM2e.
//   * Cerebras CS-3   — wafer-scale engine; modeled with on-wafer SRAM
//                       bandwidth (21 PB/s class) so decode is never
//                       HBM-bound, plus a per-token pipeline floor for the
//                       cross-node weight-streaming latency of the cloud
//                       replica used in the paper's Fig. 16.
#pragma once

#include <string>

#include "common/dtype.h"

namespace mib::hw {

struct DeviceSpec {
  std::string name;

  /// Dense tensor-core peak at 16-bit precision (FLOP/s).
  double peak_flops_16 = 0.0;
  /// Dense peak at 8-bit precisions (FLOP/s); 0 means "no 8-bit math units"
  /// (falls back to 16-bit peak).
  double peak_flops_8 = 0.0;
  /// Vector FP32 peak (FLOP/s) — used for non-tensor-core ops.
  double peak_flops_32 = 0.0;

  /// Memory capacity available to the runtime (bytes).
  double mem_bytes = 0.0;
  /// Peak DRAM (or wafer SRAM) bandwidth (bytes/s).
  double mem_bw = 0.0;

  int sm_count = 0;

  /// Fixed cost per kernel launch (seconds). This is what Fused MoE saves.
  double kernel_launch_overhead = 0.0;

  /// Achievable fraction of peak FLOPs for large, well-shaped GEMMs (MFU
  /// ceiling). Real H100 GEMMs top out around 0.7–0.8 of datasheet peak.
  double max_compute_efficiency = 0.75;
  /// Achievable fraction of peak memory bandwidth for streaming kernels.
  double mem_efficiency = 0.82;

  /// GEMM efficiency half-saturation point in the token (M) dimension:
  /// eff(M) = max_eff * M / (M + gemm_m_half). Small per-expert batches
  /// under-fill tensor-core tiles; this single knob captures it.
  double gemm_m_half = 96.0;

  /// Additive per-token scheduling floor (seconds) applied to each decode
  /// step; models framework/dispatch overhead (vLLM step overhead on GPUs,
  /// cross-node pipelining on the CS-3 replica).
  double step_overhead = 0.0;

  /// Fraction of mem_bytes usable for weights+KV (vLLM's gpu_memory_util).
  double usable_mem_fraction = 0.90;

  /// Board power under inference load (watts) — for tokens/joule studies.
  double tdp_watts = 0.0;

  /// Peak FLOP/s for a compute dtype.
  double peak_flops(DType dt) const;
  /// Usable memory in bytes.
  double usable_mem() const { return mem_bytes * usable_mem_fraction; }

  /// A throttled copy of this device: math peaks scaled by `flops_scale`
  /// and memory bandwidth by `mem_bw_scale` (both in (0, 1]). Capacity is
  /// untouched — a thermally throttled or ECC-degraded part keeps its
  /// memory, it just moves data and multiplies slower. Used by the fleet's
  /// degradation model to price slow-but-alive replicas.
  DeviceSpec derate(double flops_scale, double mem_bw_scale) const;
};

/// Datasheet presets.
DeviceSpec h100_sxm5();
DeviceSpec a100_sxm4();
/// H200 SXM: H100 silicon with 141 GB HBM3e at 4.8 TB/s.
DeviceSpec h200_sxm();
/// B200 SXM: Blackwell, 2.25 PFLOPS dense FP16, 192 GB HBM3e at 8 TB/s.
DeviceSpec b200_sxm();
DeviceSpec cs3();

/// Lookup by case-insensitive name ("h100", "h200", "b200", "a100", "cs3").
DeviceSpec device_by_name(const std::string& name);

}  // namespace mib::hw
