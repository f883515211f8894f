#include "hw/device.h"

#include "common/string_util.h"
#include "common/units.h"

namespace mib::hw {

double DeviceSpec::peak_flops(DType dt) const {
  switch (dt) {
    case DType::kFP32:
      return peak_flops_32 > 0 ? peak_flops_32 : peak_flops_16 / 2.0;
    case DType::kFP16:
    case DType::kBF16:
      return peak_flops_16;
    case DType::kFP8E4M3:
    case DType::kFP8E5M2:
    case DType::kINT8:
      return peak_flops_8 > 0 ? peak_flops_8 : peak_flops_16;
    case DType::kINT4:
      // No native INT4 math on these parts: weights are dequantized into
      // 16-bit mac units, so compute peak is the 16-bit one.
      return peak_flops_16;
  }
  return peak_flops_16;
}

DeviceSpec DeviceSpec::derate(double flops_scale, double mem_bw_scale) const {
  DeviceSpec d = *this;
  d.name = name + " (derated)";
  d.peak_flops_16 *= flops_scale;
  d.peak_flops_8 *= flops_scale;
  d.peak_flops_32 *= flops_scale;
  d.mem_bw *= mem_bw_scale;
  return d;
}

DeviceSpec h100_sxm5() {
  DeviceSpec d;
  d.name = "H100-SXM5-80GB";
  d.peak_flops_16 = 989.4 * kTFLOPS;
  d.peak_flops_8 = 1978.9 * kTFLOPS;
  d.peak_flops_32 = 66.9 * kTFLOPS;
  d.mem_bytes = 80.0 * kGiB;
  d.mem_bw = 3.35 * kTB;
  d.sm_count = 132;
  d.kernel_launch_overhead = 4.0e-6;
  d.max_compute_efficiency = 0.75;
  d.mem_efficiency = 0.82;
  d.gemm_m_half = 96.0;
  // Per-decode-step serving-framework overhead: scheduler, sampling,
  // detokenization and dispatch. vLLM-era measurements put this near a
  // millisecond per step on small/mid models; it is what masks weight
  // traffic differences at batch 1 (paper Fig. 5) and compresses TP
  // scaling for small models.
  d.step_overhead = 1.0e-3;
  d.usable_mem_fraction = 0.90;
  d.tdp_watts = 700.0;
  return d;
}

DeviceSpec a100_sxm4() {
  DeviceSpec d;
  d.name = "A100-SXM4-80GB";
  d.peak_flops_16 = 312.0 * kTFLOPS;
  d.peak_flops_8 = 624.0 * kTFLOPS;  // INT8 TOPS; no FP8 units on Ampere
  d.peak_flops_32 = 19.5 * kTFLOPS;
  d.mem_bytes = 80.0 * kGiB;
  d.mem_bw = 2.04 * kTB;
  d.sm_count = 108;
  d.kernel_launch_overhead = 4.5e-6;
  d.max_compute_efficiency = 0.70;
  d.mem_efficiency = 0.80;
  d.gemm_m_half = 112.0;
  d.step_overhead = 1.1e-3;
  d.usable_mem_fraction = 0.90;
  d.tdp_watts = 400.0;
  return d;
}

DeviceSpec h200_sxm() {
  DeviceSpec d = h100_sxm5();
  d.name = "H200-SXM-141GB";
  d.mem_bytes = 141.0 * kGiB;
  d.mem_bw = 4.8 * kTB;
  d.tdp_watts = 700.0;
  return d;
}

DeviceSpec b200_sxm() {
  DeviceSpec d;
  d.name = "B200-SXM-192GB";
  d.peak_flops_16 = 2250.0 * kTFLOPS;
  d.peak_flops_8 = 4500.0 * kTFLOPS;
  d.peak_flops_32 = 80.0 * kTFLOPS;
  d.mem_bytes = 192.0 * kGiB;
  d.mem_bw = 8.0 * kTB;
  d.sm_count = 148;
  d.kernel_launch_overhead = 3.5e-6;
  d.max_compute_efficiency = 0.72;
  d.mem_efficiency = 0.82;
  d.gemm_m_half = 112.0;  // bigger tensor-core tiles need more rows
  d.step_overhead = 1.0e-3;
  d.usable_mem_fraction = 0.90;
  d.tdp_watts = 1000.0;
  return d;
}

DeviceSpec cs3() {
  DeviceSpec d;
  d.name = "Cerebras-CS3";
  // WSE-3: 900k cores, 125 PFLOPS FP16 (sparse datasheet peak; dense
  // sustained is far lower — the efficiency ceiling below reflects that),
  // 44 GB on-wafer SRAM at 21 PB/s. The paper's Fig. 16 runs a cloud
  // replica that streams most weights at FP8; its defining property is that
  // per-token latency barely grows with context because nothing is
  // HBM-bound.
  d.name = "Cerebras-CS3";
  d.peak_flops_16 = 125.0 * kPFLOPS;
  d.peak_flops_8 = 125.0 * kPFLOPS;
  d.peak_flops_32 = 15.0 * kPFLOPS;
  d.mem_bytes = 1200.0 * kGiB;  // MemoryX-backed replica capacity
  d.mem_bw = 21.0 * kPB;
  d.sm_count = 900000;
  d.kernel_launch_overhead = 0.5e-6;  // dataflow scheduling, no CUDA launches
  d.max_compute_efficiency = 0.04;    // sustained dense MFU on the wafer
  d.mem_efficiency = 0.70;
  d.gemm_m_half = 1.0;  // fine-grained dataflow: no tile under-fill penalty
  d.step_overhead = 3.5e-4;  // cross-node pipelining floor of the replica
  d.usable_mem_fraction = 0.95;
  d.tdp_watts = 23000.0;  // full CS-3 system power
  return d;
}

DeviceSpec device_by_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "h100" || n == "h100-sxm5" || n == "h100-sxm5-80gb") {
    return h100_sxm5();
  }
  if (n == "a100" || n == "a100-sxm4" || n == "a100-sxm4-80gb") {
    return a100_sxm4();
  }
  if (n == "h200" || n == "h200-sxm" || n == "h200-sxm-141gb") {
    return h200_sxm();
  }
  if (n == "b200" || n == "b200-sxm" || n == "b200-sxm-192gb") {
    return b200_sxm();
  }
  if (n == "cs3" || n == "cs-3" || n == "cerebras-cs3") return cs3();
  throw ConfigError("unknown device name: " + name);
}

}  // namespace mib::hw
