// SimEngine — the serving-engine simulator that produces the paper's
// metrics (§3.4): TTFT, ITL, end-to-end latency, throughput and
// samples/sec, with memory-pressure handling.
//
// A run executes the request lifecycle the way a static-batch vLLM
// benchmark does: admit as many sequences as KV memory allows (wave
// scheduling when the batch exceeds capacity, mirroring vLLM's
// preempt/queue behavior), charge one prefill, then out_len - 1 decode
// steps with a growing context. OOM (weights + one sequence not fitting)
// raises OutOfMemoryError, which benches render as the paper's missing
// data points.
#pragma once

#include "engine/layer_cost.h"
#include "engine/memory.h"
#include "engine/request.h"

namespace mib::engine {

struct EngineConfig {
  models::ModelConfig model;
  hw::Cluster cluster = hw::Cluster::h100_node(1);
  parallel::ParallelPlan plan;
  CostConfig cost;
  /// Split oversized batches into sequential waves instead of OOM-ing
  /// (vLLM queues what it cannot admit).
  bool allow_wave_scheduling = true;
  /// Max prefill tokens processed at once (chunked prefill): caps the
  /// activation watermark.
  int prefill_chunk_tokens = 16384;

  void validate() const;
};

/// Metrics of one run, matching the paper's definitions.
struct RunMetrics {
  double ttft_s = 0.0;  ///< time to first token (first wave)
  double itl_s = 0.0;   ///< (e2e - ttft) / (batch * out_tokens - 1), eq. (1)
  double e2e_s = 0.0;   ///< prompt submission to final token
  double throughput_tok_s = 0.0;  ///< batch * (in + out) / e2e, eq. (2)
  double decode_tok_s = 0.0;      ///< generated tokens / decode time
  double samples_per_s = 0.0;     ///< batch / e2e (the VLM metric)
  int waves = 1;                  ///< >1 when KV pressure forced queuing
  MemoryBreakdown memory;         ///< per-device footprint of wave 1

  /// Component times (summed over waves) for breakdown reporting.
  PhaseBreakdown prefill_breakdown;
  PhaseBreakdown decode_breakdown;
};

class SimEngine {
 public:
  explicit SimEngine(EngineConfig cfg);

  const EngineConfig& config() const { return cfg_; }
  const LayerCostModel& cost_model() const { return cost_; }
  const MemoryModel& memory_model() const { return mem_; }

  /// Run a uniform batch. Throws OutOfMemoryError if even one sequence
  /// cannot fit (or the whole batch, when wave scheduling is disabled).
  RunMetrics run(int batch, int input_tokens, int output_tokens,
                 int images_per_request = 0) const;

  /// Largest batch of (in+out)-token sequences admissible in one wave.
  int max_batch_without_waves(int input_tokens, int output_tokens,
                              int images_per_request = 0) const;

 private:
  /// One wave: prefill + decode of `batch` sequences. Accumulates
  /// component breakdowns into `metrics`.
  struct WaveResult {
    double ttft = 0.0;
    double decode = 0.0;
  };
  WaveResult run_wave(int batch, int in_eff, int output_tokens,
                      int images_per_request, RunMetrics& metrics) const;

  EngineConfig cfg_;
  LayerCostModel cost_;
  MemoryModel mem_;
};

}  // namespace mib::engine
