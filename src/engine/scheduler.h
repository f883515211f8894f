// Continuous-batching serving simulator (vLLM's scheduling discipline).
//
// The paper benchmarks static uniform batches; production engines run
// continuous batching: sequences join and leave the running batch every
// step, prefills are chunked into a per-step token budget, and KV pressure
// preempts the youngest sequence instead of failing. ServingSimulator runs
// a trace to completion on one engine::Replica (engine/replica.h, the one
// implementation of that discipline, shared with the fleet simulator) and
// reports the serving-level quantities the static grid cannot show:
// TTFT/e2e distributions under load, batch occupancy, and preemption
// counts. Arrival times come from the trace (`Request::arrival_s`, stamped
// by workload/arrivals.h); unstamped requests all arrive at t=0.
#pragma once

#include <vector>

#include "common/stats.h"
#include "engine/engine.h"
#include "engine/replica.h"

namespace mib::engine {

/// The serving simulator's settings are the replica's.
using SchedulerConfig = ReplicaConfig;

/// Per-request outcome.
struct RequestOutcome {
  double arrival_s = 0.0;
  double first_token_s = 0.0;  ///< absolute time of first output token
  double finish_s = 0.0;
  int input_tokens = 0;
  int output_tokens = 0;

  double ttft() const { return first_token_s - arrival_s; }
  double e2e() const { return finish_s - arrival_s; }
};

struct ServingReport {
  double makespan_s = 0.0;
  double throughput_tok_s = 0.0;  ///< (in+out) tokens / makespan
  double goodput_tok_s = 0.0;     ///< generated tokens / makespan
  Samples ttft_s;
  Samples e2e_s;
  double mean_running_batch = 0.0;  ///< batch occupancy per step
  long long steps = 0;
  int preemptions = 0;
  std::vector<RequestOutcome> requests;
};

class ServingSimulator {
 public:
  ServingSimulator(EngineConfig engine, SchedulerConfig sched);

  /// Token capacity of the KV pool (per replica).
  long long kv_token_capacity() const { return kv_capacity_tokens_; }

  /// Serve a trace to completion.
  ServingReport run(const std::vector<Request>& requests) const;

 private:
  EngineConfig cfg_;
  SchedulerConfig sched_;
  LayerCostModel cost_;
  long long kv_capacity_tokens_ = 0;
};

}  // namespace mib::engine
