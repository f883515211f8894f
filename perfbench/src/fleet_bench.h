// Fleet workloads (`fleet_steady`, `fleet_steady_r16`, `fleet_chaos`):
// scenario builders, the report checker, the standalone replica replay and
// the workload runner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "timing.h"

namespace perfbench {

/// One fleet study: the configuration plus the arrival-stamped trace.
struct FleetScenario {
  mib::fleet::FleetConfig config;
  std::vector<mib::fleet::FleetRequest> trace;
};

/// `fleet_steady` (64 replicas) and `fleet_steady_r16` (16 replicas):
/// `replicas` OLMoE-1B-7B replicas (one H100 each), uniform 256-in/64-out
/// requests arriving Poisson at 10 qps per replica, health monitor on, no
/// fault windows.
FleetScenario steady_scenario(std::uint64_t seed, int replicas, int requests);

/// `fleet_chaos`: 8 Qwen3-30B-A3B replicas (one H100 each) on 2 racks
/// serving 800 four-turn conversations arriving Poisson at 130 qps, with
/// every fault, brownout, warm-up, drain, stale-router, hedge and partition
/// window placed at a fraction of the arrival span.
FleetScenario chaos_scenario(std::uint64_t seed);

inline constexpr const char* kFleetWorkloads[] = {
    "fleet_steady", "fleet_steady_r16", "fleet_chaos"};

/// The workload's scenario at its benchmark size.
FleetScenario fleet_workload(const std::string& workload, std::uint64_t seed);

/// The committed digest (reference.h) of the workload's canonical run.
std::uint64_t reference_digest(const std::string& workload);

/// 64-bit FNV-1a digest of every simulated quantity of a report: counters,
/// per-replica stats and every request record (doubles by bit pattern).
std::uint64_t report_digest(const mib::fleet::FleetReport& report);

/// Output check of one fleet op. Fails when the report breaks conservation
/// (completed + rejected + expired + lost != submitted, or the per-request
/// statuses disagree with the counters) or when its digest differs from
/// `expected_digest`. `why` receives the first violation.
bool check_report(const mib::fleet::FleetReport& report,
                  std::uint64_t expected_digest, std::string* why = nullptr);

/// Engine pricing keys one replica step used.
struct DecodeKey {
  int batch = 0;
  double ctx = 0.0;
  bool operator<(const DecodeKey& o) const {
    return batch != o.batch ? batch < o.batch : ctx < o.ctx;
  }
};

/// Completed requests replayed per replica through standalone
/// `fleet::Replica`s via begin_step/complete_step.
struct ReplayResult {
  std::vector<long long> steps;   ///< per replica
  std::vector<double> busy_s;     ///< per replica, as priced by the replica
  std::vector<DecodeKey> decode_keys;  ///< every decode_step call, in order
  std::vector<int> prefill_keys;       ///< every prefill(1, n) call's n
  /// Steps whose cost re-priced from the reconstructed keys differs from
  /// what the replica charged (0 when the keys are read back exactly).
  long long repriced_mismatches = 0;
  double wall_s = 0.0;
};

/// Replay each replica's completed requests (by RequestRecord::replica,
/// with their arrival times) on the base cost model of `cfg`.
ReplayResult replay_replicas(const FleetScenario& scenario,
                             const mib::fleet::FleetReport& report,
                             long long kv_capacity_tokens,
                             SpanRecorder* spans = nullptr);

/// Whether the replay reproduced every replica's step count and busy time
/// bit for bit, with every step re-priced exactly from its read-back keys.
bool replay_matches(const ReplayResult& replay,
                    const mib::fleet::FleetReport& report);

/// Per-layer fleet and engine metrics of one scenario: event-loop and
/// health costs, the replica replay, pricing, schedule lookups and the
/// simulated counts of `report`. `op_s` is the median untraced run time.
/// Returns the replica replay the metrics were read from.
ReplayResult add_fleet_layers(Result& out, const FleetScenario& scenario,
                              const mib::fleet::FleetSimulator& sim,
                              const mib::fleet::FleetReport& report,
                              double op_s, SpanRecorder* spans);

/// The same metrics on the `fleet_steady` scenario, for traced runs of
/// workloads that do not drive the fleet themselves.
void add_fleet_layers(Result& out, std::uint64_t seed, SpanRecorder* spans);

/// Run a fleet workload per the benchmark contract.
Result run_fleet(const std::string& workload, const RunOptions& opts);

}  // namespace perfbench
