// FNV-1a digest over every field of a FleetReport: all counters, every
// Samples set value by value, the circuit and scale timelines, the
// per-replica rows and every RequestRecord. Two reports with equal digests
// are bit-identical for every practical purpose; the fleet goldens pin it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "fleet/fleet.h"

namespace mib::fleet {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void i(long long v) { u(static_cast<std::uint64_t>(v)); }
  void d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
  void s(const Samples& xs) {
    u(xs.count());
    for (double x : xs.values()) d(x);
  }
  void str(const std::string& v) {
    u(v.size());
    for (char c : v) u(static_cast<unsigned char>(c));
  }
};

inline std::uint64_t digest(const FleetReport& r) {
  Fnv f;
  for (double v : {r.makespan_s, r.throughput_tok_s, r.view_disagreement_s,
                   r.duplicate_decode_s, r.lost_completion_s}) {
    f.d(v);
  }
  for (long long v :
       {r.submitted, r.completed, r.rejected, r.expired, r.lost, r.retries,
        r.prefix_lookups, r.prefix_hits, r.hedges_issued, r.hedges_won,
        r.hedges_cancelled, r.circuit_opens, r.false_circuit_opens,
        r.hedges_shed, r.migrations, r.migrated_kv_tokens,
        r.drain_evacuations, r.overlap_decode_tokens, r.router_stranded,
        r.stale_dispatches, r.double_dispatches, r.fenced_requests,
        r.autoscaler_conflicts, r.orphaned_completions, r.client_resends,
        r.quorum_fenced, r.partition_flaps, r.migration_aborts,
        r.hedges_suppressed}) {
    f.i(v);
  }
  for (int v : {r.warmup_recoveries, r.suspicion_bursts,
                r.largest_suspicion_burst, r.replicas_used}) {
    f.i(v);
  }
  for (const Samples* xs : {&r.ttft_s, &r.itl_s, &r.e2e_s, &r.detection_lag_s,
                            &r.migration_s, &r.partition_heal_lag_s}) {
    f.s(*xs);
  }
  f.i(r.slo.submitted);
  f.i(r.slo.completed);
  f.i(r.slo.attained);
  f.d(r.slo.attainment);
  f.d(r.slo.goodput_qps);
  f.d(r.slo.goodput_tok_s);
  f.u(r.circuit_events.size());
  for (const auto& e : r.circuit_events) {
    f.d(e.t_s);
    f.i(e.replica);
    f.i(static_cast<long long>(e.to));
    f.i(e.replica_was_up ? 1 : 0);
  }
  f.u(r.replicas.size());
  for (const auto& rr : r.replicas) {
    f.i(rr.replica);
    f.i(rr.completed);
    f.i(rr.steps);
    f.i(rr.preemptions);
    f.d(rr.busy_s);
    f.d(rr.utilization);
    f.i(rr.prefix_lookups);
    f.i(rr.prefix_hits);
    f.s(rr.ttft_s);
    f.s(rr.itl_s);
    f.s(rr.e2e_s);
  }
  f.u(r.scale_events.size());
  for (const auto& e : r.scale_events) {
    f.d(e.t_s);
    f.str(e.action);
    f.i(e.replica);
    f.i(e.queue_depth);
    f.i(e.active_after);
  }
  f.u(r.requests.size());
  for (const auto& q : r.requests) {
    f.i(static_cast<long long>(q.status));
    f.d(q.arrival_s);
    f.d(q.first_token_s);
    f.d(q.finish_s);
    f.i(q.input_tokens);
    f.i(q.output_tokens);
    f.i(q.replica);
    f.i(q.retries);
    int flags = 0;
    int bit = 0;
    for (bool b : {q.had_prefix, q.prefix_hit, q.hedged, q.won_by_hedge,
                   q.migrated, q.router_failover, q.double_dispatched,
                   q.fenced, q.orphaned, q.quorum_rehomed}) {
      flags |= (b ? 1 : 0) << bit++;
    }
    f.i(flags);
  }
  return f.h;
}

}  // namespace mib::fleet
