// Fleet contract: exact outcomes of `FleetSimulator::run` on a fixed matrix
// of small scenarios, one or more per subsystem.
//
// Each row pins the completed count and the makespan bit-for-bit
// (hexfloat), plus an FNV-1a digest over every field of the FleetReport:
// all counters, every Samples set value by value, the circuit and scale
// timelines, the per-replica rows and every RequestRecord. A change to
// routing, admission, drain, hedging, detection, the control plane or the
// autoscaler that alters any simulated outcome on these configurations
// fails here. On a mismatch the failure message prints the row as it
// should be pasted.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>

#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "report_digest.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace mib::fleet {
namespace {

// --- scenario builders ---

FleetConfig base_cfg(int replicas) {
  FleetConfig fc;
  fc.engine.model = models::olmoe_1b_7b();
  fc.engine.cluster = hw::Cluster::h100_node(1);
  fc.n_replicas = replicas;
  fc.seed = 9;
  return fc;
}

std::vector<FleetRequest> uniform_trace(int n, double qps, int in_tok = 256,
                                        int out_tok = 64) {
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, in_tok, out_tok));
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = 21;
  stamp_arrivals(ac, trace);
  return trace;
}

PartitionWindow cut(double start, double end, std::vector<int> routers,
                    std::vector<int> replicas) {
  PartitionWindow w;
  w.start_s = start;
  w.end_s = end;
  w.minority_routers = std::move(routers);
  w.minority_replicas = std::move(replicas);
  return w;
}

FleetConfig partitioned(int replicas, int routers) {
  FleetConfig fc = base_cfg(replicas);
  fc.control.routers = routers;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.05;
  fc.retry.max_retries = 12;
  return fc;
}

/// rack0 = {0, 1}, rack1 = {2, 3}, one zone.
TopologyConfig two_racks() {
  TopologyConfig tc;
  tc.domains = {DomainSpec{"zone", ""}, DomainSpec{"rack0", "zone"},
                DomainSpec{"rack1", "zone"}, DomainSpec{"n0", "rack0"},
                DomainSpec{"n1", "rack0"}, DomainSpec{"n2", "rack1"},
                DomainSpec{"n3", "rack1"}};
  tc.replica_domain = {"n0", "n1", "n2", "n3"};
  return tc;
}

FleetReport drain(bool migrate, int stripes, bool overlap) {
  FleetConfig fc = base_cfg(3);
  fc.maintenance.push_back(MaintenanceWindow{0, 0.5, 1.5});
  fc.maintenance.push_back(MaintenanceWindow{1, 1.6, 1.9});
  fc.migration.migrate_kv = migrate;
  fc.migration.stripe_links = stripes;
  fc.migration.overlap_decode = overlap;
  fc.migration.per_sequence_overhead_s = 0.004;
  return FleetSimulator(fc).run(uniform_trace(160, 110.0, 512, 128));
}

// Replica 0 drains under a cut that severs it from the drain fabric, and
// replica 1's drain is cut off mid-transfer by a later cut.
FleetReport severed_drain(bool overlap) {
  FleetConfig fc = partitioned(3, 2);
  fc.control.partition.sever_drain_fabric = true;
  fc.control.partition.windows = {cut(0.3, 0.7, {1}, {0}),
                                  cut(1.02, 1.4, {1}, {1})};
  fc.maintenance.push_back(MaintenanceWindow{0, 0.5, 0.9});
  fc.maintenance.push_back(MaintenanceWindow{1, 1.0, 1.3});
  fc.migration.overlap_decode = overlap;
  fc.migration.link.bandwidth = 2e9;
  return FleetSimulator(fc).run(uniform_trace(140, 100.0, 512, 128));
}

FleetReport brownout_warmup(double downtime_ref_s) {
  FleetConfig fc = base_cfg(3);
  fc.degradations.push_back(
      DegradationWindow{0, 0.2, 0.9, PerfScale{0.4, 0.6, 1.0}});
  fc.degradations.push_back(
      DegradationWindow{2, 0.5, 1.1, PerfScale{1.0, 0.3, 0.5}});
  fc.faults.push_back(FaultWindow{1, 0.3, 0.5});
  fc.faults.push_back(FaultWindow{0, 0.95, 1.0});
  fc.maintenance.push_back(MaintenanceWindow{2, 1.2, 1.4});
  fc.warmup.enabled = true;
  fc.warmup.duration_s = 0.3;
  fc.warmup.downtime_ref_s = downtime_ref_s;
  fc.retry.max_retries = 12;
  return FleetSimulator(fc).run(uniform_trace(150, 110.0));
}

FleetReport stale_routers() {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 3;
  fc.control.view_sync_interval_s = 0.15;
  fc.control.router_faults.push_back(RouterFaultWindow{1, 0.3, 0.8});
  fc.control.router_faults.push_back(RouterFaultWindow{0, 0.6, 0.9});
  fc.control.router_faults.push_back(RouterFaultWindow{1, 1.2, 1.3});
  fc.faults.push_back(FaultWindow{2, 0.5, 1.1});
  fc.retry.max_retries = 16;
  return FleetSimulator(fc).run(uniform_trace(140, 90.0));
}

FleetReport partition(const char* kind) {
  const std::string k = kind;
  FleetConfig fc = partitioned(3, 3);
  PartitionWindow w = cut(0.2, 0.9, {2}, {2});
  if (k == "asymmetric") {
    w.open_to_minority = true;
    fc.control.partition.max_client_retries = 3;
    fc.control.partition.retry_multiplier = 2.0;
    fc.control.partition.retry_jitter = 0.5;
  } else if (k == "flapping") {
    w.flap_period_s = 0.15;
    w.flap_duty = 0.6;
    fc.control.partition.heal = HealPolicy::kFirstCommitWins;
  } else if (k == "quorum") {
    fc.control.partition.quorum = QuorumPolicy::kFenceAfterGrace;
    fc.control.partition.quorum_grace_s = 0.1;
  }
  fc.control.partition.windows = {w};
  return FleetSimulator(fc).run(uniform_trace(150, 110.0));
}

FleetReport hedge_adaptive() {
  FleetConfig fc = base_cfg(3);
  fc.hedge.enabled = true;
  fc.hedge.min_samples = 8;
  fc.degradations.push_back(
      DegradationWindow{1, 0.3, 1.2, PerfScale{0.3, 0.3, 1.0}});
  return FleetSimulator(fc).run(uniform_trace(150, 120.0));
}

// Light load on four replicas, one of them browned out: requests that
// land on the slow replica hedge only while at most half the fleet is busy.
FleetReport hedge_util_gate() {
  FleetConfig fc = base_cfg(4);
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.02;
  fc.hedge.max_utilization = 0.5;
  fc.replica.max_batch = 4;
  fc.degradations.push_back(
      DegradationWindow{0, 0.0, 3.0, PerfScale{0.3, 0.3, 1.0}});
  return FleetSimulator(fc).run(uniform_trace(120, 20.0));
}

FleetReport hedge_tight_queue() {
  FleetConfig fc = base_cfg(2);
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.03;
  fc.admission.queue_capacity = 3;
  fc.retry.max_retries = 12;
  return FleetSimulator(fc).run(uniform_trace(160, 200.0));
}

FleetReport autoscaled(bool topology_aware) {
  FleetConfig fc = base_cfg(1);
  fc.replica.max_batch = 4;
  fc.autoscaler.enabled = true;
  fc.autoscaler.max_replicas = 4;
  fc.autoscaler.interval_s = 0.1;
  fc.autoscaler.scale_up_queue_depth = 4;
  fc.autoscaler.topology_aware = topology_aware;
  fc.topology = two_racks();
  fc.faults.push_back(FaultWindow{1, 0.9, 1.2});
  fc.retry.max_retries = 12;
  // A burst, a lull that lets the pool shrink, then a second burst.
  auto trace = uniform_trace(160, 140.0);
  for (std::size_t i = 80; i < trace.size(); ++i) {
    trace[i].request.arrival_s += 1.5;
  }
  return FleetSimulator(fc).run(trace);
}

// Four-turn conversations under prefix affinity, plus regenerated replies:
// the same full prompt sent again, so its whole input is a cached prefix.
FleetReport prefix_affinity() {
  FleetConfig fc = base_cfg(3);
  fc.policy = RoutePolicy::kPrefixAffinity;
  workload::ConversationConfig conv;
  conv.n_conversations = 24;
  conv.turns_per_conversation = 4;
  conv.system_prompt_tokens = 256;
  conv.seed = 5;
  auto trace = as_fleet_trace(workload::generate_conversations(conv));
  const std::size_t turns = trace.size();
  for (std::size_t i = 0; i < turns; i += 5) {
    FleetRequest again = trace[i];
    again.prefix_tokens = again.request.input_tokens;
    trace.push_back(again);
  }
  workload::ArrivalConfig ac;
  ac.rate_qps = 60.0;
  ac.seed = 21;
  stamp_arrivals(ac, trace);
  return FleetSimulator(fc).run(trace);
}

// Prefix-affinity conversations on Qwen3-30B-A3B, whose KV pool holds only
// a few dozen long prompts, so replicas preempt under KV pressure. Replica
// 0 crashes mid-run: turns that hit its prefix cache lose their progress
// and complete on a replica whose cache is cold for them, so their
// records must report no prefix hit.
FleetReport prefix_restart() {
  FleetConfig fc = base_cfg(2);
  fc.engine.model = models::qwen3_30b_a3b();
  fc.policy = RoutePolicy::kPrefixAffinity;
  fc.faults.push_back(FaultWindow{0, 1.5, 1.8});
  fc.retry.max_retries = 12;
  workload::ConversationConfig conv;
  conv.n_conversations = 32;
  conv.turns_per_conversation = 3;
  conv.system_prompt_tokens = 4000;
  conv.seed = 5;
  auto trace = as_fleet_trace(workload::generate_conversations(conv));
  workload::ArrivalConfig ac;
  ac.rate_qps = 30.0;
  ac.seed = 21;
  stamp_arrivals(ac, trace);
  return FleetSimulator(fc).run(trace);
}

// Every subsystem at once on one small fleet.
FleetReport everything() {
  FleetConfig fc = partitioned(4, 3);
  fc.policy = RoutePolicy::kPrefixAffinity;
  fc.topology = two_racks();
  fc.domain_faults.push_back(DomainFault{"rack1", 0.6, 0.75});
  DomainDegradation brown;
  brown.domain = "rack0";
  brown.start_s = 1.0;
  brown.end_s = 1.4;
  brown.scale = PerfScale{0.5, 0.5, 0.8};
  fc.domain_degradations.push_back(brown);
  fc.faults.push_back(FaultWindow{0, 0.3, 0.4});
  fc.warmup.enabled = true;
  fc.warmup.downtime_ref_s = 0.2;
  fc.control.view_sync_interval_s = 0.1;
  fc.control.router_faults.push_back(RouterFaultWindow{0, 0.8, 1.1});
  PartitionWindow w = cut(0.45, 1.3, {2}, {3});
  w.open_to_majority = true;
  w.flap_period_s = 0.2;
  fc.control.partition.windows = {w};
  fc.control.partition.quorum = QuorumPolicy::kFenceAtCut;
  fc.control.partition.sever_drain_fabric = true;
  fc.maintenance.push_back(MaintenanceWindow{1, 1.2, 1.5});
  fc.migration.overlap_decode = true;
  fc.migration.stripe_links = 2;
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.05;
  fc.hedge.max_utilization = 0.75;
  fc.admission.queue_capacity = 24;
  fc.admission.deadline_s = 1.5;
  fc.autoscaler.enabled = true;
  fc.autoscaler.min_replicas = 2;
  fc.autoscaler.max_replicas = 4;
  fc.autoscaler.interval_s = 0.1;
  fc.autoscaler.scale_up_queue_depth = 4;
  fc.autoscaler.topology_aware = true;
  fc.n_replicas = 3;
  fc.replica.max_batch = 8;
  fc.retry.jitter = 0.5;
  workload::ConversationConfig conv;
  conv.n_conversations = 40;
  conv.turns_per_conversation = 3;
  conv.system_prompt_tokens = 256;
  conv.seed = 7;
  auto trace = as_fleet_trace(workload::generate_conversations(conv));
  workload::ArrivalConfig ac;
  ac.rate_qps = 80.0;
  ac.seed = 21;
  stamp_arrivals(ac, trace);
  return FleetSimulator(fc).run(trace);
}

// Partitions with the autoscaler and detection on: a burst, a lull in
// which the pool shrinks, a cut, then a second burst. The minority's view
// freezes at the cut, so it records every breaker and pool change the
// views have absorbed up to then, including the passes on which only a
// heartbeat is due.
FleetConfig autoscaled_partition(double cut_start, double cut_end) {
  FleetConfig fc = partitioned(3, 3);
  fc.autoscaler.enabled = true;
  fc.autoscaler.min_replicas = 1;
  fc.autoscaler.max_replicas = 3;
  fc.autoscaler.interval_s = 0.1;
  fc.autoscaler.scale_up_queue_depth = 4;
  fc.control.partition.windows = {cut(cut_start, cut_end, {2}, {2})};
  return fc;
}

FleetReport burst_lull_burst(const FleetConfig& fc) {
  auto trace = uniform_trace(80, 100.0);
  for (std::size_t i = 40; i < trace.size(); ++i) {
    trace[i].request.arrival_s += 0.6;
  }
  return FleetSimulator(fc).run(trace);
}

FleetReport partition_autoscaled() {
  return burst_lull_burst(autoscaled_partition(0.25, 0.75));
}

// The same at a 30 ms heartbeat, cut 10 ms after an autoscaler tick in the
// lull and before the next heartbeat is due: the minority's frozen view
// shows a pool change made at that tick only if a pass between the tick
// and the cut refreshed it, so a pass that should not happen (a stale
// breaker deadline waking the loop) shows here.
FleetReport partition_autoscaled_hb30() {
  FleetConfig fc = autoscaled_partition(0.71, 1.11);
  fc.health.heartbeat_interval_s = 0.03;
  return burst_lull_burst(fc);
}

// Detection edge cases on the autoscaled partition: a fault window that
// starts at t = 0, a maintenance blip shorter than one heartbeat period
// (the replica is suspended and resumed before its next heartbeat was
// due), a brownout that stretches the minority replica's heartbeats
// until just before the cut, hedging and a queueing deadline.
FleetReport partition_detection_edges() {
  FleetConfig fc = autoscaled_partition(0.558, 0.958);
  fc.health.heartbeat_interval_s = 0.05;
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.03;
  fc.admission.deadline_s = 0.4;
  fc.faults.push_back(FaultWindow{1, 0.0, 0.3});
  fc.maintenance.push_back(MaintenanceWindow{0, 0.658, 0.668});
  fc.degradations.push_back(
      DegradationWindow{2, 0.258, 0.508, PerfScale{0.4, 0.4, 1.0}});
  return burst_lull_burst(fc);
}

// A brownout stretches the minority replica's heartbeats shortly before
// the cut, so the gap window the detector averages over when the silence
// starts holds both cadences: the open time depends on its exact length.
FleetReport partition_brownout_before_cut() {
  FleetConfig fc = partitioned(3, 3);
  fc.degradations.push_back(
      DegradationWindow{2, 1.0, 1.2, PerfScale{0.4, 0.4, 1.0}});
  fc.control.partition.windows = {cut(1.25, 1.7, {2}, {2})};
  return FleetSimulator(fc).run(uniform_trace(150, 110.0));
}

// --- golden matrix ---

struct Golden {
  const char* name;
  std::function<FleetReport()> run;
  long long completed;
  double makespan_s;
  std::uint64_t digest;
};

std::string as_row(const char* name, const FleetReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", ..., %lld, %a, 0x%016" PRIx64 "ull}",
                name, r.completed, r.makespan_s, digest(r));
  return buf;
}

const Golden kMatrix[] = {
    {"drain/migrate", [] { return drain(true, 1, false); },
     160, 0x1.4947086943fa8p+1, 0x2afe1655324f1112ull},
    {"drain/overlap-2-stripes", [] { return drain(true, 2, true); },
     160, 0x1.422cf012e6c9p+1, 0xad3c5b01cc46b568ull},
    {"drain/recompute", [] { return drain(false, 1, false); },
     160, 0x1.9466b4dbb89ddp+1, 0xda643efcae8c134bull},
    // Client-patience expiries tie in both severed-cut rows (ids 3, 7, 11,
    // 19 and 23 at t = 0.55); they are served in request-id order.
    {"drain/severed-cut", [] { return severed_drain(false); },
     140, 0x1.58a19c4afd11ep+1, 0x92155468e368de87ull},
    {"drain/severed-cut/overlap", [] { return severed_drain(true); },
     140, 0x1.58a19c4afd11ep+1, 0x2a55f32e0204585dull},
    {"brownout+warmup/ref0", [] { return brownout_warmup(0.0); },
     150, 0x1.ce42689e6e458p+0, 0x554642c23d2842b5ull},
    {"brownout+warmup/ref0.3", [] { return brownout_warmup(0.3); },
     150, 0x1.c645f204cd88fp+0, 0xcf9872fb55b07c90ull},
    {"routers/faults+stale-views", stale_routers,
     140, 0x1.b5276972145ap+0, 0x804ce8d2cceb8ff7ull},
    {"partition/clean", [] { return partition("clean"); },
     150, 0x1.93d29f76e28aap+0, 0x223b9f32b4573278ull},
    {"partition/asymmetric", [] { return partition("asymmetric"); },
     150, 0x1.91188d4b049d5p+0, 0xebf7f7fb931a1e25ull},
    {"partition/flapping", [] { return partition("flapping"); },
     150, 0x1.91743dbb963a3p+0, 0x1bb6f331e939f6b9ull},
    {"partition/quorum-fenced", [] { return partition("quorum"); },
     150, 0x1.96f0721509d85p+0, 0x350de709c4a1447bull},
    {"partition/autoscaled", partition_autoscaled,
     80, 0x1.c4c963ea41ebdp+0, 0x8bde92b123509e15ull},
    {"partition/autoscaled/heartbeat-30ms", partition_autoscaled_hb30,
     80, 0x1.c5cd62da7227fp+0, 0x40ae1cc7abeb4d91ull},
    {"partition/detection-edges", partition_detection_edges,
     74, 0x1.c4c963ea41ebdp+0, 0x5f8fb15153688377ull},
    {"partition/brownout-before-cut", partition_brownout_before_cut,
     150, 0x1.95ff069a0d24cp+0, 0xc23ad91503998db8ull},
    {"hedge/adaptive", hedge_adaptive,
     150, 0x1.8ce0d490ad283p+0, 0xf4130a6ac9260824ull},
    {"hedge/util-gate-0.5", hedge_util_gate,
     120, 0x1.6661a91e93a05p+2, 0x9b5397ac65477d3dull},
    {"hedge/tight-queue", hedge_tight_queue,
     132, 0x1.2a8b3efb014bap+0, 0x840125e7a6771a06ull},
    {"autoscaler/plain", [] { return autoscaled(false); },
     160, 0x1.c92ededa2d79dp+1, 0xedd7dd443444532full},
    {"autoscaler/topology-aware", [] { return autoscaled(true); },
     160, 0x1.d56d5c8925f6bp+1, 0x297f2f502bec6665ull},
    {"prefix-affinity/conversations", prefix_affinity,
     116, 0x1.45f56bb9c2502p+1, 0x210e1a20ed6b22e9ull},
    {"prefix-affinity/crash-under-kv-pressure", prefix_restart,
     96, 0x1.9078b5e3c0b9fp+3, 0x58a7ddf1eae98f9eull},
    {"everything", everything,
     75, 0x1.5f6e45b6a2b66p+1, 0xd19b3b466158be61ull},
};

TEST(FleetGolden, MatrixBitwiseIdentical) {
  for (const auto& g : kMatrix) {
    SCOPED_TRACE(g.name);
    const FleetReport r = g.run();
    SCOPED_TRACE(as_row(g.name, r));
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(r.makespan_s, g.makespan_s);
    EXPECT_EQ(digest(r), g.digest);
  }
}

}  // namespace
}  // namespace mib::fleet
