// Failure-domain topology, correlated fault/degradation expansion,
// post-recovery warm-up planning, and suspicion-burst detection — the PR 3
// correlated-failure layer, unit-level and end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "workload/arrivals.h"

namespace mib::fleet {
namespace {

FleetConfig base_cfg(int replicas) {
  FleetConfig fc;
  fc.engine.model = models::olmoe_1b_7b();
  fc.engine.cluster = hw::Cluster::h100_node(1);
  fc.n_replicas = replicas;
  fc.seed = 9;
  return fc;
}

std::vector<FleetRequest> uniform_trace(int n, double qps, int in_tok = 256,
                                        int out_tok = 64,
                                        std::uint64_t seed = 21) {
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, in_tok, out_tok));
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = seed;
  stamp_arrivals(ac, trace);
  return trace;
}

/// node0..node{n-1} under rack0/rack1 (split at `split`), both racks under
/// one zone; replica i attaches to node i.
TopologyConfig two_rack_topology(int replicas, int split) {
  TopologyConfig tc;
  tc.domains.push_back(DomainSpec{"zone", ""});
  tc.domains.push_back(DomainSpec{"rack0", "zone"});
  tc.domains.push_back(DomainSpec{"rack1", "zone"});
  for (int i = 0; i < replicas; ++i) {
    const std::string node = "node" + std::to_string(i);
    tc.domains.push_back(DomainSpec{node, i < split ? "rack0" : "rack1"});
    tc.replica_domain.push_back(node);
  }
  return tc;
}

// --- domain-tree validation ---

TEST(Topology, ValidTreeAndMembership) {
  const Topology topo(two_rack_topology(4, 2), 4);
  EXPECT_EQ(topo.replicas_under("rack0"), (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.replicas_under("rack1"), (std::vector<int>{2, 3}));
  EXPECT_EQ(topo.replicas_under("zone"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.replicas_under("node3"), (std::vector<int>{3}));
}

TEST(Topology, ValidationRejectsBadTrees) {
  // Duplicate domain name.
  TopologyConfig dup;
  dup.domains = {DomainSpec{"a", ""}, DomainSpec{"a", ""}};
  EXPECT_THROW(dup.validate(2), Error);
  // Unknown parent.
  TopologyConfig orphan;
  orphan.domains = {DomainSpec{"a", "ghost"}};
  EXPECT_THROW(orphan.validate(2), Error);
  // Self-parent and two-node cycle.
  TopologyConfig self;
  self.domains = {DomainSpec{"a", "a"}};
  EXPECT_THROW(self.validate(2), Error);
  TopologyConfig cycle;
  cycle.domains = {DomainSpec{"a", "b"}, DomainSpec{"b", "a"}};
  EXPECT_THROW(cycle.validate(2), Error);
  // Attachment to an unknown domain, and more attachments than the pool.
  TopologyConfig unknown;
  unknown.domains = {DomainSpec{"a", ""}};
  unknown.replica_domain = {"nope"};
  EXPECT_THROW(unknown.validate(2), Error);
  TopologyConfig overflow;
  overflow.domains = {DomainSpec{"a", ""}};
  overflow.replica_domain = {"a", "a", "a"};
  EXPECT_THROW(overflow.validate(2), Error);
  // Empty name.
  TopologyConfig anon;
  anon.domains = {DomainSpec{"", ""}};
  EXPECT_THROW(anon.validate(2), Error);
  // An empty attachment means an isolated node and is fine.
  TopologyConfig isolated;
  isolated.domains = {DomainSpec{"a", ""}};
  isolated.replica_domain = {"a", ""};
  EXPECT_NO_THROW(isolated.validate(2));
}

TEST(Topology, FleetConfigValidateCoversDomainEvents) {
  auto fc = base_cfg(3);
  fc.domain_faults.push_back(DomainFault{"rack0", 1.0, 2.0});
  // Domain events without a topology are rejected.
  EXPECT_THROW(fc.validate(), Error);
  fc.topology = two_rack_topology(3, 2);
  EXPECT_NO_THROW(fc.validate());
  // Negative-duration domain event.
  fc.domain_faults.push_back(DomainFault{"rack1", 2.0, 2.0});
  EXPECT_THROW(fc.validate(), Error);
}

// --- expansion ---

TEST(Topology, FaultExpansionUnionsOverlappingWindows) {
  const Topology topo(two_rack_topology(3, 2), 3);
  // Rack event [1, 2) over replicas {0, 1}; explicit window on replica 0
  // overlapping it, plus a disjoint one on replica 2.
  std::vector<FaultWindow> base = {FaultWindow{0, 1.5, 3.0},
                                   FaultWindow{2, 5.0, 6.0}};
  auto out = expand_domain_faults(topo, {DomainFault{"rack0", 1.0, 2.0}},
                                  std::move(base));
  std::sort(out.begin(), out.end(), [](const FaultWindow& a, const FaultWindow& b) {
    return std::tie(a.replica, a.start_s) < std::tie(b.replica, b.start_s);
  });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].replica, 0);  // union of [1,2) and [1.5,3)
  EXPECT_DOUBLE_EQ(out[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(out[0].end_s, 3.0);
  EXPECT_EQ(out[1].replica, 1);
  EXPECT_DOUBLE_EQ(out[1].start_s, 1.0);
  EXPECT_DOUBLE_EQ(out[1].end_s, 2.0);
  EXPECT_EQ(out[2].replica, 2);
  // The merged schedule is disjoint per replica by construction.
  EXPECT_NO_THROW(ensure_disjoint_windows(out));
}

TEST(Topology, FaultExpansionRejectsEmptyDomains) {
  const Topology topo(two_rack_topology(2, 2), 2);
  // rack1 exists but nothing attaches under it with only 2 replicas.
  EXPECT_THROW(
      expand_domain_faults(topo, {DomainFault{"rack1", 1.0, 2.0}}, {}),
      Error);
}

TEST(Topology, DegradationExpansionAppliesToEveryReplicaUnderTheDomain) {
  const Topology topo(two_rack_topology(4, 2), 4);
  DomainDegradation ev;
  ev.domain = "rack1";
  ev.start_s = 1.0;
  ev.end_s = 2.0;
  ev.scale = PerfScale{1.0, 1.0, 0.25};  // a contended ToR switch
  const auto out = expand_domain_degradations(topo, {ev}, {});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].replica, 2);
  EXPECT_EQ(out[1].replica, 3);
  EXPECT_DOUBLE_EQ(out[0].scale.link_bw, 0.25);
}

TEST(Topology, DegradationExpansionRejectsCollisions) {
  const Topology topo(two_rack_topology(2, 2), 2);
  DomainDegradation ev;
  ev.domain = "rack0";
  ev.start_s = 1.0;
  ev.end_s = 2.0;
  ev.scale = PerfScale{0.5, 1.0, 1.0};
  // Explicit window on replica 0 overlapping the expanded rack event.
  std::vector<DegradationWindow> base = {
      DegradationWindow{0, 1.5, 2.5, PerfScale{0.9, 1.0, 1.0}}};
  EXPECT_THROW(expand_domain_degradations(topo, {ev}, std::move(base)), Error);
}

// --- PerfScale composition and the scale pool ---

TEST(Degradation, ComposeMultipliesPerDimension) {
  const PerfScale a{0.5, 0.8, 1.0};
  const PerfScale b{0.5, 1.0, 0.4};
  const PerfScale c = compose(a, b);
  EXPECT_DOUBLE_EQ(c.flops, 0.25);
  EXPECT_DOUBLE_EQ(c.mem_bw, 0.8);
  EXPECT_DOUBLE_EQ(c.link_bw, 0.4);
  // Identity composition is bitwise-neutral.
  const PerfScale id = compose(a, PerfScale{});
  EXPECT_TRUE(id == a);
}

TEST(Degradation, ScalesForIncludesOverlapProducts) {
  const DegradationWindow brown{0, 1.0, 3.0, PerfScale{0.5, 0.5, 1.0}};
  const DegradationWindow ramp_hit{0, 2.0, 2.5, PerfScale{0.6, 0.6, 1.0}};
  const DegradationWindow ramp_miss{1, 2.0, 2.5, PerfScale{0.6, 0.6, 1.0}};
  const auto scales = scales_for({brown}, {ramp_hit, ramp_miss});
  // Distinct scales of both sets plus the same-replica overlap product.
  const PerfScale product = compose(brown.scale, ramp_hit.scale);
  EXPECT_EQ(scales.size(), 3u);
  EXPECT_NE(std::find(scales.begin(), scales.end(), product), scales.end());
}

// --- warm-up planning ---

TEST(Warmup, StaircaseRampsFromInitialScaleToFull) {
  WarmupConfig wc;
  wc.enabled = true;
  wc.duration_s = 0.4;
  wc.initial_scale = 0.5;
  wc.ramp_steps = 4;
  const auto plan =
      plan_warmup(wc, {FaultWindow{0, 1.0, 2.0}}, {});
  EXPECT_EQ(plan.recoveries, 1);
  ASSERT_EQ(plan.windows.size(), 4u);
  EXPECT_DOUBLE_EQ(plan.windows[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.windows[0].scale.flops, 0.5);
  EXPECT_DOUBLE_EQ(plan.windows[1].scale.flops, 0.625);
  EXPECT_DOUBLE_EQ(plan.windows[3].scale.flops, 0.875);
  EXPECT_DOUBLE_EQ(plan.windows[3].end_s, 2.4);
  // Link bandwidth is untouched by a cold cache.
  for (const auto& w : plan.windows) EXPECT_DOUBLE_EQ(w.scale.link_bw, 1.0);
}

TEST(Warmup, StaircaseClipsAtTheNextDownEdge) {
  WarmupConfig wc;
  wc.enabled = true;
  wc.duration_s = 1.0;
  wc.initial_scale = 0.5;
  wc.ramp_steps = 4;
  // Recovery at t=2, next outage at t=2.3 — only the first two steps fit
  // (and the second is truncated).
  const auto plan = plan_warmup(
      wc, {FaultWindow{0, 1.0, 2.0}, FaultWindow{0, 2.3, 3.0}}, {});
  EXPECT_EQ(plan.recoveries, 2);  // the second outage also recovers
  double max_end = 0.0;
  for (const auto& w : plan.windows) {
    if (w.start_s < 2.3) max_end = std::max(max_end, w.end_s);
  }
  EXPECT_LE(max_end, 2.3);
  // Windows for one replica never overlap: DegradationSchedule accepts it.
  EXPECT_NO_THROW(DegradationSchedule(plan.windows));
}

TEST(Warmup, MaintenanceRecoveriesEarnARampToo) {
  WarmupConfig wc;
  wc.enabled = true;
  const auto plan = plan_warmup(wc, {}, {MaintenanceWindow{1, 1.0, 2.0}});
  EXPECT_EQ(plan.recoveries, 1);
  EXPECT_FALSE(plan.windows.empty());
  EXPECT_EQ(plan.windows[0].replica, 1);
}

TEST(Warmup, DisabledPlansNothing) {
  const auto plan = plan_warmup(WarmupConfig{}, {FaultWindow{0, 1.0, 2.0}}, {});
  EXPECT_EQ(plan.recoveries, 0);
  EXPECT_TRUE(plan.windows.empty());
}

// --- suspicion-burst detection ---

TEST(SuspicionBurst, GroupsNearSimultaneousOpens) {
  std::vector<CircuitEvent> ev;
  ev.push_back(CircuitEvent{1.00, 0, CircuitState::kOpen, false});
  ev.push_back(CircuitEvent{1.01, 1, CircuitState::kOpen, false});
  ev.push_back(CircuitEvent{1.015, 2, CircuitState::kOpen, false});
  ev.push_back(CircuitEvent{1.2, 0, CircuitState::kHalfOpen, false});  // noise
  ev.push_back(CircuitEvent{5.0, 1, CircuitState::kOpen, false});  // isolated
  const auto bursts = detect_suspicion_bursts(ev, 0.02);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].size, 3);
  EXPECT_DOUBLE_EQ(bursts[0].start_s, 1.00);
  EXPECT_DOUBLE_EQ(bursts[0].end_s, 1.015);
}

TEST(SuspicionBurst, RepeatOpensOfOneReplicaAreNotABurst) {
  std::vector<CircuitEvent> ev;
  ev.push_back(CircuitEvent{1.00, 0, CircuitState::kOpen, false});
  ev.push_back(CircuitEvent{1.01, 0, CircuitState::kOpen, false});
  EXPECT_TRUE(detect_suspicion_bursts(ev, 0.02).empty());
}

// --- end-to-end: correlated faults open a simultaneous burst ---

TEST(CorrelatedFaults, RackEventOpensASuspicionBurst) {
  auto fc = base_cfg(4);
  fc.topology = two_rack_topology(4, 2);
  fc.domain_faults.push_back(DomainFault{"rack0", 0.8, 1.6});
  fc.retry.max_retries = 12;
  const FleetSimulator sim(fc);
  // The expanded schedule covers both rack members.
  ASSERT_EQ(sim.expanded_faults().size(), 2u);
  const auto r = sim.run(uniform_trace(160, 120.0));
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  // Both breakers open within one heartbeat interval of each other.
  EXPECT_GE(r.suspicion_bursts, 1);
  EXPECT_GE(r.largest_suspicion_burst, 2);
}

TEST(CorrelatedFaults, CorrelatedBeatsIndependentOnGoodputGap) {
  // Equal total fault-seconds: one rack event of 2x0.8s vs two staggered
  // independent 0.8s outages. The correlated run loses both replicas at
  // once and should attain measurably less SLO goodput.
  const auto trace = uniform_trace(240, 140.0);
  auto correlated = base_cfg(4);
  correlated.topology = two_rack_topology(4, 2);
  correlated.domain_faults.push_back(DomainFault{"rack0", 0.8, 1.6});
  correlated.retry.max_retries = 12;
  correlated.slo.ttft_s = 0.35;  // tight enough that outages cost goodput
  auto independent = base_cfg(4);
  independent.faults.push_back(FaultWindow{0, 0.8, 1.6});
  independent.faults.push_back(FaultWindow{1, 2.4, 3.2});
  independent.retry.max_retries = 12;
  independent.slo.ttft_s = 0.35;
  const auto rc = FleetSimulator(correlated).run(trace);
  const auto ri = FleetSimulator(independent).run(trace);
  EXPECT_EQ(rc.completed + rc.rejected + rc.expired + rc.lost, rc.submitted);
  EXPECT_EQ(ri.completed + ri.rejected + ri.expired + ri.lost, ri.submitted);
  EXPECT_LT(rc.slo.attainment, ri.slo.attainment);
  // And only the correlated run shows the burst signature.
  EXPECT_GE(rc.largest_suspicion_burst, 2);
  EXPECT_LT(ri.largest_suspicion_burst, 2);
}

// --- end-to-end: warm-up windows self-clear and derate throughput ---

TEST(WarmupE2E, RecoveredReplicaRampsBackAndWindowsSelfClear) {
  auto fc = base_cfg(2);
  fc.faults.push_back(FaultWindow{0, 0.5, 1.0});
  fc.warmup.enabled = true;
  fc.warmup.duration_s = 0.5;
  fc.warmup.initial_scale = 0.4;
  fc.warmup.ramp_steps = 4;
  fc.retry.max_retries = 12;
  const FleetSimulator sim(fc);
  ASSERT_EQ(sim.warmup_windows().size(), 4u);
  const auto r = sim.run(uniform_trace(120, 90.0));
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  EXPECT_EQ(r.warmup_recoveries, 1);
  // The run outlives the ramp, so the fleet finished at full speed: no
  // work or KV is left anywhere (checked by run invariants), and the
  // recovered replica did serve work after its outage.
  EXPECT_GT(r.replicas[0].steps, 0);
}

TEST(WarmupE2E, WarmupSlowsTheFleetMeasurably) {
  const auto trace = uniform_trace(150, 110.0);
  auto cold = base_cfg(2);
  cold.faults.push_back(FaultWindow{0, 0.4, 0.9});
  cold.warmup.enabled = true;
  cold.warmup.duration_s = 1.0;
  cold.warmup.initial_scale = 0.25;
  cold.retry.max_retries = 12;
  auto instant = cold;
  instant.warmup.enabled = false;
  const auto rc = FleetSimulator(cold).run(trace);
  const auto ri = FleetSimulator(instant).run(trace);
  // Same outages, but the cold fleet pays extra time somewhere: mean
  // end-to-end latency can only get worse with the ramp on.
  EXPECT_GE(rc.e2e_s.mean(), ri.e2e_s.mean());
  EXPECT_EQ(rc.warmup_recoveries, 1);
  EXPECT_EQ(ri.warmup_recoveries, 0);
}

}  // namespace
}  // namespace mib::fleet
