// Split-brain network partitions: validation, plane-side geometry, the
// double-dispatch machinery, both heal policies, and the golden-value
// regression pinning partition-free runs to the PR 3 outputs bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fleet/control_plane.h"
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

PartitionWindow window(double start, double end, std::vector<int> routers,
                       std::vector<int> replicas) {
  PartitionWindow w;
  w.start_s = start;
  w.end_s = end;
  w.minority_routers = std::move(routers);
  w.minority_replicas = std::move(replicas);
  return w;
}

// --- config validation ---

TEST(Partition, ValidationRejectsBadConfigs) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.partition.enabled = true;

  // Needs at least one minority router.
  cc.partition.windows = {window(0.5, 1.0, {}, {0})};
  EXPECT_THROW(cc.validate(), Error);
  // Zero-duration window.
  cc.partition.windows = {window(0.5, 0.5, {1}, {})};
  EXPECT_THROW(cc.validate(), Error);
  // Router named twice.
  cc.partition.windows = {window(0.5, 1.0, {1, 1}, {})};
  EXPECT_THROW(cc.validate(), Error);
  // Replica named twice.
  cc.partition.windows = {window(0.5, 1.0, {1}, {0, 0})};
  EXPECT_THROW(cc.validate(), Error);
  // Minority must leave a majority: every router cut off is not a
  // partition, it is an outage.
  cc.partition.windows = {window(0.5, 1.0, {0, 1}, {})};
  EXPECT_THROW(cc.validate(), Error);
  // Router outside the plane.
  cc.partition.windows = {window(0.5, 1.0, {2}, {})};
  EXPECT_THROW(cc.validate(), Error);
  // Overlapping windows.
  cc.partition.windows = {window(0.5, 1.0, {1}, {}),
                          window(0.8, 1.2, {1}, {})};
  EXPECT_THROW(cc.validate(), Error);
  // Non-positive client patience.
  cc.partition.windows = {window(0.5, 1.0, {1}, {})};
  cc.partition.client_retry_s = 0.0;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.client_retry_s = 0.1;
  EXPECT_NO_THROW(cc.validate());

  // Windows configured while disabled is a config smell, not a silent
  // no-op.
  cc.partition.enabled = false;
  EXPECT_THROW(cc.validate(), Error);

  // The fleet additionally range-checks minority replicas against the
  // pool.
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.windows = {window(0.5, 1.0, {1}, {7})};
  EXPECT_THROW(fc.validate(), Error);
  fc.control.partition.windows = {window(0.5, 1.0, {1}, {1})};
  EXPECT_NO_THROW(fc.validate());
}

TEST(Partition, HealPolicyNames) {
  EXPECT_STREQ(heal_policy_name(HealPolicy::kFenceMinority),
               "fence-the-minority");
  EXPECT_STREQ(heal_policy_name(HealPolicy::kFirstCommitWins),
               "first-commit-wins");
}

// --- plane-side geometry ---

TEST(Partition, SideAssignmentAndReachability) {
  ControlPlaneConfig cc;
  cc.routers = 3;
  cc.partition.enabled = true;
  cc.partition.windows = {window(1.0, 2.0, {2}, {3})};
  ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 4);

  EXPECT_TRUE(plane.partition_enabled());
  plane.advance(2.0);
  EXPECT_EQ(plane.cut(), nullptr);  // end is exclusive

  // Outside the window everything reaches everything, and the minority's
  // view is not frozen.
  plane.advance(0.5);
  EXPECT_EQ(plane.cut(), nullptr);
  EXPECT_TRUE(plane.reachable(2, 3));
  EXPECT_FALSE(plane.router_minority(2));
  // Inside: same side only; the minority's view freezes for the window.
  plane.advance(1.5);
  ASSERT_NE(plane.cut(), nullptr);
  EXPECT_TRUE(plane.router_minority(2));
  EXPECT_FALSE(plane.router_minority(0));
  EXPECT_TRUE(plane.replica_minority(3));
  EXPECT_TRUE(plane.reachable(2, 3));    // minority <-> minority
  EXPECT_TRUE(plane.reachable(0, 1));    // majority <-> majority
  EXPECT_FALSE(plane.reachable(0, 3));   // across the cut
  EXPECT_FALSE(plane.reachable(2, 0));   // across the cut

  // Majority survivor skips the minority even though it is alive.
  EXPECT_EQ(plane.survivor(), 0);
  EXPECT_EQ(plane.majority_survivor(), 0);
  // Transition edges drive the event loop.
  EXPECT_EQ(plane.edges(), (std::vector<double>{1.0, 2.0}));
}

TEST(Partition, MajoritySurvivorRespectsRouterFaults) {
  ControlPlaneConfig cc;
  cc.routers = 3;
  cc.router_faults.push_back(RouterFaultWindow{0, 1.0, 2.0});
  cc.partition.enabled = true;
  cc.partition.windows = {window(0.5, 3.0, {1}, {})};
  ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  // Router 0 dead, router 1 partitioned away: router 2 is the majority.
  plane.advance(1.5);
  EXPECT_EQ(plane.majority_survivor(), 2);
  plane.advance(2.5);
  EXPECT_EQ(plane.majority_survivor(), 0);  // router 0 back
}

// The fleet asks every partition query without first checking whether a
// partition is configured, so each must give the no-cut answer on a plane
// without windows: a default config, and one enabled with no windows.
TEST(Partition, DisabledPlaneKeepsPathsCold) {
  ControlPlaneConfig off;
  off.routers = 2;
  ControlPlaneConfig empty = off;
  empty.partition.enabled = true;
  for (ControlPlaneConfig cc : {off, empty}) {
    SCOPED_TRACE(cc.partition.enabled ? "enabled, no windows" : "default");
    cc.partition.quorum = QuorumPolicy::kFenceAtCut;
    cc.partition.sever_drain_fabric = true;
    ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
    EXPECT_FALSE(plane.partition_enabled());
    EXPECT_TRUE(plane.edges().empty());
    for (double t : {0.0, 1.0}) {
      plane.advance(t);
      EXPECT_EQ(plane.cut(), nullptr);
      EXPECT_EQ(plane.survivor(), 0);
      EXPECT_EQ(plane.survivor(), plane.majority_survivor());
      for (int r = 0; r < 2; ++r) {
        EXPECT_FALSE(plane.router_minority(r));
        EXPECT_FALSE(plane.router_fenced(r));
        for (int i = 0; i < 2; ++i) {
          EXPECT_TRUE(plane.reachable(r, i));
          EXPECT_TRUE(plane.reply_reachable(i, r));
        }
      }
      for (int i = 0; i < 2; ++i) {
        EXPECT_FALSE(plane.replica_minority(i));
        EXPECT_TRUE(plane.cancel_reachable(i));
        EXPECT_TRUE(plane.heartbeat_crosses(i));
        EXPECT_TRUE(plane.drain_reachable(i));
      }
    }
  }
}

// --- split-brain end to end ---

FleetConfig split_brain_cfg(HealPolicy heal) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.heal = heal;
  // Patience short enough that a queued minority-homed request has not
  // produced a first token before the client gives up and retries.
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.windows = {window(0.2, 1.2, {1}, {2})};
  fc.retry.max_retries = 12;
  return fc;
}

void assert_split_brain_invariants(const FleetReport& r) {
  // Conservation: every request lands in exactly one terminal bucket, and
  // completions are counted once no matter how many copies raced.
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  long long per_replica = 0;
  for (const auto& rr : r.replicas) per_replica += rr.completed;
  EXPECT_EQ(per_replica, r.completed);
  long long dup_records = 0;
  for (const auto& rec : r.requests) {
    if (rec.double_dispatched) ++dup_records;
  }
  EXPECT_EQ(dup_records, r.double_dispatches);
  EXPECT_LE(r.hedges_cancelled, r.hedges_issued);
  EXPECT_GE(r.duplicate_decode_s, 0.0);
  // Goodput cannot credit more requests than were submitted.
  EXPECT_LE(r.slo.attained, r.submitted);
}

TEST(Partition, FenceMinorityProducesAndDrainsDuplicates) {
  const FleetConfig fc = split_brain_cfg(HealPolicy::kFenceMinority);
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_split_brain_invariants(r);
  EXPECT_GT(r.double_dispatches, 0);
  EXPECT_GT(r.duplicate_decode_s, 0.0);
  // Fencing cancels the minority's still-racing copies at the heal edge.
  EXPECT_GT(r.fenced_requests, 0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  // The fence drains the split brain at the heal edge itself.
  EXPECT_DOUBLE_EQ(r.partition_heal_lag_s.max(), 0.0);
  for (const auto& rec : r.requests) {
    if (rec.fenced) {
      EXPECT_TRUE(rec.double_dispatched || rec.hedged);
    }
  }
}

TEST(Partition, FirstCommitWinsRacesDuplicatesToCompletion) {
  const FleetConfig fc = split_brain_cfg(HealPolicy::kFirstCommitWins);
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_split_brain_invariants(r);
  EXPECT_GT(r.double_dispatches, 0);
  EXPECT_GT(r.duplicate_decode_s, 0.0);
  // Nothing is fenced: the losing copies are cancelled as their races
  // resolve, so the heal lag is positive.
  EXPECT_EQ(r.fenced_requests, 0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  EXPECT_GT(r.partition_heal_lag_s.max(), 0.0);
}

TEST(Partition, DuplicateDecodeIsWasteFenceBeatsRacing) {
  // First-commit-wins lets the losing copies keep decoding after the heal;
  // fencing frees that capacity at the edge. The waste metric orders the
  // two policies accordingly on the same trace.
  const auto fence = FleetSimulator(split_brain_cfg(HealPolicy::kFenceMinority))
                         .run(uniform_trace(120, 100.0));
  const auto race =
      FleetSimulator(split_brain_cfg(HealPolicy::kFirstCommitWins))
          .run(uniform_trace(120, 100.0));
  EXPECT_LE(fence.duplicate_decode_s, race.duplicate_decode_s);
}

TEST(Partition, RouterOnlyPartitionParksThenDoubleDispatches) {
  // No minority replicas: the cut-off router can dispatch nowhere, its
  // homed requests park until the heal while the majority serves their
  // duplicates.
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.05;
  fc.control.partition.windows = {window(0.1, 0.9, {1}, {})};
  const auto r = FleetSimulator(fc).run(uniform_trace(80, 100.0));
  assert_split_brain_invariants(r);
  EXPECT_GT(r.double_dispatches, 0);
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
}

TEST(Partition, ConflictingAutoscalerSignals) {
  // Router-only partition: the minority side sees no replicas and no
  // queue, so its autoscaler holds while the congested majority (small
  // batches force real queueing) wants to grow.
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.windows = {window(0.1, 0.9, {1}, {})};
  fc.retry.max_retries = 12;
  fc.replica.max_batch = 4;
  fc.autoscaler.enabled = true;
  fc.autoscaler.max_replicas = 4;
  fc.autoscaler.interval_s = 0.1;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_split_brain_invariants(r);
  EXPECT_GT(r.autoscaler_conflicts, 0);
}

// A stray is a copy of an already-resolved request left behind a cut: the
// cancel cannot reach the minority replica, so the copy stays there until
// the heal unless a deadline, a drain or an overlap cutover meets it first.
// Small batches and a burst at 800 qps keep hedges and client duplicates
// queued on the minority replica long after their twins finished.
FleetConfig stray_cfg(std::uint64_t seed, HealPolicy heal) {
  FleetConfig fc = base_cfg(3);
  fc.seed = seed;
  fc.replica.max_batch = 4;
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.heal = heal;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.windows = {window(0.05, 1.5, {1}, {2})};
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.02;
  return fc;
}

TEST(Partition, StrayCopiesAreCancelledWhereTheyMeetADeadlineDrainOrCutover) {
  for (HealPolicy heal :
       {HealPolicy::kFenceMinority, HealPolicy::kFirstCommitWins}) {
    SCOPED_TRACE(heal_policy_name(heal));
    FleetConfig expiry = stray_cfg(2, heal);
    expiry.admission.deadline_s = 0.8;
    FleetConfig drain = stray_cfg(2, heal);
    drain.maintenance = {{2, 0.6, 0.8}};
    FleetConfig cutover = stray_cfg(1, heal);
    cutover.migration.overlap_decode = true;
    cutover.migration.per_sequence_overhead_s = 0.05;
    cutover.maintenance = {{2, 1.09, 1.39}};
    const std::pair<const FleetConfig*, std::vector<FleetRequest>> runs[] = {
        {&expiry, uniform_trace(40, 800.0, 256, 64, 14)},
        {&drain, uniform_trace(40, 800.0, 256, 64, 14)},
        {&cutover, uniform_trace(60, 800.0, 256, 64, 7)},
    };
    for (const auto& [fc, trace] : runs) {
      FleetReport r;
      ASSERT_NO_THROW(r = FleetSimulator(*fc).run(trace));
      assert_split_brain_invariants(r);
      EXPECT_GT(r.hedges_cancelled, 0);
    }
  }
}

TEST(Partition, MetricsStayZeroWithoutPartitions) {
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  const auto r = FleetSimulator(fc).run(uniform_trace(60, 80.0));
  EXPECT_EQ(r.double_dispatches, 0);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.0);
  EXPECT_EQ(r.fenced_requests, 0);
  EXPECT_EQ(r.autoscaler_conflicts, 0);
  EXPECT_TRUE(r.partition_heal_lag_s.empty());
  for (const auto& rec : r.requests) {
    EXPECT_FALSE(rec.double_dispatched);
    EXPECT_FALSE(rec.fenced);
  }
}

// --- golden regression: partition-free runs are bitwise PR 3 ---
//
// The values below were captured from the PR 3 tree (commit d9e8754)
// before any partition code existed. Any drift here means the
// partition-disabled fast path is not actually cold.

TEST(PartitionGolden, SingleRouterFleetBitwiseIdentical) {
  FleetConfig fc = base_cfg(3);
  fc.faults.push_back(FaultWindow{1, 0.6, 1.4});
  fc.hedge.enabled = true;
  fc.retry.max_retries = 12;
  const auto r = FleetSimulator(fc).run(uniform_trace(150, 110.0));
  EXPECT_EQ(r.completed, 150);
  EXPECT_EQ(r.retries, 24);
  EXPECT_EQ(r.lost, 0);
  EXPECT_EQ(r.expired, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.hedges_issued, 50);
  EXPECT_EQ(r.circuit_opens, 1);
  EXPECT_EQ(r.stale_dispatches, 0);
  EXPECT_EQ(r.router_stranded, 0);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.87608544026642);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.72425004879846799);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 0.6198482949505707);
  EXPECT_DOUBLE_EQ(r.view_disagreement_s, 0.0);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 79.953714676608087);
  EXPECT_EQ(r.double_dispatches, 0);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.0);
}

TEST(PartitionGolden, StaleViewFleetBitwiseIdentical) {
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.view_sync_interval_s = 0.2;
  fc.control.router_faults.push_back(RouterFaultWindow{1, 0.5, 1.0});
  fc.faults.push_back(FaultWindow{0, 1.0, 1.8});
  fc.retry.max_retries = 16;
  const auto r = FleetSimulator(fc).run(uniform_trace(140, 90.0));
  EXPECT_EQ(r.completed, 140);
  EXPECT_EQ(r.retries, 37);
  EXPECT_EQ(r.lost, 0);
  EXPECT_EQ(r.expired, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.hedges_issued, 0);
  EXPECT_EQ(r.circuit_opens, 1);
  EXPECT_EQ(r.stale_dispatches, 113);
  EXPECT_EQ(r.router_stranded, 25);
  EXPECT_DOUBLE_EQ(r.makespan_s, 2.2875738886282626);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.85122886711422041);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 0.91011126824064426);
  EXPECT_DOUBLE_EQ(r.view_disagreement_s, 0.19999999999999996);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 61.200208961971768);
  EXPECT_EQ(r.double_dispatches, 0);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.0);
}

}  // namespace
}  // namespace mib::fleet
