// Gray failures: asymmetric (per-direction) partitions with orphaned
// completions, flapping cut/heal trains, majority-quorum self-fencing,
// jittered client backoff, drain-fabric severing — and the golden-value
// regression pinning every default-knob partition run to the PR 4 outputs
// bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fleet/control_plane.h"
#include "fleet/fleet.h"
#include "fleet/topology.h"
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

void assert_conservation(const FleetReport& r) {
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  long long per_replica = 0;
  for (const auto& rr : r.replicas) per_replica += rr.completed;
  EXPECT_EQ(per_replica, r.completed);
  EXPECT_LE(r.slo.attained, r.submitted);
}

// --- config validation ---

TEST(GrayFailure, ValidationRejectsBadKnobs) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.partition.enabled = true;
  cc.partition.windows = {window(0.5, 1.0, {1}, {})};
  EXPECT_NO_THROW(cc.validate());

  // Flap duty must lie in (0, 1] when a period is set.
  cc.partition.windows[0].flap_period_s = 0.1;
  cc.partition.windows[0].flap_duty = 0.0;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.windows[0].flap_duty = 1.5;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.windows[0].flap_period_s = -0.1;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.windows[0].flap_period_s = 0.1;
  cc.partition.windows[0].flap_duty = 0.5;
  EXPECT_NO_THROW(cc.validate());
  cc.partition.windows[0] = window(0.5, 1.0, {1}, {});

  cc.partition.quorum_grace_s = -0.01;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.quorum_grace_s = 0.05;
  cc.partition.retry_multiplier = 0.5;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.retry_multiplier = 2.0;
  cc.partition.retry_jitter = 1.5;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.retry_jitter = 0.5;
  cc.partition.max_client_retries = 0;
  EXPECT_THROW(cc.validate(), Error);
  cc.partition.max_client_retries = 3;
  EXPECT_NO_THROW(cc.validate());
}

TEST(GrayFailure, QuorumPolicyNames) {
  EXPECT_STREQ(quorum_policy_name(QuorumPolicy::kServeStale), "serve-stale");
  EXPECT_STREQ(quorum_policy_name(QuorumPolicy::kFenceAtCut), "fence-at-cut");
  EXPECT_STREQ(quorum_policy_name(QuorumPolicy::kFenceAfterGrace),
               "fence-after-grace");
}

// --- plane-side geometry: asymmetric links ---

TEST(GrayFailure, AsymmetricReachabilityIsPerDirection) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.partition.enabled = true;
  PartitionWindow w = window(1.0, 2.0, {1}, {2});
  w.open_to_minority = true;  // majority -> minority stays open
  cc.partition.windows = {w};
  const ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 3);

  // Dispatch direction: the majority router can reach the minority
  // replica (the open direction) but the minority router still cannot
  // reach majority replicas.
  EXPECT_TRUE(plane.reachable(0, 2, 1.5));
  EXPECT_FALSE(plane.reachable(1, 0, 1.5));
  // Reply direction: a majority-dispatched copy on the minority replica
  // cannot answer (minority -> majority is cut)...
  EXPECT_FALSE(plane.reply_reachable(2, 0, 1.5));
  // ...while same-side streams and the clean-cut fallback always survive.
  EXPECT_TRUE(plane.reply_reachable(2, 1, 1.5));
  EXPECT_TRUE(plane.reply_reachable(0, 0, 1.5));
  EXPECT_TRUE(plane.reply_reachable(2, 0, 0.5));  // no window
  // Cancels ride majority -> minority, heartbeats minority -> majority.
  EXPECT_TRUE(plane.cancel_reachable(2, 1.5));
  EXPECT_FALSE(plane.heartbeat_crosses(2, 1.5));

  // The mirrored asymmetry: only minority -> majority open.
  cc.partition.windows[0].open_to_minority = false;
  cc.partition.windows[0].open_to_majority = true;
  const ControlPlane rev(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  EXPECT_FALSE(rev.reachable(0, 2, 1.5));
  EXPECT_TRUE(rev.reachable(1, 0, 1.5));
  EXPECT_TRUE(rev.reply_reachable(2, 0, 1.5));
  EXPECT_FALSE(rev.reply_reachable(0, 1, 1.5));
  EXPECT_FALSE(rev.cancel_reachable(2, 1.5));
  EXPECT_TRUE(rev.heartbeat_crosses(2, 1.5));

  // A clean cut (both flags off) keeps PR 4 semantics everywhere: replies
  // survive, cancels and heartbeats stop at the cut.
  cc.partition.windows[0].open_to_majority = false;
  const ControlPlane clean(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  EXPECT_TRUE(clean.reply_reachable(2, 0, 1.5));
  EXPECT_FALSE(clean.cancel_reachable(2, 1.5));
  EXPECT_FALSE(clean.heartbeat_crosses(2, 1.5));
}

TEST(GrayFailure, DrainReachabilityNeedsTheSeverKnob) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.partition.enabled = true;
  cc.partition.windows = {window(1.0, 2.0, {1}, {2})};
  const ControlPlane off(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  // Knob off: the drain fabric is assumed independent of the cut (PR 4).
  EXPECT_TRUE(off.drain_reachable(2, 1.5));

  cc.partition.sever_drain_fabric = true;
  const ControlPlane on(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  EXPECT_FALSE(on.drain_reachable(2, 1.5));  // minority source, full cut
  EXPECT_TRUE(on.drain_reachable(0, 1.5));   // majority source unaffected
  EXPECT_TRUE(on.drain_reachable(2, 0.5));   // outside the window

  // An open minority -> majority direction carries the KV out.
  cc.partition.windows[0].open_to_majority = true;
  const ControlPlane open(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  EXPECT_TRUE(open.drain_reachable(2, 1.5));
}

// --- plane-side geometry: flapping ---

TEST(GrayFailure, FlappingExpandsIntoDutyCycleEpisodes) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.partition.enabled = true;
  PartitionWindow w = window(1.0, 2.0, {1}, {2});
  w.flap_period_s = 0.4;
  w.flap_duty = 0.5;
  cc.partition.windows = {w};
  const ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 3);

  // [1.0, 2.0) at period 0.4, duty 0.5: cut during [1.0,1.2), [1.4,1.6),
  // [1.8,2.0) — three episodes.
  EXPECT_EQ(plane.partition_cuts(), 3);
  EXPECT_NE(plane.partition_at(1.1), nullptr);
  EXPECT_EQ(plane.partition_at(1.3), nullptr);  // healed half of period 1
  EXPECT_NE(plane.partition_at(1.5), nullptr);
  EXPECT_EQ(plane.partition_at(1.7), nullptr);
  EXPECT_NE(plane.partition_at(1.9), nullptr);
  EXPECT_EQ(plane.partition_at(2.1), nullptr);
  // Distinct episodes are distinct windows (the heal-edge detector keys
  // on pointer identity).
  EXPECT_NE(plane.partition_at(1.1), plane.partition_at(1.5));
  // Every cut and heal edge drives the event loop.
  const std::vector<double> edges = plane.partition_edges();
  const std::vector<double> expected = {1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
  ASSERT_EQ(edges.size(), expected.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    EXPECT_DOUBLE_EQ(edges[k], expected[k]);
  }

  // duty == 1 or period == 0 degenerates to the single solid window.
  cc.partition.windows[0].flap_duty = 1.0;
  const ControlPlane solid(cc, RoutePolicy::kLeastOutstanding, 7, 3);
  EXPECT_EQ(solid.partition_cuts(), 1);
  EXPECT_NE(solid.partition_at(1.3), nullptr);
}

// --- plane-side geometry: quorum fencing ---

TEST(GrayFailure, QuorumFencingFollowsRouterMajority) {
  ControlPlaneConfig cc;
  cc.routers = 3;
  cc.partition.enabled = true;
  cc.partition.quorum = QuorumPolicy::kFenceAtCut;

  // 1 of 3 routers cut off: it lost quorum and fences from the cut.
  cc.partition.windows = {window(1.0, 2.0, {2}, {})};
  const ControlPlane one(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_TRUE(one.router_fenced(2, 1.5));
  EXPECT_FALSE(one.router_fenced(0, 1.5));  // the majority never fences
  EXPECT_FALSE(one.router_fenced(2, 0.5));  // no cut, no fence

  // Router 0 cut off: the survivor a stranded request fails over to is
  // the lowest live router still admitting, so it skips the fenced router
  // 0 inside the cut and is router 0 again outside it.
  cc.partition.windows = {window(1.0, 2.0, {0}, {})};
  const ControlPlane low(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_TRUE(low.router_fenced(0, 1.5));
  EXPECT_EQ(low.survivor(1.5), 1);
  EXPECT_EQ(low.survivor(1.5), low.majority_survivor(1.5));
  EXPECT_EQ(low.survivor(0.5), 0);
  EXPECT_EQ(low.survivor(2.0), 0);

  // 2 of 3 named minority: the named side holds the strict majority, so
  // neither side fences.
  cc.partition.windows = {window(1.0, 2.0, {1, 2}, {})};
  const ControlPlane two(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_FALSE(two.router_fenced(1, 1.5));
  EXPECT_FALSE(two.router_fenced(2, 1.5));
  EXPECT_FALSE(two.router_fenced(0, 1.5));

  // 1 of 2: a tie. Neither side has a strict majority; the cut-off side
  // fences (it cannot prove it still has quorum).
  cc.routers = 2;
  cc.partition.windows = {window(1.0, 2.0, {1}, {})};
  const ControlPlane tie(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_TRUE(tie.router_fenced(1, 1.5));
  EXPECT_FALSE(tie.router_fenced(0, 1.5));

  // Grace defers the fence edge; serve-stale never fences.
  cc.partition.quorum = QuorumPolicy::kFenceAfterGrace;
  cc.partition.quorum_grace_s = 0.3;
  const ControlPlane grace(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_FALSE(grace.router_fenced(1, 1.2));
  EXPECT_TRUE(grace.router_fenced(1, 1.3));
  // The lease expiry is an interior loop event.
  const std::vector<double> edges = grace.partition_edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_DOUBLE_EQ(edges[1], 1.3);
  cc.partition.quorum = QuorumPolicy::kServeStale;
  const ControlPlane stale(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_FALSE(stale.router_fenced(1, 1.5));
}

// --- end to end: asymmetric cuts orphan completions ---

FleetConfig asymmetric_cfg() {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.max_client_retries = 4;
  PartitionWindow w = window(0.2, 1.2, {1}, {2});
  w.open_to_minority = true;  // dispatches land, replies are lost
  fc.control.partition.windows = {w};
  fc.retry.max_retries = 12;
  return fc;
}

TEST(GrayFailure, AsymmetricCutOrphansCompletions) {
  const auto r = FleetSimulator(asymmetric_cfg()).run(uniform_trace(120, 100.0));
  assert_conservation(r);
  // Majority-dispatched copies land on the minority replica (the open
  // direction) and finish there, but their completions cannot cross back:
  // orphaned work, paid for but never delivered.
  EXPECT_GT(r.orphaned_completions, 0);
  EXPECT_GT(r.lost_completion_s, 0.0);
  // The client's patience re-drives orphaned requests from scratch.
  EXPECT_GT(r.client_resends, 0);
  long long orphan_records = 0;
  for (const auto& rec : r.requests) {
    if (rec.orphaned) ++orphan_records;
  }
  EXPECT_GT(orphan_records, 0);
  EXPECT_LE(orphan_records, r.orphaned_completions);
  // Orphaned work is waste the fleet paid for; it must not be counted as
  // hedge or duplicate waste too (those have their own meters).
  EXPECT_GE(r.lost_completion_s, 0.0);
}

TEST(GrayFailure, AsymmetricOrphanAccountingIsDeterministic) {
  const auto a = FleetSimulator(asymmetric_cfg()).run(uniform_trace(120, 100.0));
  const auto b = FleetSimulator(asymmetric_cfg()).run(uniform_trace(120, 100.0));
  EXPECT_EQ(a.orphaned_completions, b.orphaned_completions);
  EXPECT_EQ(a.client_resends, b.client_resends);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.lost_completion_s, b.lost_completion_s);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

// --- end to end: flapping partitions ---

FleetConfig flapping_cfg(std::uint64_t seed = 9) {
  FleetConfig fc = base_cfg(3);
  fc.seed = seed;
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  PartitionWindow w = window(0.2, 1.2, {1}, {2});
  w.flap_period_s = 0.25;
  w.flap_duty = 0.6;
  fc.control.partition.windows = {w};
  fc.retry.max_retries = 12;
  return fc;
}

TEST(GrayFailure, FlappingPartitionHealsEveryEpisode) {
  const auto r = FleetSimulator(flapping_cfg()).run(uniform_trace(120, 100.0));
  assert_conservation(r);
  // Four cut episodes inside [0.2, 1.2) at period 0.25: each one that the
  // traffic outlives records its own heal edge.
  EXPECT_GE(r.partition_flaps, 2);
  EXPECT_GE(r.partition_heal_lag_s.count(), 2u);
  EXPECT_GT(r.double_dispatches, 0);
}

TEST(GrayFailure, FlappingHealStormIsDeterministicAcrossSeeds) {
  // The heal storm — duplicates issued and fenced at every flap edge —
  // must replay bit-for-bit per seed, for several seeds.
  for (std::uint64_t seed : {3ull, 9ull, 17ull}) {
    const auto a =
        FleetSimulator(flapping_cfg(seed)).run(uniform_trace(120, 100.0));
    const auto b =
        FleetSimulator(flapping_cfg(seed)).run(uniform_trace(120, 100.0));
    EXPECT_EQ(a.partition_flaps, b.partition_flaps) << "seed " << seed;
    EXPECT_EQ(a.double_dispatches, b.double_dispatches) << "seed " << seed;
    EXPECT_EQ(a.fenced_requests, b.fenced_requests) << "seed " << seed;
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.duplicate_decode_s, b.duplicate_decode_s)
        << "seed " << seed;
    assert_conservation(a);
  }
}

// --- end to end: quorum self-fencing ---

FleetConfig quorum_cfg(QuorumPolicy q) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.quorum = q;
  fc.control.partition.quorum_grace_s = 0.05;
  fc.control.partition.windows = {window(0.2, 1.2, {1}, {2})};
  fc.retry.max_retries = 12;
  return fc;
}

TEST(GrayFailure, FenceAtCutRehomesInsteadOfDoubleDispatching) {
  const auto r = FleetSimulator(quorum_cfg(QuorumPolicy::kFenceAtCut))
                     .run(uniform_trace(120, 100.0));
  assert_conservation(r);
  // Every minority-homed dispatch during the cut is refused by its fenced
  // home and re-homed to the majority: no patience timer ever arms, so no
  // split brain and no duplicate decode waste.
  EXPECT_GT(r.quorum_fenced, 0);
  EXPECT_EQ(r.double_dispatches, 0);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.0);
  long long rehomed = 0;
  for (const auto& rec : r.requests) {
    if (rec.quorum_rehomed) ++rehomed;
  }
  EXPECT_EQ(rehomed, r.quorum_fenced);
}

TEST(GrayFailure, FenceAfterGraceSplitsTheDifference) {
  const auto stale = FleetSimulator(quorum_cfg(QuorumPolicy::kServeStale))
                         .run(uniform_trace(120, 100.0));
  const auto grace = FleetSimulator(quorum_cfg(QuorumPolicy::kFenceAfterGrace))
                         .run(uniform_trace(120, 100.0));
  const auto cut = FleetSimulator(quorum_cfg(QuorumPolicy::kFenceAtCut))
                       .run(uniform_trace(120, 100.0));
  assert_conservation(stale);
  assert_conservation(grace);
  assert_conservation(cut);
  // Serve-stale never fences (PR 4 behavior); the lease fences late.
  EXPECT_EQ(stale.quorum_fenced, 0);
  EXPECT_GT(grace.quorum_fenced, 0);
  // The grace window still serves (and possibly double-dispatches) before
  // the lease expires, so it fences no more than fence-at-cut does.
  EXPECT_LE(grace.quorum_fenced, cut.quorum_fenced);
  // Fencing eliminates waste monotonically with how early it engages.
  EXPECT_LE(cut.duplicate_decode_s, grace.duplicate_decode_s);
  EXPECT_LE(grace.duplicate_decode_s, stale.duplicate_decode_s);
}

TEST(GrayFailure, MajoritySideNeverFencesEndToEnd) {
  // 2 of 3 routers named minority: the named side IS the strict majority,
  // so the quorum rule fences nobody and serve-stale behavior prevails.
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 3;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.quorum = QuorumPolicy::kFenceAtCut;
  fc.control.partition.windows = {window(0.2, 1.2, {1, 2}, {2})};
  fc.retry.max_retries = 12;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_conservation(r);
  EXPECT_EQ(r.quorum_fenced, 0);
}

// --- end to end: jittered client backoff ---

TEST(GrayFailure, ClientBackoffIsDeterministicAndBounded) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.retry_multiplier = 2.0;
  fc.control.partition.retry_jitter = 0.5;
  fc.control.partition.max_client_retries = 3;
  fc.control.partition.windows = {window(0.2, 1.2, {1}, {2})};
  fc.retry.max_retries = 12;
  const auto a = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  const auto b = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_conservation(a);
  EXPECT_GT(a.double_dispatches, 0);
  // The jittered schedule is a pure hash of (seed, id, attempt): replays
  // are bit-identical.
  EXPECT_EQ(a.double_dispatches, b.double_dispatches);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.duplicate_decode_s, b.duplicate_decode_s);
  // Multiple patience attempts may re-send, but never more than one
  // un-started duplicate is in flight per request, so the per-request
  // record count still bounds the dup total.
  long long dup_records = 0;
  for (const auto& rec : a.requests) {
    if (rec.double_dispatched) ++dup_records;
  }
  EXPECT_LE(dup_records, a.double_dispatches);
}

// --- end to end: severed drain fabric ---

TEST(GrayFailure, SeveredDrainAbortsMidStripeAndRecomputes) {
  // The drain starts just before the cut: its KV transfers are in flight
  // when the partition severs the fabric at t=0.2 and must abort.
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.02;
  fc.control.partition.sever_drain_fabric = true;
  fc.control.partition.windows = {window(0.2, 1.0, {1}, {2})};
  fc.retry.max_retries = 12;
  fc.maintenance.push_back(MaintenanceWindow{2, 0.19, 0.8});
  fc.migration.migrate_kv = true;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_conservation(r);
  EXPECT_GT(r.migration_aborts, 0);
  // Aborted transfers fall back to evacuate-and-recompute.
  EXPECT_GT(r.drain_evacuations, 0);
}

TEST(GrayFailure, SeveredFabricBlocksNewDrains) {
  // The drain begins inside the cut: with the fabric severed the source
  // cannot ship at all, so every would-be migration recomputes instead.
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.02;
  fc.control.partition.sever_drain_fabric = true;
  fc.control.partition.windows = {window(0.2, 1.0, {1}, {2})};
  fc.retry.max_retries = 12;
  fc.maintenance.push_back(MaintenanceWindow{2, 0.4, 0.8});
  fc.migration.migrate_kv = true;
  const auto severed = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_conservation(severed);
  EXPECT_GT(severed.migration_aborts, 0);

  // Same scenario with the knob off: the fabric is independent of the cut
  // (PR 4) and at least some drains ship KV.
  fc.control.partition.sever_drain_fabric = false;
  const auto intact = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  assert_conservation(intact);
  EXPECT_EQ(intact.migration_aborts, 0);
  EXPECT_GT(intact.migrations, severed.migrations);
}

// --- satellite: hedge utilization gating ---

TEST(GrayFailure, HedgeGateSelfDisablesNearSaturation) {
  // Small batches + high arrival rate: the fleet is saturated for most of
  // the run, so a 50% utilization gate suppresses most hedges.
  FleetConfig fc = base_cfg(2);
  fc.replica.max_batch = 4;
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.05;
  const auto open = FleetSimulator(fc).run(uniform_trace(120, 120.0));
  EXPECT_EQ(open.hedges_suppressed, 0);  // gate off by default
  EXPECT_GT(open.hedges_issued, 0);

  fc.hedge.max_utilization = 0.5;
  const auto gated = FleetSimulator(fc).run(uniform_trace(120, 120.0));
  assert_conservation(gated);
  EXPECT_GT(gated.hedges_suppressed, 0);
  EXPECT_LT(gated.hedges_issued, open.hedges_issued);

  fc.hedge.max_utilization = 0.0;
  EXPECT_THROW(fc.validate(), Error);
  fc.hedge.max_utilization = 1.5;
  EXPECT_THROW(fc.validate(), Error);
}

// --- satellite: down-time-dependent warm-up ---

TEST(GrayFailure, WarmupScalesWithDowntime) {
  WarmupConfig cfg;
  cfg.enabled = true;
  cfg.duration_s = 0.4;
  cfg.initial_scale = 0.5;
  cfg.ramp_steps = 2;
  cfg.downtime_ref_s = 1.0;
  // A 0.25 s blip pays a quarter of the ramp; a 2 s outage pays it all.
  const std::vector<FaultWindow> faults = {FaultWindow{0, 1.0, 1.25},
                                           FaultWindow{1, 1.0, 3.0}};
  const auto plan = plan_warmup(cfg, faults, {});
  EXPECT_EQ(plan.recoveries, 2);
  double blip_len = 0.0, full_len = 0.0;
  double blip_floor = 1.0, full_floor = 1.0;
  for (const auto& w : plan.windows) {
    const double len = w.end_s - w.start_s;
    if (w.replica == 0) {
      blip_len += len;
      blip_floor = std::min(blip_floor, w.scale.flops);
    } else {
      full_len += len;
      full_floor = std::min(full_floor, w.scale.flops);
    }
  }
  // Quarter the downtime reference: quarter the ramp, quarter the depth.
  EXPECT_NEAR(blip_len, 0.1, 1e-12);
  EXPECT_NEAR(full_len, 0.4, 1e-12);
  EXPECT_GT(blip_floor, full_floor);
  EXPECT_NEAR(full_floor, 0.5, 1e-12);
  EXPECT_NEAR(blip_floor, 1.0 - 0.5 * 0.25, 0.13);  // shallow staircase

  // Knob off: both recoveries pay the identical full ramp (PR 3 shape).
  cfg.downtime_ref_s = 0.0;
  const auto flat = plan_warmup(cfg, faults, {});
  EXPECT_EQ(flat.recoveries, 2);
  double len0 = 0.0, len1 = 0.0;
  for (const auto& w : flat.windows) {
    (w.replica == 0 ? len0 : len1) += w.end_s - w.start_s;
  }
  EXPECT_NEAR(len0, 0.4, 1e-12);
  EXPECT_NEAR(len1, 0.4, 1e-12);
}

// --- satellite: topology-aware autoscaler placement ---

TEST(GrayFailure, AutoscalerSpreadsAcrossFailureDomains) {
  // Pool of 4: replica 0 active in rack0; standbys 1 (rack0), 2 and 3
  // (rack1). Under queue pressure the first activation should land in
  // rack1 when spreading is on (fewest active replicas), but on the
  // first-fit slot 1 when it is off.
  auto make = [](bool aware) {
    FleetConfig fc;
    fc.engine.model = models::olmoe_1b_7b();
    fc.engine.cluster = hw::Cluster::h100_node(1);
    fc.n_replicas = 1;
    fc.seed = 9;
    fc.replica.max_batch = 4;
    fc.autoscaler.enabled = true;
    fc.autoscaler.max_replicas = 4;
    fc.autoscaler.interval_s = 0.05;
    fc.autoscaler.topology_aware = aware;
    fc.topology.domains = {DomainSpec{"rack0", ""}, DomainSpec{"rack1", ""},
                           DomainSpec{"n0", "rack0"}, DomainSpec{"n1", "rack0"},
                           DomainSpec{"n2", "rack1"}, DomainSpec{"n3", "rack1"}};
    fc.topology.replica_domain = {"n0", "n1", "n2", "n3"};
    return fc;
  };
  const auto spread = FleetSimulator(make(true)).run(uniform_trace(120, 120.0));
  const auto packed = FleetSimulator(make(false)).run(uniform_trace(120, 120.0));
  assert_conservation(spread);
  assert_conservation(packed);
  int first_spread = -1, first_packed = -1;
  for (const auto& e : spread.scale_events) {
    if (e.action == "add") {
      first_spread = e.replica;
      break;
    }
  }
  for (const auto& e : packed.scale_events) {
    if (e.action == "add") {
      first_packed = e.replica;
      break;
    }
  }
  ASSERT_GE(first_spread, 0);
  ASSERT_GE(first_packed, 0);
  EXPECT_GE(first_spread, 2);  // rack1, away from the active replica
  EXPECT_EQ(first_packed, 1);  // first-fit packs the same rack
}

// --- golden regression: default knobs are bitwise PR 4 ---
//
// The values below were captured from the PR 4 tree (commit d8cedab)
// before any gray-failure code existed. These configs exercise every
// partition code path of PR 4 — fencing, racing, router-only cuts with
// hedges and autoscaling, drains across a cut — with every gray-failure
// knob at its default. Any drift here means the new machinery leaks into
// the clean-cut model.

TEST(GrayFailureGolden, FenceMinorityBitwiseIdenticalToPR4) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.heal = HealPolicy::kFenceMinority;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.windows = {window(0.2, 1.2, {1}, {2})};
  fc.retry.max_retries = 12;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  EXPECT_EQ(r.completed, 120);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.lost, 0);
  EXPECT_EQ(r.expired, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.double_dispatches, 51);
  EXPECT_EQ(r.fenced_requests, 27);
  EXPECT_EQ(r.stale_dispatches, 29);
  EXPECT_EQ(r.router_stranded, 0);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.491917985569611);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.83456074939267);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.57710849555566124);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 0.035069067326651146);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 80.433375802614421);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  EXPECT_DOUBLE_EQ(r.partition_heal_lag_s.max(), 0.0);
  // The gray-failure meters stay untouched at defaults.
  EXPECT_EQ(r.orphaned_completions, 0);
  EXPECT_DOUBLE_EQ(r.lost_completion_s, 0.0);
  EXPECT_EQ(r.client_resends, 0);
  EXPECT_EQ(r.quorum_fenced, 0);
  EXPECT_EQ(r.migration_aborts, 0);
  EXPECT_EQ(r.hedges_suppressed, 0);
}

TEST(GrayFailureGolden, FirstCommitWinsBitwiseIdenticalToPR4) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.heal = HealPolicy::kFirstCommitWins;
  fc.control.partition.client_retry_s = 0.01;
  fc.control.partition.windows = {window(0.2, 1.2, {1}, {2})};
  fc.retry.max_retries = 12;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  EXPECT_EQ(r.completed, 120);
  EXPECT_EQ(r.double_dispatches, 51);
  EXPECT_EQ(r.fenced_requests, 0);
  EXPECT_EQ(r.stale_dispatches, 29);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.4840643243071427);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 1.1014346257438865);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.57455881065679315);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 0.02852621159531022);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 80.859028840292197);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  EXPECT_DOUBLE_EQ(r.partition_heal_lag_s.max(), 0.28107115787730552);
}

TEST(GrayFailureGolden, RouterOnlyPartitionBitwiseIdenticalToPR4) {
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.05;
  fc.control.partition.windows = {window(0.1, 0.9, {1}, {})};
  fc.retry.max_retries = 12;
  fc.replica.max_batch = 4;
  fc.health.enabled = true;
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.15;
  fc.autoscaler.enabled = true;
  fc.autoscaler.max_replicas = 4;
  fc.autoscaler.interval_s = 0.1;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  EXPECT_EQ(r.completed, 120);
  EXPECT_EQ(r.double_dispatches, 43);
  EXPECT_EQ(r.fenced_requests, 0);
  EXPECT_EQ(r.stale_dispatches, 0);
  EXPECT_EQ(r.router_stranded, 0);
  EXPECT_EQ(r.hedges_issued, 105);
  EXPECT_EQ(r.autoscaler_conflicts, 2);
  EXPECT_DOUBLE_EQ(r.makespan_s, 2.6762710838656916);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.88200159237376841);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.9574410143316483);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 1.3721407149984692);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 44.838507101705169);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  EXPECT_DOUBLE_EQ(r.partition_heal_lag_s.max(), 1.3274690923168273);
  EXPECT_EQ(r.hedges_suppressed, 0);
  EXPECT_EQ(r.client_resends, 0);
}

TEST(GrayFailureGolden, DrainAcrossCutBitwiseIdenticalToPR4) {
  FleetConfig fc = base_cfg(3);
  fc.control.routers = 2;
  fc.control.partition.enabled = true;
  fc.control.partition.client_retry_s = 0.02;
  fc.control.partition.windows = {window(0.2, 1.0, {1}, {2})};
  fc.retry.max_retries = 12;
  fc.maintenance.push_back(MaintenanceWindow{2, 0.4, 0.8});
  fc.migration.migrate_kv = true;
  fc.migration.overlap_decode = true;
  fc.migration.stripe_links = 2;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  EXPECT_EQ(r.completed, 120);
  EXPECT_EQ(r.double_dispatches, 33);
  EXPECT_EQ(r.fenced_requests, 32);
  EXPECT_EQ(r.stale_dispatches, 4);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.4640182252747729);
  EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.24026833477530651);
  EXPECT_DOUBLE_EQ(r.e2e_s.mean(), 0.57472379233340432);
  EXPECT_DOUBLE_EQ(r.ttft_s.p99(), 0.30731229929189674);
  EXPECT_DOUBLE_EQ(r.slo.goodput_qps, 81.966192721048884);
  EXPECT_DOUBLE_EQ(r.slo.attainment, 1.0);
  ASSERT_EQ(r.partition_heal_lag_s.count(), 1u);
  EXPECT_DOUBLE_EQ(r.partition_heal_lag_s.max(), 0.0);
  EXPECT_EQ(r.migration_aborts, 0);
}

TEST(GrayFailure, MetersStayZeroWithoutGrayKnobs) {
  FleetConfig fc = base_cfg(2);
  fc.control.routers = 2;
  const auto r = FleetSimulator(fc).run(uniform_trace(60, 80.0));
  EXPECT_EQ(r.orphaned_completions, 0);
  EXPECT_DOUBLE_EQ(r.lost_completion_s, 0.0);
  EXPECT_EQ(r.client_resends, 0);
  EXPECT_EQ(r.quorum_fenced, 0);
  EXPECT_EQ(r.partition_flaps, 0);
  EXPECT_EQ(r.migration_aborts, 0);
  EXPECT_EQ(r.hedges_suppressed, 0);
  for (const auto& rec : r.requests) {
    EXPECT_FALSE(rec.orphaned);
    EXPECT_FALSE(rec.quorum_rehomed);
  }
}

}  // namespace
}  // namespace mib::fleet
