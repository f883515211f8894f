// Replicated front-end routers: fail-over, stale breaker views, and the
// routers=1 collapse back to the single-router fleet.
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

// --- config validation ---

TEST(ControlPlane, ValidationRejectsBadConfigs) {
  ControlPlaneConfig bad;
  bad.routers = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControlPlaneConfig{};
  bad.view_sync_interval_s = -0.1;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControlPlaneConfig{};
  bad.failover_detection_s = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  // Fault on a router outside the plane.
  bad = ControlPlaneConfig{};
  bad.router_faults.push_back(RouterFaultWindow{1, 0.5, 1.0});
  EXPECT_THROW(bad.validate(), Error);
  // Overlapping windows for one router.
  bad = ControlPlaneConfig{};
  bad.routers = 2;
  bad.router_faults.push_back(RouterFaultWindow{1, 0.5, 1.0});
  bad.router_faults.push_back(RouterFaultWindow{1, 0.8, 1.2});
  EXPECT_THROW(bad.validate(), Error);
  // Disjoint windows are fine.
  bad.router_faults[1] = RouterFaultWindow{1, 1.0, 1.2};
  EXPECT_NO_THROW(bad.validate());
}

// --- plane unit behaviour ---

TEST(ControlPlane, HomeAssignmentAndSurvivor) {
  ControlPlaneConfig cc;
  cc.routers = 3;
  cc.router_faults.push_back(RouterFaultWindow{0, 1.0, 2.0});
  cc.router_faults.push_back(RouterFaultWindow{1, 1.5, 2.5});
  const ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_EQ(plane.assigned_router(0), 0);
  EXPECT_EQ(plane.assigned_router(4), 1);
  EXPECT_EQ(plane.assigned_router(11), 2);
  EXPECT_EQ(plane.survivor(0.5), 0);
  EXPECT_EQ(plane.survivor(1.2), 1);   // router 0 down
  EXPECT_EQ(plane.survivor(1.7), 2);   // routers 0 and 1 down
  EXPECT_EQ(plane.survivor(2.1), 0);   // router 0 back
}

TEST(ControlPlane, WholePlaneDarkHasNoSurvivor) {
  ControlPlaneConfig cc;
  cc.router_faults.push_back(RouterFaultWindow{0, 1.0, 2.0});
  const ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_EQ(plane.survivor(1.5), -1);
  using Edges = std::vector<std::pair<double, int>>;
  EXPECT_EQ(window_edges(plane.config().router_faults),
            (Edges{{1.0, 0}, {2.0, 0}}));
}

TEST(ControlPlane, StaggeredSyncsAgeViewsIndependently) {
  ControlPlaneConfig cc;
  cc.routers = 2;
  cc.view_sync_interval_s = 0.4;
  ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  ASSERT_TRUE(plane.stale_views());
  // Boot views say everything is routable.
  EXPECT_TRUE(plane.view_ok(0, 0));
  EXPECT_TRUE(plane.view_ok(1, 0));
  // First deadlines are staggered: router 0 at 0.2, router 1 at 0.4.
  EXPECT_DOUBLE_EQ(plane.sync_deadline(0), 0.2);
  EXPECT_DOUBLE_EQ(plane.sync_deadline(1), 0.4);
  // Replica 0 goes unroutable; only router 0's sync has fired by t=0.25,
  // and only router 0 re-arms.
  std::vector<std::pair<int, double>> rearmed;
  plane.sync(0.25, [](int i) { return i != 0; },
             [&](int r, double t) { rearmed.emplace_back(r, t); });
  EXPECT_FALSE(plane.view_ok(0, 0));
  EXPECT_TRUE(plane.view_ok(1, 0));  // stale — still believes replica 0
  ASSERT_EQ(rearmed.size(), 1u);
  EXPECT_EQ(rearmed[0].first, 0);
  EXPECT_DOUBLE_EQ(rearmed[0].second, 0.6);
  EXPECT_DOUBLE_EQ(plane.sync_deadline(0), 0.6);
  EXPECT_DOUBLE_EQ(plane.sync_deadline(1), 0.4);
  // The disagreement clock charges the window where views differ.
  plane.accumulate_disagreement(0.25, 0.4);
  EXPECT_DOUBLE_EQ(plane.disagreement_s(), 0.15);
  // Router 1 catches up at its own deadline; disagreement stops accruing.
  plane.sync(0.4, [](int i) { return i != 0; });
  EXPECT_FALSE(plane.view_ok(1, 0));
  plane.accumulate_disagreement(0.4, 1.0);
  EXPECT_DOUBLE_EQ(plane.disagreement_s(), 0.15);
}

TEST(ControlPlane, LiveViewSyncsEveryCall) {
  ControlPlane plane(ControlPlaneConfig{}, RoutePolicy::kLeastOutstanding, 7,
                     2);
  EXPECT_FALSE(plane.stale_views());
  EXPECT_EQ(plane.sync_deadline(0), std::numeric_limits<double>::infinity());
  plane.sync(0.1, [](int i) { return i != 1; });
  EXPECT_TRUE(plane.view_ok(0, 0));
  EXPECT_FALSE(plane.view_ok(0, 1));
  // Disagreement is undefined for a single live view.
  plane.accumulate_disagreement(0.0, 1.0);
  EXPECT_DOUBLE_EQ(plane.disagreement_s(), 0.0);
}

// --- end-to-end: router fail-over ---

TEST(RouterFailover, DeadHomeRouterStrandsThenFailsOver) {
  auto fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.failover_detection_s = 0.05;
  fc.control.router_faults.push_back(RouterFaultWindow{0, 0.3, 1.5});
  fc.retry.max_retries = 12;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 100.0));
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  EXPECT_GT(r.router_stranded, 0);
  // Every stranded request is flagged, and fail-over costs it at least the
  // detection lag before first token.
  long long flagged = 0;
  for (const auto& rec : r.requests) {
    if (!rec.router_failover) continue;
    ++flagged;
    if (rec.status == RequestStatus::kCompleted) {
      EXPECT_GE(rec.first_token_s - rec.arrival_s,
                fc.control.failover_detection_s);
    }
  }
  EXPECT_GE(flagged, 1);
  EXPECT_LE(flagged, r.router_stranded);  // re-strands count once per event
  // No stale views configured: disagreement metrics stay zero.
  EXPECT_EQ(r.stale_dispatches, 0);
  EXPECT_DOUBLE_EQ(r.view_disagreement_s, 0.0);
}

TEST(RouterFailover, WholePlaneOutageParksWorkUntilRevival) {
  auto fc = base_cfg(2);
  fc.control.router_faults.push_back(RouterFaultWindow{0, 0.2, 0.8});
  fc.retry.max_retries = 12;
  // Arrivals land squarely inside the dark window.
  const auto r = FleetSimulator(fc).run(uniform_trace(40, 120.0));
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  EXPECT_GT(r.router_stranded, 0);
  EXPECT_GT(r.completed, 0);  // work resumes once the plane lights up
}

// --- end-to-end: stale breaker views ---

TEST(StaleViews, SlowSyncCausesStaleDispatchesAndDisagreement) {
  auto fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.view_sync_interval_s = 0.5;  // glacial sync
  fc.faults.push_back(FaultWindow{0, 1.0, 2.5});
  fc.retry.max_retries = 16;
  const auto r = FleetSimulator(fc).run(uniform_trace(160, 90.0));
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  // The breaker opened while at least one router held a pre-open snapshot:
  // some dispatches went to the dead replica on stale information, and the
  // staggered refresh cadence left the two views disagreeing for a while.
  EXPECT_GT(r.circuit_opens, 0);
  EXPECT_GT(r.stale_dispatches, 0);
  EXPECT_GT(r.view_disagreement_s, 0.0);
}

TEST(StaleViews, RunIsDeterministic) {
  auto fc = base_cfg(2);
  fc.control.routers = 2;
  fc.control.view_sync_interval_s = 0.2;
  fc.control.router_faults.push_back(RouterFaultWindow{1, 0.5, 1.0});
  fc.faults.push_back(FaultWindow{0, 1.0, 1.8});
  fc.retry.max_retries = 16;
  const auto trace = uniform_trace(140, 90.0);
  const auto a = FleetSimulator(fc).run(trace);
  const auto b = FleetSimulator(fc).run(trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.router_stranded, b.router_stranded);
  EXPECT_EQ(a.stale_dispatches, b.stale_dispatches);
  EXPECT_DOUBLE_EQ(a.view_disagreement_s, b.view_disagreement_s);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
  }
}

// --- routers=1 collapses to the PR 1/2 fleet bit-for-bit ---

TEST(SingleRouter, ControlPlaneSettingsAreInertWithOneRouter) {
  // A PR 2-style scenario: faults, health detection, hedging.
  auto fc = base_cfg(3);
  fc.faults.push_back(FaultWindow{1, 0.6, 1.4});
  fc.hedge.enabled = true;
  fc.retry.max_retries = 12;
  auto tuned = fc;
  // With one router these knobs must change nothing: no peer to disagree
  // with, no fail-over path taken.
  tuned.control.view_sync_interval_s = 0.3;
  tuned.control.failover_detection_s = 1.0;
  const auto trace = uniform_trace(150, 110.0);
  const auto a = FleetSimulator(fc).run(trace);
  const auto b = FleetSimulator(tuned).run(trace);
  EXPECT_EQ(b.router_stranded, 0);
  EXPECT_EQ(b.stale_dispatches, 0);
  EXPECT_DOUBLE_EQ(b.view_disagreement_s, 0.0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.circuit_opens, b.circuit_opens);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.e2e_s.mean(), b.e2e_s.mean());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    EXPECT_FALSE(b.requests[i].router_failover);
  }
}

}  // namespace
}  // namespace mib::fleet
