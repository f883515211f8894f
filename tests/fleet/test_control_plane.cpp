// Replicated front-end routers: fail-over, stale breaker views, and the
// routers=1 collapse back to the single-router fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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
  ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  EXPECT_EQ(plane.assigned_router(0), 0);
  EXPECT_EQ(plane.assigned_router(4), 1);
  EXPECT_EQ(plane.assigned_router(11), 2);
  plane.advance(0.5);
  EXPECT_EQ(plane.survivor(), 0);
  plane.advance(1.2);
  EXPECT_EQ(plane.survivor(), 1);  // router 0 down
  plane.advance(1.7);
  EXPECT_EQ(plane.survivor(), 2);  // routers 0 and 1 down
  plane.advance(2.1);
  EXPECT_EQ(plane.survivor(), 0);  // router 0 back
}

TEST(ControlPlane, WholePlaneDarkHasNoSurvivor) {
  ControlPlaneConfig cc;
  cc.router_faults.push_back(RouterFaultWindow{0, 1.0, 2.0});
  ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, 2);
  plane.advance(1.5);
  EXPECT_EQ(plane.survivor(), -1);
  using Edges = std::vector<std::pair<double, int>>;
  EXPECT_EQ(window_edges(plane.config().router_faults),
            (Edges{{1.0, 0}, {2.0, 0}}));
  EXPECT_EQ(plane.edges(), (std::vector<double>{1.0, 2.0}));
}

// --- held state against a brute-force reference ---

// The plane at t worked out from the config alone: the flap expansion
// written out, the fence rule, and a scan of every router fault window.
struct RefPlane {
  bool in_cut = false;
  double cut_start = 0.0;
  double cut_end = 0.0;
  const PartitionWindow* window = nullptr;  ///< configured, not expanded
  bool fenced = false;
  std::vector<bool> up;
};

RefPlane reference_at(const ControlPlaneConfig& cc, double t) {
  RefPlane ref;
  for (const auto& w : cc.partition.windows) {
    const bool flaps = w.flap_period_s > 0.0 && w.flap_duty < 1.0;
    for (int k = 0; !ref.in_cut; ++k) {
      const double start = w.start_s + k * w.flap_period_s;
      if (start >= w.end_s || (!flaps && k > 0)) break;
      const double end =
          flaps ? std::min(w.end_s, start + w.flap_duty * w.flap_period_s)
                : w.end_s;
      if (t < start || t >= end) continue;
      ref.in_cut = true;
      ref.cut_start = start;
      ref.cut_end = end;
      ref.window = &w;
    }
  }
  const auto& pc = cc.partition;
  if (ref.in_cut && pc.quorum != QuorumPolicy::kServeStale &&
      2 * ref.window->minority_routers.size() <=
          static_cast<std::size_t>(cc.routers)) {
    const double grace =
        pc.quorum == QuorumPolicy::kFenceAtCut ? 0.0 : pc.quorum_grace_s;
    ref.fenced = t >= ref.cut_start + grace;
  }
  ref.up.assign(static_cast<std::size_t>(cc.routers), true);
  for (const auto& f : cc.router_faults) {
    if (t >= f.start_s && t < f.end_s) {
      ref.up[static_cast<std::size_t>(f.replica)] = false;
    }
  }
  return ref;
}

/// Every router fault edge, cut and heal edge, and fence edge strictly
/// inside its episode, ascending.
std::vector<double> reference_edges(const ControlPlaneConfig& cc) {
  std::vector<double> edges;
  for (const auto& f : cc.router_faults) {
    edges.push_back(f.start_s);
    edges.push_back(f.end_s);
  }
  const auto& pc = cc.partition;
  for (const auto& w : pc.windows) {
    const bool flaps = w.flap_period_s > 0.0 && w.flap_duty < 1.0;
    for (int k = 0; k == 0 || flaps; ++k) {
      const double start = w.start_s + k * w.flap_period_s;
      if (start >= w.end_s) break;
      const double end =
          flaps ? std::min(w.end_s, start + w.flap_duty * w.flap_period_s)
                : w.end_s;
      edges.push_back(start);
      edges.push_back(end);
      const bool loses_quorum =
          2 * w.minority_routers.size() <= static_cast<std::size_t>(cc.routers);
      if (pc.quorum == QuorumPolicy::kFenceAfterGrace && loses_quorum &&
          pc.quorum_grace_s > 0.0 && start + pc.quorum_grace_s < end) {
        edges.push_back(start + pc.quorum_grace_s);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Every held query for every router and replica against the reference.
void expect_matches_reference(const ControlPlane& plane,
                              const ControlPlaneConfig& cc, int pool,
                              double t) {
  SCOPED_TRACE(testing::Message() << "t = " << t);
  const RefPlane ref = reference_at(cc, t);
  ASSERT_EQ(plane.cut() != nullptr, ref.in_cut);
  if (ref.in_cut) {
    EXPECT_EQ(plane.cut()->start_s, ref.cut_start);
    EXPECT_EQ(plane.cut()->end_s, ref.cut_end);
    EXPECT_EQ(plane.cut()->minority_routers, ref.window->minority_routers);
    EXPECT_EQ(plane.cut()->minority_replicas, ref.window->minority_replicas);
  }
  auto contains = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  auto router_min = [&](int r) {
    return ref.in_cut && contains(ref.window->minority_routers, r);
  };
  auto replica_min = [&](int i) {
    return ref.in_cut && contains(ref.window->minority_replicas, i);
  };
  // Traffic from one side to the other crosses only along an open
  // direction; a clean cut still carries replies.
  auto crosses = [&](bool from_min, bool to_min) {
    if (!ref.in_cut || from_min == to_min) return true;
    return from_min ? ref.window->open_to_majority
                    : ref.window->open_to_minority;
  };
  const bool clean = !ref.in_cut || (!ref.window->open_to_minority &&
                                     !ref.window->open_to_majority);
  int survivor = -1;
  int majority_survivor = -1;
  for (int r = 0; r < cc.routers; ++r) {
    SCOPED_TRACE(testing::Message() << "router " << r);
    const bool up = ref.up[static_cast<std::size_t>(r)];
    const bool fenced = ref.fenced && router_min(r);
    EXPECT_EQ(plane.router_up(r), up);
    EXPECT_EQ(plane.router_minority(r), router_min(r));
    EXPECT_EQ(plane.router_fenced(r), fenced);
    if (survivor < 0 && up && !fenced) survivor = r;
    if (majority_survivor < 0 && up && !router_min(r)) majority_survivor = r;
    for (int i = 0; i < pool; ++i) {
      SCOPED_TRACE(testing::Message() << "replica " << i);
      EXPECT_EQ(plane.reachable(r, i), crosses(router_min(r), replica_min(i)));
      EXPECT_EQ(plane.reply_reachable(i, r),
                clean || crosses(replica_min(i), router_min(r)));
    }
  }
  EXPECT_EQ(plane.survivor(), survivor);
  EXPECT_EQ(plane.majority_survivor(), majority_survivor);
  for (int i = 0; i < pool; ++i) {
    SCOPED_TRACE(testing::Message() << "replica " << i);
    EXPECT_EQ(plane.replica_minority(i), replica_min(i));
    EXPECT_EQ(plane.cancel_reachable(i), crosses(false, replica_min(i)));
    EXPECT_EQ(plane.heartbeat_crosses(i), crosses(replica_min(i), false));
    EXPECT_EQ(plane.drain_reachable(i),
              !cc.partition.sever_drain_fabric ||
                  crosses(replica_min(i), false));
  }
}

TEST(ControlPlane, HeldStateMatchesPointQueries) {
  constexpr int kPool = 4;
  auto cut = [](double start, double end, std::vector<int> routers,
                std::vector<int> replicas) {
    PartitionWindow w;
    w.start_s = start;
    w.end_s = end;
    w.minority_routers = std::move(routers);
    w.minority_replicas = std::move(replicas);
    return w;
  };
  auto plane_cfg = [](int routers, std::vector<PartitionWindow> windows) {
    ControlPlaneConfig cc;
    cc.routers = routers;
    cc.partition.enabled = !windows.empty();
    cc.partition.windows = std::move(windows);
    return cc;
  };
  std::vector<std::pair<const char*, ControlPlaneConfig>> cases;

  // Flapping under kFenceAfterGrace: the grace (0.05) fits inside each
  // 0.2 s episode, then (0.3) outlasts it and the minority never fences.
  PartitionWindow flap = cut(1.0, 1.9, {2}, {3});  // last episode clipped
  flap.flap_period_s = 0.4;
  flap.flap_duty = 0.5;
  for (double grace : {0.05, 0.3}) {
    auto cc = plane_cfg(3, {flap});
    cc.partition.quorum = QuorumPolicy::kFenceAfterGrace;
    cc.partition.quorum_grace_s = grace;
    cases.emplace_back(grace < 0.2 ? "flap, short grace" : "flap, long grace",
                       cc);
  }
  {
    auto cc = plane_cfg(3, {cut(0.5, 1.5, {0}, {1, 2})});
    cc.partition.quorum = QuorumPolicy::kFenceAtCut;
    cases.emplace_back("fence at cut", cc);
  }
  for (bool to_minority : {true, false}) {
    PartitionWindow w = cut(0.5, 1.5, {1}, {0, 3});
    w.open_to_minority = to_minority;
    w.open_to_majority = !to_minority;
    auto cc = plane_cfg(3, {w});
    cc.partition.sever_drain_fabric = true;
    cases.emplace_back(to_minority ? "open to minority, severed"
                                   : "open to majority, severed",
                       cc);
  }
  {
    auto cc = plane_cfg(3, {cut(0.0, 0.8, {2}, {3})});
    cc.partition.quorum = QuorumPolicy::kFenceAfterGrace;
    cc.partition.quorum_grace_s = 0.1;
    cases.emplace_back("cut from t = 0", cc);
  }
  {
    // Touching windows with different sides, the second asymmetric.
    PartitionWindow b = cut(1.0, 1.6, {0, 1}, {0});
    b.open_to_majority = true;
    auto cc = plane_cfg(3, {cut(0.4, 1.0, {2}, {3}), b});
    cc.partition.quorum = QuorumPolicy::kFenceAtCut;
    cases.emplace_back("touching windows", cc);
  }
  {
    // Router faults straddling the cut edge, ending on the heal edge, and
    // two touching windows of one router.
    auto cc = plane_cfg(3, {cut(1.0, 2.0, {1}, {2})});
    cc.partition.quorum = QuorumPolicy::kFenceAtCut;
    cc.router_faults = {RouterFaultWindow{0, 0.8, 1.2},
                        RouterFaultWindow{2, 1.5, 2.0},
                        RouterFaultWindow{1, 0.2, 0.6},
                        RouterFaultWindow{1, 0.6, 1.1}};
    cases.emplace_back("router faults across cut edges", cc);
  }
  {
    // The whole plane dark, inside and outside a cut.
    auto cc = plane_cfg(2, {cut(1.0, 2.0, {1}, {0})});
    cc.router_faults = {RouterFaultWindow{0, 0.5, 1.5},
                        RouterFaultWindow{1, 0.5, 2.5}};
    cases.emplace_back("dark plane", cc);
  }

  for (const auto& [name, cc] : cases) {
    SCOPED_TRACE(name);
    ControlPlane plane(cc, RoutePolicy::kLeastOutstanding, 7, kPool);
    const std::vector<double> edges = plane.edges();
    EXPECT_EQ(edges, reference_edges(cc));
    // t = 0 (the constructor's advance), then every edge in order and the
    // midpoint of the gap after it.
    expect_matches_reference(plane, cc, kPool, 0.0);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const PartitionWindow* held = plane.cut();
      EXPECT_EQ(plane.advance(edges[k]), held);
      expect_matches_reference(plane, cc, kPool, edges[k]);
      const double next = k + 1 < edges.size() ? edges[k + 1] : edges[k] + 1;
      plane.advance(0.5 * (edges[k] + next));
      expect_matches_reference(plane, cc, kPool, 0.5 * (edges[k] + next));
    }
  }
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
