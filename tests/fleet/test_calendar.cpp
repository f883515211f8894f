// The fleet loop's event calendar: pop order within one instant, stale
// entries, and the zero-advance pass an entry pushed at `now` produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "engine/replica.h"
#include "fleet/calendar.h"
#include "fleet/fleet.h"
#include "fleet/health.h"
#include "hw/cluster.h"
#include "models/zoo.h"

namespace mib::fleet {
namespace {

using K = EventKind;

std::vector<Event> drain_due(Calendar& cal, double t) {
  std::vector<Event> out;
  cal.pop_due(t, [&](const Event& e) { out.push_back(e); });
  return out;
}

auto always_live = [](const Event&) { return true; };

TEST(Calendar, EqualTimesPopInHandlerOrderThenTargetOrder) {
  Calendar cal;
  cal.push(1.0, K::kStepEnd, 3);
  cal.push(1.0, K::kHeartbeat, 2);
  cal.push(0.5, K::kAutoscale);
  cal.push(1.0, K::kStepEnd, 1);
  cal.push(1.0, K::kFaultEdge, 7);
  cal.push(1.0, K::kHeartbeat, 0);
  cal.push(2.0, K::kHeartbeat, 0);

  EXPECT_EQ(cal.next(always_live), 0.5);
  ASSERT_EQ(drain_due(cal, 0.5).size(), 1u);
  EXPECT_EQ(cal.next(always_live), 1.0);
  const auto due = drain_due(cal, 1.0);
  std::vector<std::pair<K, int>> order;
  for (const auto& e : due) order.emplace_back(e.kind, e.target);
  const std::vector<std::pair<K, int>> expected = {
      {K::kHeartbeat, 0}, {K::kHeartbeat, 2}, {K::kFaultEdge, 7},
      {K::kStepEnd, 1},   {K::kStepEnd, 3}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(cal.next(always_live), 2.0);
}

TEST(Calendar, MovedBreakerDeadlineNeverWakes) {
  HealthConfig hc;
  HealthMonitor monitor(hc, 1);
  Calendar cal;
  auto live = [&](const Event& e) {
    return monitor.deadline(e.target) == e.time;
  };
  monitor.resume(0, 0.0);
  const double first = monitor.deadline(0);
  cal.push(first, K::kBreaker, 0);
  // A heartbeat moves the deadline later; the owner pushes the new one and
  // leaves the old entry behind.
  monitor.on_heartbeat(0, hc.heartbeat_interval_s);
  const double moved = monitor.deadline(0);
  ASSERT_GT(moved, first);
  cal.push(moved, K::kBreaker, 0);
  EXPECT_EQ(cal.next(live), moved);  // the stale `first` made no pass
  EXPECT_EQ(cal.size(), 1u);
  // A suspended replica has no deadline at all.
  monitor.suspend(0);
  EXPECT_TRUE(std::isinf(cal.next(live)));
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, CancelledRetryNeverWakes) {
  struct Parked {
    double ready_s;
    int id;
  };
  std::vector<Parked> retries = {{0.3, 4}, {0.7, 9}};
  Calendar cal;
  for (const auto& p : retries) cal.push(p.ready_s, K::kRetry, p.id);
  auto live = [&](const Event& e) {
    return std::any_of(retries.begin(), retries.end(), [&](const Parked& p) {
      return p.ready_s == e.time && p.id == e.target;
    });
  };
  retries.erase(retries.begin());  // request 4 resolved elsewhere
  EXPECT_EQ(cal.next(live), 0.7);
  const auto due = drain_due(cal, 0.7);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].target, 9);
}

TEST(Calendar, StepEndOfACrashedReplicaNeverWakes) {
  FleetConfig cfg;
  cfg.engine.model = models::olmoe_1b_7b();
  cfg.engine.cluster = hw::Cluster::h100_node(1);
  const FleetSimulator sim(cfg);
  const engine::LayerCostModel cost(cfg.engine.model, cfg.engine.cluster,
                                    cfg.engine.plan, cfg.engine.cost);
  engine::Replica r(&cost, sim.kv_token_capacity(), cfg.replica);
  engine::Sequence s;
  s.request_id = 0;
  s.input_tokens = 128;
  s.output_tokens = 8;
  r.enqueue(s);
  r.begin_step(0.0);
  Calendar cal;
  cal.push(r.step_end_s(), K::kStepEnd, 0);
  cal.push(5.0, K::kArrival);
  auto live = [&](const Event& e) {
    return e.kind != K::kStepEnd || (r.mid_step() && r.step_end_s() == e.time);
  };
  ASSERT_EQ(cal.next(live), r.step_end_s());
  r.evacuate();  // the replica crashed mid-step
  EXPECT_EQ(cal.next(live), 5.0);
}

TEST(Calendar, PushAtNowForAnEarlierHandlerYieldsOneZeroAdvancePass) {
  Calendar cal;
  cal.push(1.0, K::kArrival);
  cal.push(2.0, K::kArrival);
  double now = cal.next(always_live);
  ASSERT_EQ(now, 1.0);
  ASSERT_EQ(drain_due(cal, now).size(), 1u);
  // A late handler of this pass parks a retry due at `now`; the retry
  // handler already ran, so the next pass comes at the same instant.
  cal.push(now, K::kRetry, 4);
  const double again = cal.next(always_live);
  EXPECT_EQ(again, now);
  const auto due = drain_due(cal, again);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, K::kRetry);
  // Exactly one: the pass after that advances again.
  EXPECT_EQ(cal.next(always_live), 2.0);
}

TEST(Calendar, CancelAndEarliest) {
  Calendar cal;
  cal.push(0.4, K::kHeartbeat, 1);
  cal.push(0.6, K::kHeartbeat, 2);
  cal.push(0.9, K::kFaultEdge, 1);
  cal.cancel(K::kHeartbeat, 1);
  EXPECT_EQ(cal.next(always_live), 0.6);
  EXPECT_EQ(cal.earliest([](const Event& e) {
    return e.kind == K::kFaultEdge;
  }), 0.9);
  EXPECT_TRUE(std::isinf(
      cal.earliest([](const Event& e) { return e.kind == K::kRetry; })));
}

}  // namespace
}  // namespace mib::fleet
