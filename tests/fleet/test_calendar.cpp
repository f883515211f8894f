// The fleet loop's two clocks: the event calendar (pop order within one
// instant, stale entries) and the waiting queues of parked work (take
// order, erased entries), and the zero-advance pass an entry due at `now`
// produces once its handler has run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
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

/// A parked item: its request id and the order it was parked in.
struct Parked {
  int id;
  int nth;
};

std::vector<std::pair<int, int>> ids_and_order(const std::vector<Parked>& v) {
  std::vector<std::pair<int, int>> out;
  for (const auto& p : v) out.emplace_back(p.id, p.nth);
  return out;
}

TEST(WaitQueue, TakesInTimeThenIdThenParkOrder) {
  WaitQueue<Parked> q;
  q.park(0.5, 9, {9, 0});
  q.park(0.5, 4, {4, 1});
  q.park(0.3, 7, {7, 2});
  q.park(0.5, 4, {4, 3});
  q.park(0.6, 1, {1, 4});
  EXPECT_EQ(q.next(), 0.3);
  const std::vector<std::pair<int, int>> expected = {
      {7, 2}, {4, 1}, {4, 3}, {9, 0}};
  EXPECT_EQ(ids_and_order(q.take_due(0.5)), expected);
  EXPECT_EQ(q.next(), 0.6);
}

TEST(WaitQueue, ErasedEntryNoLongerWakes) {
  WaitQueue<Parked> q;
  q.park(0.3, 4, {4, 0});
  q.park(0.7, 9, {9, 1});
  q.erase_if([](const Parked& p) { return p.id == 4; });  // resolved elsewhere
  EXPECT_EQ(q.next(), 0.7);
  EXPECT_TRUE(q.take_due(0.5).empty());
  const auto due = q.take_due(0.7);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 9);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(std::isinf(q.next()));
}

TEST(WaitQueue, ParkAtNowAfterItsHandlerYieldsOneZeroAdvancePass) {
  Calendar cal;
  WaitQueue<Parked> retries;
  cal.push(1.0, K::kAutoscale);
  cal.push(2.0, K::kAutoscale);
  // The loop's next pass: the earliest of the calendar and the queue.
  auto next_pass = [&] {
    return std::min(cal.next(always_live), retries.next());
  };
  double now = next_pass();
  ASSERT_EQ(now, 1.0);
  ASSERT_EQ(drain_due(cal, now).size(), 1u);
  EXPECT_TRUE(retries.take_due(now).empty());  // the retry handler ran
  // A later handler of this pass parks a retry due at `now`.
  retries.park(now, 4, {4, 0});
  const double again = next_pass();
  EXPECT_EQ(again, now);
  EXPECT_TRUE(drain_due(cal, again).empty());
  const auto due = retries.take_due(again);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 4);
  // Exactly one: the pass after that advances again.
  EXPECT_EQ(next_pass(), 2.0);
}

TEST(Calendar, StepEndOfACrashedReplicaNeverWakes) {
  FleetConfig cfg;
  cfg.engine.model = models::olmoe_1b_7b();
  cfg.engine.cluster = hw::Cluster::h100_node(1);
  const FleetSimulator sim(cfg);
  const engine::LayerCostModel cost(cfg.engine.model, cfg.engine.cluster,
                                    cfg.engine.plan, cfg.engine.cost);
  engine::PriceBook book;
  engine::Replica r(&cost, &book, sim.kv_token_capacity(), cfg.replica);
  engine::Sequence s;
  s.request_id = 0;
  s.input_tokens = 128;
  s.output_tokens = 8;
  r.enqueue(s);
  r.begin_step(0.0);
  Calendar cal;
  cal.push(r.step_end_s(), K::kStepEnd, 0);
  cal.push(5.0, K::kAutoscale);
  auto live = [&](const Event& e) {
    return e.kind != K::kStepEnd || (r.mid_step() && r.step_end_s() == e.time);
  };
  ASSERT_EQ(cal.next(live), r.step_end_s());
  r.evacuate();  // the replica crashed mid-step
  EXPECT_EQ(cal.next(live), 5.0);
}

TEST(Calendar, PushAtNowForAnEarlierHandlerYieldsOneZeroAdvancePass) {
  Calendar cal;
  cal.push(1.0, K::kAutoscale);
  cal.push(2.0, K::kAutoscale);
  double now = cal.next(always_live);
  ASSERT_EQ(now, 1.0);
  ASSERT_EQ(drain_due(cal, now).size(), 1u);
  // An arrival of this pass arms a hedge trigger with zero delay; this
  // pass's due hedges were collected already, so the next pass comes at
  // the same instant.
  cal.push(now, K::kHedge, 4);
  const double again = cal.next(always_live);
  EXPECT_EQ(again, now);
  const auto due = drain_due(cal, again);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, K::kHedge);
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
      cal.earliest([](const Event& e) { return e.kind == K::kHedge; })));
}

}  // namespace
}  // namespace mib::fleet
