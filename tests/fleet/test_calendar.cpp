// The fleet loop's clocks: the event calendar (pop order within one
// instant), the waiting queues of parked work (take order, erased
// entries), the per-replica timers (ties, moved and disarmed timers), and
// the zero-advance pass an entry due at `now` produces once its handler
// has run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fleet/calendar.h"
#include "fleet/health.h"

namespace mib::fleet {
namespace {

using K = EventKind;

std::vector<Event> drain_due(Calendar& cal, double t) {
  std::vector<Event> out;
  cal.pop_due(t, [&](const Event& e) { out.push_back(e); });
  return out;
}

TEST(Calendar, EqualTimesPopInHandlerOrderThenTargetOrder) {
  Calendar cal;
  cal.push(1.0, K::kHedge, 3);
  cal.push(1.0, K::kScaleEdge, 2);
  cal.push(0.5, K::kAutoscale);
  cal.push(1.0, K::kHedge, 1);
  cal.push(1.0, K::kFaultEdge, 7);
  cal.push(1.0, K::kScaleEdge, 0);
  cal.push(2.0, K::kScaleEdge, 0);

  EXPECT_EQ(cal.next(), 0.5);
  ASSERT_EQ(drain_due(cal, 0.5).size(), 1u);
  EXPECT_EQ(cal.next(), 1.0);
  const auto due = drain_due(cal, 1.0);
  std::vector<std::pair<K, int>> order;
  for (const auto& e : due) order.emplace_back(e.kind, e.target);
  const std::vector<std::pair<K, int>> expected = {
      {K::kScaleEdge, 0}, {K::kScaleEdge, 2}, {K::kFaultEdge, 7},
      {K::kHedge, 1},     {K::kHedge, 3}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(cal.next(), 2.0);
}

TEST(Calendar, ReplicaTimerScanTiesInIndexOrder) {
  TimerScan scan{K::kHeartbeat};
  // Replica 1's timer is not armed (say, a suspended replica's heartbeat).
  const std::vector<double> at = {0.7, kInf, 0.4, 0.9, 0.4};
  for (int i = 0; i < static_cast<int>(at.size()); ++i) scan.offer(i, at[i]);
  EXPECT_EQ(scan.time, 0.4);
  EXPECT_EQ(scan.replicas, (std::vector<int>{2, 4}));
  scan.clear();
  scan.offer(1, kInf);
  EXPECT_TRUE(std::isinf(scan.time));
  EXPECT_TRUE(scan.replicas.empty());
}

TEST(Calendar, MovedBreakerDeadlineWakesAtItsNewTime) {
  HealthConfig hc;
  HealthMonitor monitor(hc, 1);
  // The loop copies the deadline wherever it moves, and scans the copy.
  double breaker_at = 0.0;
  auto scan = [&] {
    TimerScan s{K::kBreaker};
    s.offer(0, breaker_at);
    return s.time;
  };
  monitor.resume(0, 0.0);
  breaker_at = monitor.deadline(0);
  const double first = scan();
  // A heartbeat moves the deadline later, and the copy moves with it.
  monitor.on_heartbeat(0, hc.heartbeat_interval_s);
  breaker_at = monitor.deadline(0);
  ASSERT_GT(breaker_at, first);
  EXPECT_EQ(scan(), breaker_at);  // nothing is left at `first`
  // A suspended replica has no deadline at all.
  monitor.suspend(0);
  breaker_at = monitor.deadline(0);
  EXPECT_TRUE(std::isinf(scan()));
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
    return std::min(cal.next(), retries.next());
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

TEST(Calendar, PushAtNowForAnEarlierHandlerYieldsOneZeroAdvancePass) {
  Calendar cal;
  cal.push(1.0, K::kAutoscale);
  cal.push(2.0, K::kAutoscale);
  double now = cal.next();
  ASSERT_EQ(now, 1.0);
  ASSERT_EQ(drain_due(cal, now).size(), 1u);
  // An arrival of this pass arms a hedge trigger with zero delay; this
  // pass's due hedges were collected already, so the next pass comes at
  // the same instant.
  cal.push(now, K::kHedge, 4);
  const double again = cal.next();
  EXPECT_EQ(again, now);
  const auto due = drain_due(cal, again);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, K::kHedge);
  // Exactly one: the pass after that advances again.
  EXPECT_EQ(cal.next(), 2.0);
}

TEST(Calendar, EarliestOfAKind) {
  Calendar cal;
  cal.push(0.6, K::kViewSync, 2);
  cal.push(0.9, K::kFaultEdge, 1);
  EXPECT_EQ(cal.next(), 0.6);
  EXPECT_EQ(cal.earliest([](const Event& e) {
    return e.kind == K::kFaultEdge;
  }), 0.9);
  EXPECT_TRUE(std::isinf(
      cal.earliest([](const Event& e) { return e.kind == K::kHedge; })));
}

}  // namespace
}  // namespace mib::fleet
