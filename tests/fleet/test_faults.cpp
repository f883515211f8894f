#include "fleet/faults.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "workload/arrivals.h"

namespace mib::fleet {
namespace {

TEST(FaultSchedule, UpAndTransitions) {
  FaultSchedule sched({FaultWindow{0, 1.0, 2.0}, FaultWindow{1, 0.5, 3.0}});
  EXPECT_TRUE(sched.up(0, 0.5));
  EXPECT_FALSE(sched.up(0, 1.0));   // start inclusive
  EXPECT_FALSE(sched.up(0, 1.99));
  EXPECT_TRUE(sched.up(0, 2.0));    // end exclusive
  EXPECT_FALSE(sched.up(1, 2.5));
  EXPECT_TRUE(sched.up(2, 1.5));    // no window -> always up

  using Edges = std::vector<std::pair<double, int>>;
  EXPECT_EQ(window_edges(sched.windows()),
            (Edges{{0.5, 1}, {1.0, 0}, {2.0, 0}, {3.0, 1}}));
}

TEST(FaultWindowTest, Validation) {
  EXPECT_NO_THROW((FaultWindow{0, 0.0, 1.0}.validate()));
  EXPECT_THROW((FaultWindow{-1, 0.0, 1.0}.validate()), Error);
  EXPECT_THROW((FaultWindow{0, 1.0, 1.0}.validate()), Error);
}

TEST(RetryPolicyTest, ExponentialBackoff) {
  RetryPolicy p;
  p.backoff_s = 0.05;
  p.multiplier = 2.0;
  EXPECT_DOUBLE_EQ(p.delay(1), 0.05);
  EXPECT_DOUBLE_EQ(p.delay(2), 0.10);
  EXPECT_DOUBLE_EQ(p.delay(3), 0.20);
}

FleetConfig base_cfg(int replicas) {
  FleetConfig fc;
  fc.engine.model = models::olmoe_1b_7b();
  fc.engine.cluster = hw::Cluster::h100_node(1);
  fc.n_replicas = replicas;
  fc.seed = 9;
  return fc;
}

std::vector<FleetRequest> uniform_trace(int n, double qps) {
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, 256, 64));
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = 21;
  stamp_arrivals(ac, trace);
  return trace;
}

TEST(FaultInjection, KilledReplicaWorkCompletesViaRetryNoneLost) {
  auto cfg = base_cfg(2);
  // Replica 0 fails shortly into the run with work queued and running,
  // and stays down long enough that its work must be re-routed.
  cfg.faults.push_back(FaultWindow{0, 0.05, 10.0});
  const auto r = FleetSimulator(cfg).run(uniform_trace(48, 400.0));
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_EQ(r.lost, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.expired, 0);
  EXPECT_GT(r.retries, 0);  // evacuations actually happened
  int retried = 0;
  for (const auto& rec : r.requests) {
    EXPECT_EQ(rec.status, RequestStatus::kCompleted);
    if (rec.retries > 0) {
      ++retried;
      EXPECT_EQ(rec.replica, 1);  // survivor served the evacuated work
    }
  }
  EXPECT_GT(retried, 0);
}

TEST(FaultInjection, ZeroRetryBudgetReportsEvacuatedWorkLost) {
  auto cfg = base_cfg(2);
  cfg.retry.max_retries = 0;
  cfg.faults.push_back(FaultWindow{0, 0.05, 10.0});
  const auto r = FleetSimulator(cfg).run(uniform_trace(48, 400.0));
  EXPECT_GT(r.lost, 0);
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  for (const auto& rec : r.requests) {
    if (rec.status == RequestStatus::kLost) {
      EXPECT_LT(rec.finish_s, 0.0);  // never finished
    }
  }
}

TEST(FaultInjection, WholeFleetDarkParksArrivalsUntilRecovery) {
  auto cfg = base_cfg(1);
  cfg.faults.push_back(FaultWindow{0, 0.0, 0.5});
  const auto r = FleetSimulator(cfg).run(uniform_trace(16, 200.0));
  EXPECT_EQ(r.completed, 16);
  EXPECT_EQ(r.lost, 0);
  for (const auto& rec : r.requests) {
    // Nothing can start before the only replica recovers.
    EXPECT_GE(rec.first_token_s, 0.5);
  }
}

TEST(FaultInjection, CapacityDropsUnderFailureWindow) {
  // A sustained load two replicas can hold but one cannot must score lower
  // attainment when one of the two is down for the whole run.
  const auto trace = uniform_trace(512, 150.0);
  const auto healthy = FleetSimulator(base_cfg(2)).run(trace);
  auto cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{0, 0.05, 60.0});
  const auto faulty = FleetSimulator(cfg).run(trace);
  EXPECT_LT(faulty.slo.attainment, healthy.slo.attainment);
}

}  // namespace
}  // namespace mib::fleet
