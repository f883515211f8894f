#include <gtest/gtest.h>

#include "engine/scheduler.h"
#include "models/zoo.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace mib::engine {
namespace {

EngineConfig engine_cfg() {
  EngineConfig c;
  c.model = models::olmoe_1b_7b();
  c.cluster = hw::Cluster::h100_node(1);
  return c;
}

std::vector<Request> mixed_trace(int n = 64) {
  workload::TraceConfig tc;
  tc.n_requests = n;
  tc.input = {32, 2048, 1.2};
  tc.output = {32, 1024, 1.2};
  return workload::generate_trace(tc);
}

TEST(SchedulerPolicy, SjfCutsMedianTtftUnderBacklog) {
  SchedulerConfig fcfs;
  fcfs.max_batch = 8;  // tight batch: a backlog forms at t=0
  SchedulerConfig sjf = fcfs;
  sjf.policy = QueuePolicy::kShortestFirst;

  const auto trace = mixed_trace();
  const auto rf = ServingSimulator(engine_cfg(), fcfs).run(trace);
  const auto rs = ServingSimulator(engine_cfg(), sjf).run(trace);
  // SJF serves the short-job majority first: median e2e falls.
  EXPECT_LT(rs.e2e_s.percentile(50), rf.e2e_s.percentile(50));
  // Conservation holds under both policies.
  ASSERT_EQ(rs.requests.size(), trace.size());
  ASSERT_EQ(rf.requests.size(), trace.size());
}

TEST(SchedulerPolicy, SjfDoesNotChangeTotalWork) {
  SchedulerConfig fcfs;
  fcfs.max_batch = 8;
  SchedulerConfig sjf = fcfs;
  sjf.policy = QueuePolicy::kShortestFirst;
  const auto trace = mixed_trace(32);
  const auto rf = ServingSimulator(engine_cfg(), fcfs).run(trace);
  const auto rs = ServingSimulator(engine_cfg(), sjf).run(trace);
  // Same tokens served; makespans comparable (within 25%).
  EXPECT_NEAR(rs.makespan_s, rf.makespan_s, 0.25 * rf.makespan_s);
}

TEST(SchedulerPolicy, SjfRespectsArrivalTimes) {
  SchedulerConfig sjf;
  sjf.policy = QueuePolicy::kShortestFirst;
  auto trace = mixed_trace(24);
  workload::ArrivalConfig ac;
  ac.rate_qps = 5.0;
  ac.seed = 1;
  workload::stamp_arrivals(ac, trace);
  const auto rep = ServingSimulator(engine_cfg(), sjf).run(trace);
  for (const auto& o : rep.requests) {
    EXPECT_GE(o.first_token_s, o.arrival_s);  // never served before arrival
  }
}

TEST(SchedulerPolicy, FcfsOrderingPreservedWithoutPressure) {
  // With a huge batch limit everything is admitted at once under either
  // policy; FCFS completes identical work.
  SchedulerConfig fcfs;
  const auto trace = mixed_trace(16);
  const auto r = ServingSimulator(engine_cfg(), fcfs).run(trace);
  ASSERT_EQ(r.requests.size(), 16u);
  EXPECT_EQ(r.preemptions, 0);
}

}  // namespace
}  // namespace mib::engine
