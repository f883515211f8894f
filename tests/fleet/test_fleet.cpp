#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "hw/cluster.h"
#include "models/zoo.h"
#include "report_digest.h"
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

std::vector<FleetRequest> uniform_trace(int n, double qps,
                                        std::uint64_t seed = 21) {
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, 256, 64));
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = seed;
  stamp_arrivals(ac, trace);
  return trace;
}

void expect_identical(const FleetReport& a, const FleetReport& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.throughput_tok_s, b.throughput_tok_s);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.prefix_lookups, b.prefix_lookups);
  EXPECT_EQ(a.prefix_hits, b.prefix_hits);
  EXPECT_EQ(a.replicas_used, b.replicas_used);
  ASSERT_EQ(a.ttft_s.values(), b.ttft_s.values());
  ASSERT_EQ(a.itl_s.values(), b.itl_s.values());
  ASSERT_EQ(a.e2e_s.values(), b.e2e_s.values());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].status, b.requests[i].status);
    EXPECT_DOUBLE_EQ(a.requests[i].arrival_s, b.requests[i].arrival_s);
    EXPECT_DOUBLE_EQ(a.requests[i].first_token_s, b.requests[i].first_token_s);
    EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
    EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
  }
}

TEST(Fleet, AllRequestsCompleteOnHealthyFleet) {
  const auto trace = uniform_trace(48, 40.0);
  const auto r = FleetSimulator(base_cfg(2)).run(trace);
  EXPECT_EQ(r.submitted, 48);
  EXPECT_EQ(r.completed, 48);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.expired, 0);
  EXPECT_EQ(r.lost, 0);
  EXPECT_GT(r.throughput_tok_s, 0.0);
  ASSERT_EQ(r.requests.size(), 48u);
  for (const auto& rec : r.requests) {
    EXPECT_EQ(rec.status, RequestStatus::kCompleted);
    EXPECT_GE(rec.first_token_s, rec.arrival_s);
    EXPECT_GE(rec.finish_s, rec.first_token_s);
    EXPECT_GE(rec.replica, 0);
    EXPECT_LT(rec.replica, 2);
  }
}

TEST(Fleet, RequestConservation) {
  // Tight queue + deadline + a fault window: every request must still be
  // accounted for in exactly one terminal bucket.
  auto cfg = base_cfg(2);
  cfg.replica.max_batch = 4;
  cfg.admission.queue_capacity = 8;
  cfg.admission.deadline_s = 0.5;
  cfg.faults.push_back(FaultWindow{0, 0.05, 0.6});
  const auto r = FleetSimulator(cfg).run(uniform_trace(96, 400.0));
  EXPECT_EQ(r.submitted, 96);
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  EXPECT_EQ(static_cast<long long>(r.requests.size()), r.submitted);
}

TEST(Fleet, DeterministicForFixedSeed) {
  auto cfg = base_cfg(3);
  cfg.faults.push_back(FaultWindow{1, 0.1, 0.4});
  const auto trace = uniform_trace(64, 120.0);
  const auto a = FleetSimulator(cfg).run(trace);
  const auto b = FleetSimulator(cfg).run(trace);
  expect_identical(a, b);
}

TEST(Fleet, SeedChangesArrivalsChangeOutcome) {
  const auto r1 = FleetSimulator(base_cfg(2)).run(uniform_trace(64, 80.0, 1));
  const auto r2 = FleetSimulator(base_cfg(2)).run(uniform_trace(64, 80.0, 2));
  EXPECT_NE(r1.makespan_s, r2.makespan_s);
}

TEST(Fleet, ThroughputScalesWithReplicas) {
  // Saturating load: more replicas must raise fleet throughput.
  const auto trace = uniform_trace(96, 300.0);
  const auto r1 = FleetSimulator(base_cfg(1)).run(trace);
  const auto r2 = FleetSimulator(base_cfg(2)).run(trace);
  const auto r4 = FleetSimulator(base_cfg(4)).run(trace);
  EXPECT_EQ(r1.completed, 96);
  EXPECT_EQ(r4.completed, 96);
  EXPECT_GT(r2.throughput_tok_s, r1.throughput_tok_s);
  EXPECT_GE(r4.throughput_tok_s, r2.throughput_tok_s);
  EXPECT_LT(r2.makespan_s, r1.makespan_s);
}

TEST(Fleet, AdmissionShedsLoadWhenQueueFull) {
  auto cfg = base_cfg(1);
  cfg.replica.max_batch = 4;
  cfg.admission.queue_capacity = 4;
  const auto r = FleetSimulator(cfg).run(uniform_trace(64, 2000.0));
  EXPECT_GT(r.rejected, 0);
  EXPECT_GT(r.completed, 0);
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  // Rejected requests never reach a replica.
  for (const auto& rec : r.requests) {
    if (rec.status == RequestStatus::kRejected) {
      EXPECT_EQ(rec.replica, -1);
      EXPECT_LT(rec.first_token_s, 0.0);
    }
  }
  EXPECT_EQ(r.slo.submitted, r.submitted);
  EXPECT_LT(r.slo.attainment, 1.0);  // rejections are strict SLO misses
}

TEST(Fleet, DeadlineExpiresQueuedRequests) {
  auto cfg = base_cfg(1);
  cfg.replica.max_batch = 2;
  cfg.admission.deadline_s = 0.02;
  const auto r = FleetSimulator(cfg).run(uniform_trace(64, 2000.0));
  EXPECT_GT(r.expired, 0);
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
}

TEST(Fleet, ReplicaReportsConsistentWithFleetTotals) {
  const auto r = FleetSimulator(base_cfg(3)).run(uniform_trace(60, 100.0));
  long long completed = 0, steps = 0;
  for (const auto& rep : r.replicas) {
    completed += rep.completed;
    steps += rep.steps;
    EXPECT_GE(rep.utilization, 0.0);
    EXPECT_LE(rep.utilization, 1.0 + 1e-9);
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_GT(steps, 0);
  EXPECT_EQ(r.replicas_used, 3);
}

TEST(Fleet, ArrivalAtAStepEndJoinsTheStepThatBegins) {
  // One replica, health off: request A (256/64) arrives at t = 0 and its
  // prefill step ends at t1. A request B arriving at t1 is served in the
  // same pass as that step end, so it joins the step that begins there
  // exactly like a B that arrived just before; one arriving just after
  // waits for the next step.
  auto cfg = base_cfg(1);
  cfg.health.enabled = false;
  const double t1 =
      FleetSimulator(cfg)
          .run(as_fleet_trace(engine::make_uniform_batch(1, 256, 64)))
          .requests[0]
          .first_token_s;
  auto b_first_token = [&](double b_arrival) {
    auto trace = as_fleet_trace(engine::make_uniform_batch(2, 256, 64));
    trace[1].request.arrival_s = b_arrival;
    const auto r = FleetSimulator(cfg).run(trace);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.requests[0].first_token_s, t1);
    return r.requests[1].first_token_s;
  };
  const double at = b_first_token(t1);
  const double before = b_first_token(std::nextafter(t1, 0.0));
  const double after =
      b_first_token(std::nextafter(t1, std::numeric_limits<double>::infinity()));
  EXPECT_EQ(at, before);
  EXPECT_GT(after, at);
}

TEST(Fleet, IndependentRunsMatchPerPassRuns) {
  // Without hedging, partitions or stale views no step end reaches past its
  // replica, and each replica steps on its own between fleet events. Either
  // feature, configured so that it never acts, makes the run give every
  // step end a pass of its own instead: a fixed-delay hedge that would fire
  // long after the run ends, or a partition window that opens after it.
  // Both paths must give bit-identical reports.
  constexpr double kNever = 1e6;
  auto trace = [](int n, double qps, int in_tok, int out_tok) {
    auto t = as_fleet_trace(engine::make_uniform_batch(n, in_tok, out_tok));
    workload::ArrivalConfig ac;
    ac.rate_qps = qps;
    ac.seed = 21;
    stamp_arrivals(ac, t);
    return t;
  };
  struct Case {
    const char* name;
    FleetConfig cfg;
    std::vector<FleetRequest> trace;
    /// Whether the run met what the case is there to cover.
    bool (*covered)(const FleetReport&);
  };
  std::vector<Case> cases;
  {
    // Crashes seen through heartbeats and breakers, and a router fault.
    auto fc = base_cfg(3);
    fc.faults = {FaultWindow{1, 0.3, 0.6}, FaultWindow{0, 0.9, 1.0}};
    fc.control.router_faults = {RouterFaultWindow{1, 0.4, 0.7}};
    fc.retry.max_retries = 12;
    cases.push_back({"faults+breaker", fc, trace(150, 100.0, 256, 64),
                     [](const FleetReport& r) {
                       return r.circuit_opens > 0 && r.router_stranded > 0;
                     }});
  }
  {
    // Overlap drains: the source decodes on while its KV copies out.
    auto fc = base_cfg(3);
    fc.maintenance = {MaintenanceWindow{0, 0.5, 1.5},
                      MaintenanceWindow{1, 1.6, 1.9}};
    fc.migration.overlap_decode = true;
    fc.migration.stripe_links = 2;
    fc.migration.per_sequence_overhead_s = 0.004;
    cases.push_back({"overlap-drain", fc, trace(160, 110.0, 512, 128),
                     [](const FleetReport& r) {
                       return r.overlap_decode_tokens > 0;
                     }});
  }
  {
    // A burst, a lull that shrinks the pool, then a second burst.
    auto fc = base_cfg(1);
    fc.replica.max_batch = 4;
    fc.autoscaler.enabled = true;
    fc.autoscaler.max_replicas = 4;
    fc.autoscaler.interval_s = 0.1;
    fc.autoscaler.scale_up_queue_depth = 4;
    fc.faults = {FaultWindow{1, 0.9, 1.2}};
    fc.retry.max_retries = 12;
    auto t = trace(160, 140.0, 256, 64);
    for (std::size_t i = 80; i < t.size(); ++i) t[i].request.arrival_s += 1.5;
    cases.push_back({"autoscaler", fc, t, [](const FleetReport& r) {
                       return r.replicas_used > 1 && r.scale_events.size() > 1;
                     }});
  }
  {
    // Brownouts and post-recovery warm-up ramps reprice replicas mid-run.
    auto fc = base_cfg(3);
    fc.degradations = {DegradationWindow{0, 0.2, 0.9, PerfScale{0.4, 0.6, 1.0}},
                       DegradationWindow{2, 0.5, 1.1, PerfScale{1.0, 0.3, 0.5}}};
    fc.faults = {FaultWindow{1, 0.3, 0.5}};
    fc.maintenance = {MaintenanceWindow{2, 1.2, 1.4}};
    fc.warmup.enabled = true;
    fc.warmup.duration_s = 0.3;
    fc.retry.max_retries = 12;
    cases.push_back({"brownout+warmup", fc, trace(150, 110.0, 256, 64),
                     [](const FleetReport& r) {
                       return r.warmup_recoveries > 0 && r.migrations > 0;
                     }});
  }
  {
    // Overload with admission deadlines under the oracle: work is shed at
    // the queue bound and expires while queued.
    auto fc = base_cfg(2);
    fc.health.enabled = false;
    fc.admission.queue_capacity = 16;
    fc.admission.deadline_s = 0.3;
    fc.faults = {FaultWindow{0, 0.4, 0.6}};
    fc.retry.max_retries = 12;
    cases.push_back({"deadlines+oracle", fc, trace(200, 300.0, 512, 64),
                     [](const FleetReport& r) {
                       return r.rejected > 0 && r.expired > 0 && r.retries > 0;
                     }});
  }
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    // Two routers with live views, so that a partition can name a
    // minority router and nothing else differs between the runs.
    c.cfg.control.routers = 2;
    const FleetReport windowed = FleetSimulator(c.cfg).run(c.trace);
    ASSERT_LT(windowed.makespan_s, kNever);
    ASSERT_GT(windowed.completed, 0);
    EXPECT_TRUE(c.covered(windowed));

    FleetConfig hedged = c.cfg;
    hedged.hedge.enabled = true;
    hedged.hedge.delay_s = kNever;
    const FleetReport per_pass_hedged = FleetSimulator(hedged).run(c.trace);
    EXPECT_EQ(per_pass_hedged.hedges_issued, 0);
    EXPECT_EQ(digest(per_pass_hedged), digest(windowed));

    FleetConfig cut = c.cfg;
    cut.control.partition.enabled = true;
    PartitionWindow late;
    late.start_s = kNever;
    late.end_s = kNever + 1.0;
    late.minority_routers = {1};
    late.minority_replicas = {0};
    cut.control.partition.windows = {late};
    const FleetReport per_pass_cut = FleetSimulator(cut).run(c.trace);
    EXPECT_EQ(per_pass_cut.partition_flaps, 0);
    EXPECT_EQ(digest(per_pass_cut), digest(windowed));
  }
}

TEST(Fleet, ConfigValidation) {
  auto cfg = base_cfg(0);
  EXPECT_THROW(cfg.validate(), Error);
  cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{5, 0.0, 1.0});  // outside the pool
  EXPECT_THROW({ FleetSimulator sim(cfg); }, Error);
  // Replicas in a fleet serve FCFS with continuous batching only.
  cfg = base_cfg(2);
  cfg.replica.policy = engine::QueuePolicy::kShortestFirst;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = base_cfg(2);
  cfg.replica.continuous_batching = false;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(Fleet, TurnTraceIsTurnMajorAndHashStable) {
  workload::ConversationConfig cc;
  cc.n_conversations = 3;
  cc.turns_per_conversation = 2;
  cc.seed = 4;
  const auto turns = workload::generate_conversations(cc);
  const auto trace = as_fleet_trace(turns);
  ASSERT_EQ(trace.size(), 6u);
  // Turn-major: all first turns precede all second turns.
  for (int i = 0; i < 3; ++i) EXPECT_GT(trace[i].prefix_hash, 0u);
  EXPECT_EQ(trace[0].prefix_hash, trace[3].prefix_hash);
  EXPECT_EQ(trace[1].prefix_hash, trace[4].prefix_hash);
  EXPECT_NE(trace[0].prefix_hash, trace[1].prefix_hash);
  // Turn 0 shares only the system prompt; later turns add the history.
  EXPECT_EQ(trace[0].prefix_tokens, 512);
  EXPECT_GT(trace[3].prefix_tokens, trace[0].prefix_tokens);
}

TEST(Fleet, AutoscalerGrowsFleetUnderBacklog) {
  auto cfg = base_cfg(1);
  cfg.replica.max_batch = 8;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.min_replicas = 1;
  cfg.autoscaler.max_replicas = 4;
  cfg.autoscaler.interval_s = 0.05;
  cfg.autoscaler.scale_up_queue_depth = 4;
  const auto r = FleetSimulator(cfg).run(uniform_trace(96, 800.0));
  EXPECT_EQ(r.completed, 96);
  ASSERT_FALSE(r.scale_events.empty());
  EXPECT_EQ(r.scale_events.front().action, "add");
  EXPECT_GT(r.replicas_used, 1);
  // The pool is provisioned up to the autoscaler ceiling.
  EXPECT_EQ(FleetSimulator(cfg).pool_size(), 4);
}

}  // namespace
}  // namespace mib::fleet
