#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include "engine/layer_cost.h"
#include "engine/replica.h"
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

std::vector<Request> uniform(int n, int in, int out) {
  return make_uniform_batch(n, in, out);
}

std::vector<Request> poisson(std::vector<Request> trace, double qps) {
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = 1;
  workload::stamp_arrivals(ac, trace);
  return trace;
}

TEST(Scheduler, AllRequestsComplete) {
  ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const auto rep = sim.run(uniform(32, 256, 128));
  ASSERT_EQ(rep.requests.size(), 32u);
  for (const auto& o : rep.requests) {
    EXPECT_GT(o.first_token_s, o.arrival_s);
    EXPECT_GE(o.finish_s, o.first_token_s);
    EXPECT_EQ(o.output_tokens, 128);
  }
  EXPECT_GT(rep.throughput_tok_s, 0.0);
  EXPECT_GT(rep.goodput_tok_s, 0.0);
  EXPECT_LT(rep.goodput_tok_s, rep.throughput_tok_s);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const auto trace = poisson(uniform(24, 512, 64), 20.0);
  const auto a = sim.run(trace);
  const auto b = sim.run(trace);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST(Scheduler, StaticBatchingIsSlowerOnMixedLengths) {
  workload::TraceConfig tc;
  tc.n_requests = 48;
  tc.input = {64, 1024, 1.2};
  tc.output = {32, 512, 1.2};
  const auto trace = workload::generate_trace(tc);

  SchedulerConfig cont;
  cont.continuous_batching = true;
  cont.max_batch = 16;
  SchedulerConfig stat = cont;
  stat.continuous_batching = false;

  const auto cont_rep = ServingSimulator(engine_cfg(), cont).run(trace);
  const auto stat_rep = ServingSimulator(engine_cfg(), stat).run(trace);
  // Static gang batching drains to empty before readmitting: strictly
  // lower occupancy and longer makespan on a mixed-length trace.
  EXPECT_LT(stat_rep.mean_running_batch, cont_rep.mean_running_batch);
  EXPECT_GT(stat_rep.makespan_s, cont_rep.makespan_s);
}

TEST(Scheduler, TtftGrowsWithLoad) {
  const auto trace = uniform(32, 1024, 128);
  const ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const auto l = sim.run(poisson(trace, 1.0));
  const auto h = sim.run(poisson(trace, 1000.0));
  // Under heavy load requests queue behind each other: p95 TTFT inflates.
  EXPECT_GT(h.ttft_s.percentile(95), l.ttft_s.percentile(95));
  // Lightly-loaded system is mostly idle: lower total throughput.
  EXPECT_LT(l.throughput_tok_s, h.throughput_tok_s);
}

TEST(Scheduler, MaxBatchCapsOccupancy) {
  SchedulerConfig sc;
  sc.max_batch = 4;
  ServingSimulator sim(engine_cfg(), sc);
  const auto rep = sim.run(uniform(32, 128, 64));
  EXPECT_LE(rep.mean_running_batch, 4.0 + 1e-9);
}

TEST(Scheduler, PreemptionUnderKvPressure) {
  // Qwen1.5's fat MHA KV: admit optimistically, then run out as contexts
  // grow -> preemptions (vLLM recompute).
  EngineConfig c;
  c.model = models::qwen15_moe_a27b();
  c.cluster = hw::Cluster::h100_node(1);
  SchedulerConfig sc;
  sc.max_batch = 512;
  ServingSimulator sim(c, sc);
  const auto cap = sim.kv_token_capacity();
  // Requests that together need ~2x the KV pool.
  const int n = static_cast<int>(2 * cap / 4096) + 1;
  const auto rep = sim.run(uniform(n, 2048, 2048));
  EXPECT_GT(rep.preemptions, 0);
  ASSERT_EQ(rep.requests.size(), static_cast<std::size_t>(n));
}

TEST(Scheduler, SingleRequestMatchesEngineOrderOfMagnitude) {
  ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const auto rep = sim.run(uniform(1, 512, 256));
  const SimEngine eng(engine_cfg());
  const auto m = eng.run(1, 512, 256);
  EXPECT_NEAR(rep.requests[0].e2e(), m.e2e_s, 0.5 * m.e2e_s);
  EXPECT_NEAR(rep.requests[0].ttft(), m.ttft_s, m.ttft_s);
}

TEST(Scheduler, ChunkedPrefillBudgetRespected) {
  // A tiny budget stretches TTFT: the 2048-token prompt takes ceil(2048/256)
  // prefill steps.
  SchedulerConfig small_chunk;
  small_chunk.prefill_tokens_per_step = 256;
  SchedulerConfig big_chunk;
  big_chunk.prefill_tokens_per_step = 4096;
  const auto trace = uniform(1, 2048, 8);
  const auto s = ServingSimulator(engine_cfg(), small_chunk).run(trace);
  const auto b = ServingSimulator(engine_cfg(), big_chunk).run(trace);
  EXPECT_GT(s.steps, b.steps);
}

TEST(Scheduler, RejectsImpossibleRequests) {
  ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const long long cap = sim.kv_token_capacity();
  std::vector<Request> too_big = {
      Request{static_cast<int>(cap), static_cast<int>(cap), 0}};
  EXPECT_THROW(sim.run(too_big), Error);
  EXPECT_THROW(sim.run({}), Error);
}

TEST(Scheduler, ConfigValidation) {
  SchedulerConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(ServingSimulator(engine_cfg(), bad), Error);
  bad = SchedulerConfig{};
  bad.prefill_tokens_per_step = 0;
  EXPECT_THROW(ServingSimulator(engine_cfg(), bad), Error);
}

TEST(Scheduler, HonorsExplicitArrivalStamps) {
  // Requests carrying arrival_s stamps are served no earlier than their
  // stamps.
  auto trace = uniform(16, 256, 32);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_s = 0.25 * static_cast<double>(i);
  }
  ServingSimulator sim(engine_cfg(), SchedulerConfig{});
  const auto rep = sim.run(trace);
  ASSERT_EQ(rep.requests.size(), 16u);
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep.requests[i].arrival_s,
                     0.25 * static_cast<double>(i));
    EXPECT_GT(rep.requests[i].first_token_s, rep.requests[i].arrival_s);
  }
  // The load is light, so service tracks the stamps: the last request
  // cannot start before it arrives at t = 3.75.
  EXPECT_GE(rep.makespan_s, 3.75);
}

TEST(Scheduler, WeightsTooBigRejected) {
  EngineConfig c;
  c.model = models::mixtral_8x7b();  // 93 GiB fp16 on one 80 GiB device
  c.cluster = hw::Cluster::h100_node(1);
  EXPECT_THROW(ServingSimulator(c, SchedulerConfig{}), Error);
}

// --- Replica verbs ---

TEST(Replica, RestartLosesAllProgress) {
  Sequence s;
  s.input_tokens = 64;
  s.output_tokens = 8;
  s.prefilled = 64;
  s.generated = 3;
  s.first_token_s = 0.25;
  s.prefix_hit = true;
  s.retries = 2;
  s.served_s = 0.5;
  s.restart();
  EXPECT_EQ(s.prefilled, 0);
  EXPECT_EQ(s.generated, 0);
  EXPECT_EQ(s.first_token_s, -1.0);
  EXPECT_FALSE(s.prefix_hit);
  // Burned work and the retry count survive a restart.
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.served_s, 0.5);
}

TEST(Replica, TakingARunningCopyResumesAdmission) {
  const auto c = engine_cfg();
  const LayerCostModel cost(c.model, c.cluster, c.plan, c.cost);
  Replica r(&cost, 100, ReplicaConfig{});
  for (int id = 0; id < 3; ++id) {
    Sequence s;
    s.request_id = id;
    s.arrival_s = 0.01 * id;
    s.input_tokens = 30;
    s.output_tokens = 50;
    r.enqueue(s);
  }
  // Three 30-token prompts decode until the growing contexts overflow the
  // 100-token pool: the youngest (id 2) is preempted and admission pauses.
  while (r.preemptions() == 0) {
    r.begin_step(0.0);
    r.complete_step();
  }
  ASSERT_EQ(r.running_count(), 2);
  ASSERT_EQ(r.queue_depth(), 1);
  // Taking a running copy retires capacity, so the next step re-admits
  // the preempted sequence without waiting for a completion.
  Sequence taken;
  ASSERT_TRUE(r.take(1, &taken));
  EXPECT_EQ(taken.request_id, 1);
  EXPECT_GT(taken.generated, 0);  // progress intact
  r.begin_step(0.0);
  EXPECT_EQ(r.running_count(), 2);
  EXPECT_EQ(r.queue_depth(), 0);
  // Ids 0 and 1 ran in lockstep, so id 0 holds as much KV as the taken
  // copy; id 2 re-prefilled its 30 tokens.
  EXPECT_EQ(r.kv_in_use(), taken.kv_tokens() + 30);
}

}  // namespace
}  // namespace mib::engine
