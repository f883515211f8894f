// Serving contract: exact outcomes of `ServingSimulator` on a fixed matrix
// of traces and scheduler settings.
//
// Each row pins the makespan, step count, preemptions and mean running
// batch bit-for-bit (hexfloat), plus an FNV-1a digest over every request's
// (arrival, first token, finish) bit patterns. A change to admission,
// chunked-prefill budgeting, preemption or step pricing that alters any
// simulated time on these configurations fails here. On a mismatch the
// failure message prints the row as it should be pasted.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "core/scenario.h"
#include "engine/scheduler.h"
#include "models/zoo.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace mib::engine {
namespace {

EngineConfig one_h100(models::ModelConfig model) {
  EngineConfig c;
  c.model = std::move(model);
  c.cluster = hw::Cluster::h100_node(1);
  return c;
}

EngineConfig scenario(const char* model) {
  core::Scenario s;
  s.model = model;
  return s.engine_config();
}

std::vector<Request> mixed(int n, workload::LengthDistribution in,
                           workload::LengthDistribution out) {
  workload::TraceConfig tc;
  tc.n_requests = n;
  tc.input = in;
  tc.output = out;
  return workload::generate_trace(tc);
}

std::vector<Request> stamped(std::vector<Request> trace, double qps) {
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = 1;
  workload::stamp_arrivals(ac, trace);
  return trace;
}

SchedulerConfig sched(int max_batch, bool continuous = true,
                      QueuePolicy policy = QueuePolicy::kFcfs) {
  SchedulerConfig sc;
  sc.max_batch = max_batch;
  sc.continuous_batching = continuous;
  sc.policy = policy;
  return sc;
}

ServingReport serve(const EngineConfig& e, const SchedulerConfig& sc,
                    const std::vector<Request>& trace) {
  return ServingSimulator(e, sc).run(trace);
}

// bench/ablate_scheduler's table: 96 mixed requests, max_batch 64.
ServingReport ablate(bool continuous, double qps) {
  auto trace = mixed(96, {64, 2048, 1.2}, {32, 1024, 1.2});
  if (qps > 0.0) trace = stamped(std::move(trace), qps);
  return serve(scenario("OLMoE-1B-7B"), sched(64, continuous), trace);
}

ServingReport policy_backlog(QueuePolicy policy) {
  return serve(one_h100(models::olmoe_1b_7b()),
               sched(8, true, policy),
               mixed(64, {32, 2048, 1.2}, {32, 1024, 1.2}));
}

ServingReport gang_vs_continuous(const char* model, int n, bool continuous) {
  return serve(scenario(model), sched(16, continuous),
               mixed(n, {64, 1024, 1.2}, {32, 512, 1.2}));
}

ServingReport chunk_budget(int budget) {
  SchedulerConfig sc = sched(256);
  sc.prefill_tokens_per_step = budget;
  return serve(one_h100(models::olmoe_1b_7b()), sc,
               make_uniform_batch(1, 2048, 8));
}

ServingReport explicit_stamps(bool shuffled) {
  auto trace = make_uniform_batch(16, 256, 32);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // Shuffled: odd slots carry later stamps than the even slot after
    // them, so the simulator must order the queue itself.
    const double k = shuffled && i % 2 == 1 ? static_cast<double>(i) + 1.5
                                            : static_cast<double>(i);
    trace[i].arrival_s = 0.25 * k;
  }
  return serve(one_h100(models::olmoe_1b_7b()), sched(256), trace);
}

ServingReport vlm_prompts() {
  auto trace = mixed(32, {32, 1024, 1.2}, {32, 512, 1.2});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].n_images = static_cast<int>(i % 3);
  }
  return serve(one_h100(models::deepseek_vl2_tiny()), sched(16), trace);
}

ServingReport sjf_stamped() {
  return serve(one_h100(models::olmoe_1b_7b()),
               sched(256, true, QueuePolicy::kShortestFirst),
               stamped(mixed(24, {32, 2048, 1.2}, {32, 1024, 1.2}), 5.0));
}

ServingReport qwen_mixed400_20qps() {
  return serve(one_h100(models::qwen15_moe_a27b()), sched(256),
               stamped(mixed(400, {64, 2048, 1.2}, {32, 1024, 1.2}), 20.0));
}

// 400 requests at t=0, lengths uniform over the power-of-two bins.
ServingReport qwen_kv_mixed400(bool continuous) {
  return serve(one_h100(models::qwen15_moe_a27b()), sched(512, continuous),
               mixed(400, {32, 2048, 0.0}, {32, 1024, 0.0}));
}

// Requests that together need about twice the KV pool.
ServingReport qwen_uniform_kv() {
  const EngineConfig e = one_h100(models::qwen15_moe_a27b());
  const ServingSimulator sim(e, sched(512));
  const int n = static_cast<int>(2 * sim.kv_token_capacity() / 4096) + 1;
  return sim.run(make_uniform_batch(n, 2048, 2048));
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t request_digest(const ServingReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& o : r.requests) {
    h = fnv1a(h, o.arrival_s);
    h = fnv1a(h, o.first_token_s);
    h = fnv1a(h, o.finish_s);
  }
  return h;
}

struct Golden {
  const char* name;
  std::function<ServingReport()> run;
  double makespan_s;
  long long steps;
  int preemptions;
  double mean_running_batch;
  std::uint64_t digest;
};

std::string as_row(const char* name, const ServingReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", ..., %a, %lld, %d, %a, 0x%016" PRIx64
                "ull}",
                name, r.makespan_s, r.steps, r.preemptions,
                r.mean_running_batch, request_digest(r));
  return buf;
}

void check(const Golden& g) {
  const ServingReport r = g.run();
  SCOPED_TRACE(as_row(g.name, r));
  EXPECT_EQ(r.makespan_s, g.makespan_s);
  EXPECT_EQ(r.steps, g.steps);
  EXPECT_EQ(r.preemptions, g.preemptions);
  EXPECT_EQ(r.mean_running_batch, g.mean_running_batch);
  EXPECT_EQ(request_digest(r), g.digest);
}

// Configurations without KV pressure.
const Golden kMatrix[] = {
    {"ablate/gang/all-at-once", [] { return ablate(false, 0.0); },
     0x1.3cfa7f5b18ed3p+3, 2055, 0, 0x1.27f509979b581p+3,
     0x6e41e660885c24a2ull},
    {"ablate/continuous/all-at-once", [] { return ablate(true, 0.0); },
     0x1.aa8879355023bp+2, 1069, 0, 0x1.1b95ac2eeff48p+4,
     0x3193fa49be51f65eull},
    {"ablate/gang/8qps", [] { return ablate(false, 8.0); },
     0x1.2cecc495d163ep+4, 5159, 0, 0x1.cf5ed3e2d27f2p+1,
     0xfd5795fb47175b8cull},
    {"ablate/continuous/8qps", [] { return ablate(true, 8.0); },
     0x1.038298a66c532p+4, 3710, 0, 0x1.40046a8a4809fp+2,
     0xa6d4f074412aac0full},
    {"ablate/gang/32qps", [] { return ablate(false, 32.0); },
     0x1.76bfe43260c12p+3, 2673, 0, 0x1.c48676f31219ep+2,
     0x79337586de4bed91ull},
    {"ablate/continuous/32qps", [] { return ablate(true, 32.0); },
     0x1.06c7a47fb9cafp+3, 1330, 0, 0x1.be5700628ce57p+3,
     0x7cd07706e6d4a699ull},
    {"fcfs/batch8", [] { return policy_backlog(QueuePolicy::kFcfs); },
     0x1.2e3c627d39c1cp+3, 1832, 0, 0x1.c38744313011ep+2,
     0xb7247386d8f10b97ull},
    {"sjf/batch8", [] { return policy_backlog(QueuePolicy::kShortestFirst); },
     0x1.37a5e48357912p+3, 1949, 0, 0x1.a831632b36c5dp+2,
     0x00b6681965e53520ull},
    {"sjf/5qps", sjf_stamped,
     0x1.e596b307a05aap+2, 2226, 0, 0x1.ff31e97588dafp+0,
     0xf182c4b4bcc5188eull},
    {"olmoe/gang/mixed48",
     [] { return gang_vs_continuous("OLMoE-1B-7B", 48, false); },
     0x1.62c24def2ffffp+2, 1265, 0, 0x1.74aacd346a0afp+2,
     0x52f64e0471d27751ull},
    {"olmoe/continuous/mixed48",
     [] { return gang_vs_continuous("OLMoE-1B-7B", 48, true); },
     0x1.0d59a337116b3p+2, 777, 0, 0x1.2f1d52b292f1dp+3,
     0x8e2ef21bfc90a064ull},
    {"olmoe/gang/mixed32",
     [] { return gang_vs_continuous("OLMoE-1B-7B", 32, false); },
     0x1.aa77da941ea6dp+1, 752, 0, 0x1.82a3677d46cfp+2,
     0x88bb6fb858915782ull},
    {"olmoe/continuous/mixed32",
     [] { return gang_vs_continuous("OLMoE-1B-7B", 32, true); },
     0x1.73676eb456b22p+1, 605, 0, 0x1.e043b3d5af9a7p+2,
     0x9ff593b137073c64ull},
    {"qwen15/gang/mixed32",
     [] { return gang_vs_continuous("Qwen1.5-MoE-A2.7B", 32, false); },
     0x1.3d93e9886f496p+2, 752, 0, 0x1.82a3677d46cfp+2,
     0xc4eecd991c157b52ull},
    {"qwen15/continuous/mixed32",
     [] { return gang_vs_continuous("Qwen1.5-MoE-A2.7B", 32, true); },
     0x1.1c127ea384da8p+2, 605, 0, 0x1.e043b3d5af9a7p+2,
     0x5964e8a85b38d56cull},
    {"dsv2lite/gang/mixed32",
     [] { return gang_vs_continuous("DeepSeek-V2-Lite", 32, false); },
     0x1.6be7f75d10924p+2, 752, 0, 0x1.82a3677d46cfp+2,
     0x945a5a2d2cbb5fa9ull},
    {"dsv2lite/continuous/mixed32",
     [] { return gang_vs_continuous("DeepSeek-V2-Lite", 32, true); },
     0x1.4370873ef7deep+2, 605, 0, 0x1.e043b3d5af9a7p+2,
     0x391952745e300257ull},
    {"explicit-stamps", [] { return explicit_stamps(false); },
     0x1.eb75f3e8c400dp+1, 512, 0, 0x1p+0,
     0xc15862a0c92ca75dull},
    {"explicit-stamps/unsorted", [] { return explicit_stamps(true); },
     0x1.0dbaf9f462006p+2, 512, 0, 0x1p+0,
     0x0647147f66545dcfull},
    {"chunk256", [] { return chunk_budget(256); },
     0x1.3d402b27b0bfbp-4, 15, 0, 0x1p+0,
     0x90585bd592f9b4a8ull},
    {"chunk4096", [] { return chunk_budget(4096); },
     0x1.02043004ec8aep-5, 8, 0, 0x1p+0,
     0x885b6d3e4cecff60ull},
    {"vlm/deepseek-vl2-tiny", vlm_prompts,
     0x1.b7c50fc3ec852p+0, 608, 0, 0x1.e0bca1af286bdp+2,
     0xa734093de01a100cull},
    {"qwen15/continuous/mixed400@20qps",
     qwen_mixed400_20qps,
     0x1.dfe75bff350d3p+4, 2140, 0, 0x1.109fd21044e7ap+5,
     0x450139f40e68c080ull},
};

// Configurations that preempt under KV pressure on Qwen1.5-MoE's MHA KV.
// These pin the replica's discipline: the youngest sequence (latest
// arrival, then highest request id) is the victim, and the decode-growth
// check runs before the step's prefill chunks are placed.
const Golden kKvPressure[] = {
    {"qwen15/kv/uniform", qwen_uniform_kv,
     0x1.fe1785845521ap+6, 6144, 62, 0x1.8b36555555555p+5,
     0xc85f5d74f49dbf96ull},
    {"qwen15/continuous/mixed400", [] { return qwen_kv_mixed400(true); },
     0x1.d86523bf6425dp+4, 1179, 70, 0x1.3f1b936ef47dfp+7,
     0xc1cb0a1bb832d725ull},
    {"qwen15/gang/mixed400", [] { return qwen_kv_mixed400(false); },
     0x1.2811f0aa5a15dp+5, 2184, 23, 0x1.586a6ea6ea6eap+6,
     0xd15f48808a1b58e0ull},
};

TEST(ServingGolden, MatrixBitwiseIdentical) {
  for (const auto& g : kMatrix) {
    SCOPED_TRACE(g.name);
    check(g);
  }
}

TEST(ServingGolden, KvPressureBitwiseIdentical) {
  for (const auto& g : kKvPressure) {
    SCOPED_TRACE(g.name);
    check(g);
  }
}

}  // namespace
}  // namespace mib::engine
