#include "fleet_bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_map>

#include "engine/layer_cost.h"
#include "fleet/health.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "moe_bench.h"
#include "reference.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace perfbench {

using namespace mib;
using fleet::FleetReport;
using fleet::FleetSimulator;

namespace {

constexpr int kSteadyReplicas = 64;
// `fleet_steady_r16` keeps the per-replica load and the request count:
// 192 requests per replica, ~19 s of arrivals.
constexpr int kSteadyR16Replicas = 16;
// 48 requests per replica at R=64, ~4.8 s of arrivals.
constexpr int kSteadyRequests = 3072;
constexpr int kChaosReplicas = 8;
// 800 conversations x 4 turns = 3200 requests. 130 qps sits at the knee of
// the 8-replica fleet: queues build (the drain outlasts the arrivals by a
// few seconds) and most seeds preempt under KV pressure.
constexpr int kChaosConversations = 800;
constexpr double kChaosRateQps = 130.0;

fleet::FleetConfig one_h100_fleet(models::ModelConfig model, int replicas,
                                  std::uint64_t seed) {
  fleet::FleetConfig c;
  c.engine.model = std::move(model);
  c.engine.cluster = hw::Cluster::h100_node(1);
  c.n_replicas = replicas;
  c.seed = seed;
  return c;
}

}  // namespace

FleetScenario steady_scenario(std::uint64_t seed, int replicas, int requests) {
  FleetScenario s;
  s.config = one_h100_fleet(models::olmoe_1b_7b(), replicas, seed);
  auto reqs = engine::make_uniform_batch(requests, 256, 64);
  workload::ArrivalConfig arrivals;
  arrivals.rate_qps = 10.0 * replicas;
  arrivals.seed = seed;
  workload::stamp_arrivals(arrivals, reqs);
  s.trace = fleet::as_fleet_trace(reqs);
  return s;
}

FleetScenario chaos_scenario(std::uint64_t seed) {
  FleetScenario s;
  auto& c = s.config;
  // Qwen3-30B-A3B nearly fills an H100 with weights, so its KV cache
  // (~164k tokens) is what a 256-sequence batch of long histories exhausts.
  c = one_h100_fleet(models::qwen3_30b_a3b(), kChaosReplicas, seed);
  c.replica.max_batch = 256;
  c.policy = fleet::RoutePolicy::kPrefixAffinity;

  workload::ConversationConfig conv;
  conv.n_conversations = kChaosConversations;
  conv.turns_per_conversation = 4;
  conv.system_prompt_tokens = 512;
  conv.user_turn = {32, 1024, 1.0};
  conv.seed = seed;
  s.trace = fleet::as_fleet_trace(workload::generate_conversations(conv));
  workload::ArrivalConfig arrivals;
  arrivals.rate_qps = kChaosRateQps;
  arrivals.seed = seed ^ 0x5eedULL;
  fleet::stamp_arrivals(arrivals, s.trace);
  // Every window sits at a fraction of the arrival span so it fires under
  // traffic whatever the rate.
  const double span = s.trace.back().request.arrival_s;
  auto at = [span](double f) { return f * span; };

  // rack0 = replicas 0-3, rack1 = replicas 4-7, one zone.
  c.topology.domains = {{"zone", ""}, {"rack0", "zone"}, {"rack1", "zone"}};
  for (int i = 0; i < kChaosReplicas; ++i) {
    std::string node = "n";
    node += std::to_string(i);
    c.topology.domains.push_back({node, i < 4 ? "rack0" : "rack1"});
    c.topology.replica_domain.push_back(node);
  }
  c.domain_faults.push_back({"rack1", at(0.20), at(0.26)});
  fleet::DomainDegradation rack_brownout;
  rack_brownout.domain = "rack1";
  rack_brownout.start_s = at(0.45);
  rack_brownout.end_s = at(0.60);
  rack_brownout.scale = {0.6, 0.5, 0.7};
  c.domain_degradations.push_back(rack_brownout);
  // Staggered per-replica brownouts on rack0 (domain brownouts may not
  // overlap per-replica ones, so rack1 has only the rack-wide window).
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 3; ++k) {
      fleet::DegradationWindow w;
      w.replica = r;
      w.start_s = at(0.08 + 0.27 * k + 0.04 * r);
      w.end_s = w.start_s + at(0.06);
      w.scale = {0.5 + 0.1 * r, 0.4 + 0.1 * k, 0.8};
      c.degradations.push_back(w);
    }
  }
  c.warmup.enabled = true;
  c.maintenance.push_back({5, at(0.66), at(0.74)});
  c.migration.migrate_kv = true;
  c.migration.stripe_links = 2;
  c.migration.overlap_decode = true;
  c.retry.jitter = 0.5;
  c.control.routers = 3;
  c.control.view_sync_interval_s = 0.05;
  c.hedge.enabled = true;  // adaptive: p95 of observed TTFT
  c.control.partition.enabled = true;
  fleet::PartitionWindow cut;
  cut.start_s = at(0.80);
  cut.end_s = at(0.86);
  cut.minority_routers = {2};
  cut.minority_replicas = {7};
  c.control.partition.windows.push_back(cut);
  return s;
}

FleetScenario fleet_workload(const std::string& workload, std::uint64_t seed) {
  if (workload == "fleet_steady") {
    return steady_scenario(seed, kSteadyReplicas, kSteadyRequests);
  }
  if (workload == "fleet_steady_r16") {
    return steady_scenario(seed, kSteadyR16Replicas, kSteadyRequests);
  }
  MIB_ENSURE(workload == "fleet_chaos", "unknown fleet workload " << workload);
  return chaos_scenario(seed);
}

std::uint64_t reference_digest(const std::string& workload) {
  if (workload == "fleet_steady") return kSteadyDigest;
  if (workload == "fleet_steady_r16") return kSteadyR16Digest;
  MIB_ENSURE(workload == "fleet_chaos", "unknown fleet workload " << workload);
  return kChaosDigest;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void i(long long v) { bytes(&v, sizeof v); }
  void d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
};

}  // namespace

std::uint64_t report_digest(const FleetReport& r) {
  Fnv f;
  for (long long v :
       {r.submitted, r.completed, r.rejected, r.expired, r.lost, r.retries,
        r.prefix_lookups, r.prefix_hits, r.hedges_issued, r.hedges_won,
        r.hedges_cancelled, r.circuit_opens, r.false_circuit_opens,
        r.hedges_shed, r.migrations, r.migrated_kv_tokens,
        r.drain_evacuations, r.overlap_decode_tokens, r.router_stranded,
        r.stale_dispatches, r.double_dispatches, r.fenced_requests,
        r.autoscaler_conflicts, r.orphaned_completions, r.client_resends,
        r.quorum_fenced, r.partition_flaps, r.migration_aborts,
        r.hedges_suppressed}) {
    f.i(v);
  }
  f.i(r.warmup_recoveries);
  f.i(r.suspicion_bursts);
  f.i(r.largest_suspicion_burst);
  f.i(r.replicas_used);
  for (double v : {r.makespan_s, r.view_disagreement_s, r.duplicate_decode_s,
                   r.lost_completion_s}) {
    f.d(v);
  }
  for (const auto& rr : r.replicas) {
    f.i(rr.completed);
    f.i(rr.steps);
    f.i(rr.preemptions);
    f.d(rr.busy_s);
  }
  for (const auto& q : r.requests) {
    f.i(static_cast<long long>(q.status));
    f.d(q.arrival_s);
    f.d(q.first_token_s);
    f.d(q.finish_s);
    f.i(q.replica);
    f.i(q.retries);
    f.i((q.prefix_hit ? 1 : 0) | (q.hedged ? 2 : 0) | (q.won_by_hedge ? 4 : 0) |
        (q.migrated ? 8 : 0) | (q.router_failover ? 16 : 0) |
        (q.double_dispatched ? 32 : 0) | (q.fenced ? 64 : 0) |
        (q.orphaned ? 128 : 0) | (q.quorum_rehomed ? 256 : 0));
  }
  return f.h;
}

bool check_report(const FleetReport& r, std::uint64_t expected_digest,
                  std::string* why) {
  auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (r.completed + r.rejected + r.expired + r.lost != r.submitted) {
    return fail("conservation: completed + rejected + expired + lost != submitted");
  }
  if (static_cast<long long>(r.requests.size()) != r.submitted) {
    return fail("one record per submitted request");
  }
  long long by_status[4] = {0, 0, 0, 0};
  for (const auto& q : r.requests) ++by_status[static_cast<int>(q.status)];
  using fleet::RequestStatus;
  if (by_status[static_cast<int>(RequestStatus::kCompleted)] != r.completed ||
      by_status[static_cast<int>(RequestStatus::kRejected)] != r.rejected ||
      by_status[static_cast<int>(RequestStatus::kExpired)] != r.expired ||
      by_status[static_cast<int>(RequestStatus::kLost)] != r.lost) {
    return fail("request statuses disagree with the report counters");
  }
  if (report_digest(r) != expected_digest) return fail("digest differs");
  return true;
}

ReplayResult replay_replicas(const FleetScenario& sc, const FleetReport& report,
                             long long kv_capacity_tokens, SpanRecorder* spans) {
  const auto& cfg = sc.config;
  const engine::LayerCostModel cost(cfg.engine.model, cfg.engine.cluster,
                                    cfg.engine.plan, cfg.engine.cost);
  const std::size_t pool = report.replicas.size();
  std::vector<std::vector<fleet::Sequence>> work(pool);
  for (std::size_t id = 0; id < report.requests.size(); ++id) {
    const auto& rec = report.requests[id];
    if (!rec.completed() || rec.replica < 0) continue;
    fleet::Sequence s;
    s.request_id = static_cast<int>(id);
    s.arrival_s = rec.arrival_s;
    s.input_tokens = rec.input_tokens;
    s.output_tokens = rec.output_tokens;
    s.prefix_hash = sc.trace[id].prefix_hash;
    s.prefix_tokens = std::min(sc.trace[id].prefix_tokens, s.input_tokens - 1);
    work[static_cast<std::size_t>(rec.replica)].push_back(s);
  }
  for (auto& w : work) {
    std::stable_sort(w.begin(), w.end(), [](const auto& a, const auto& b) {
      return a.arrival_s < b.arrival_s;
    });
  }

  ReplayResult out;
  out.steps.assign(pool, 0);
  out.busy_s.assign(pool, 0.0);
  // The fleet loop's per-replica discipline: at each event time, finish a
  // step that ended, enqueue arrivals, then start a step on an idle replica
  // with work. `record` reads each step's pricing keys back from the
  // running batch; the timed pass skips that bookkeeping.
  auto replay_one = [&](std::size_t i, bool record) {
    fleet::Replica r(&cost, kv_capacity_tokens, cfg.replica);
    const auto& seqs = work[i];
    std::size_t next = 0;
    double now = 0.0;
    struct Before {
      int prefilled;
      bool done;
    };
    std::unordered_map<int, Before> before;
    for (;;) {
      if (!r.mid_step() && r.has_work()) {
        if (!record) {
          r.begin_step(now);
        } else {
          before.clear();
          for (const auto& s : r.running()) {
            before[s.request_id] = {s.prefilled, s.prefill_done()};
          }
          const double busy_before = r.busy_s();
          r.begin_step(now);
          int batch = 0;
          double ctx_sum = 0.0;
          int prefill = 0;
          for (const auto& s : r.running()) {
            const auto it = before.find(s.request_id);
            if (it != before.end() && it->second.done) {
              ++batch;
              ctx_sum += static_cast<double>(s.kv_tokens());
              continue;
            }
            const int start =
                it != before.end() ? it->second.prefilled
                : s.prefix_hit     ? std::min(s.prefix_tokens, s.input_tokens - 1)
                                   : 0;
            prefill += s.prefilled - start;
          }
          // Re-price exactly as Replica::begin_step does.
          double step = 0.0;
          if (batch > 0) {
            const double ctx = std::max(1.0, ctx_sum / static_cast<double>(batch));
            step += cost.decode_step(batch, ctx).total();
            out.decode_keys.push_back({batch, ctx});
          }
          if (prefill > 0) {
            const auto pf = cost.prefill(1, prefill);
            step += pf.total() - pf.head - pf.overhead;
            if (batch == 0) step += pf.head + pf.overhead;
            out.prefill_keys.push_back(prefill);
          }
          if (busy_before + step != r.busy_s()) ++out.repriced_mismatches;
        }
      }
      if (next >= seqs.size() && !r.mid_step()) break;
      double t_next = next < seqs.size() ? seqs[next].arrival_s : HUGE_VAL;
      if (r.mid_step()) t_next = std::min(t_next, r.step_end_s());
      now = std::max(now, t_next);
      if (r.mid_step() && r.step_end_s() <= now) r.complete_step();
      while (next < seqs.size() && seqs[next].arrival_s <= now) {
        r.enqueue(seqs[next++]);
      }
    }
    out.steps[i] = r.steps();
    out.busy_s[i] = r.busy_s();
  };

  const double t0 = now_s();
  {
    ScopedSpan all(spans, "replay");
    for (std::size_t i = 0; i < pool; ++i) {
      ScopedSpan one(spans, "fleet::Replica::begin_step/complete_step");
      replay_one(i, false);
    }
  }
  out.wall_s = now_s() - t0;
  for (std::size_t i = 0; i < pool; ++i) replay_one(i, true);
  return out;
}

bool replay_matches(const ReplayResult& replay, const FleetReport& report) {
  if (replay.repriced_mismatches != 0 ||
      replay.steps.size() != report.replicas.size()) {
    return false;
  }
  for (std::size_t i = 0; i < report.replicas.size(); ++i) {
    if (replay.steps[i] != report.replicas[i].steps ||
        replay.busy_s[i] != report.replicas[i].busy_s) {
      return false;
    }
  }
  return true;
}

namespace {

/// Traces per run. Ops cycle through them, so no single trace's dynamics
/// at the saturation knee set the level of a whole run.
constexpr int kTracesPerRun = 4;

struct FleetCase {
  FleetScenario scenario;
  std::unique_ptr<FleetSimulator> sim;
  std::uint64_t digest = 0;  ///< of the warm-up op
};

/// One trace's set-up: generate its inputs and construct its simulator.
FleetCase set_up(const std::string& workload, std::uint64_t seed) {
  FleetCase c;
  c.scenario = fleet_workload(workload, seed);
  c.sim = std::make_unique<FleetSimulator>(c.scenario.config);
  return c;
}

/// The discarded warm-up op on one trace. Its digest becomes the in-run
/// reference every timed op on the trace must reproduce.
bool warm_up(FleetCase& c) {
  return guarded([&] {
    const FleetReport r = c.sim->run(c.scenario.trace);
    c.digest = report_digest(r);
    return check_report(r, c.digest);
  });
}

long long total_steps(const FleetReport& r) {
  long long n = 0;
  for (const auto& rr : r.replicas) n += rr.steps;
  return n;
}

/// Health monitor cost at pool R: heartbeats at the configured interval,
/// one advance + next_event_after pair per simulated event.
double health_ns_per_call(const fleet::HealthConfig& hc, int pool) {
  fleet::HealthMonitor mon(hc, pool);
  for (int i = 0; i < pool; ++i) mon.resume(i, 0.0);
  const std::vector<bool> up(static_cast<std::size_t>(pool), true);
  std::vector<double> next_hb(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    next_hb[static_cast<std::size_t>(i)] =
        hc.heartbeat_interval_s * (1.0 + static_cast<double>(i) / pool);
  }
  const double dt = hc.heartbeat_interval_s / 16.0;
  double t = 0.0;
  double sink = 0.0;
  long long calls = 0;
  double spent = 0.0;
  const double start = now_s();
  while (calls < 20000 || now_s() - start < 0.5) {
    t += dt;
    for (int i = 0; i < pool; ++i) {
      auto& hb = next_hb[static_cast<std::size_t>(i)];
      while (hb <= t) {
        mon.on_heartbeat(i, hb);
        hb += hc.heartbeat_interval_s;
      }
    }
    const double t0 = now_s();
    sink += static_cast<double>(mon.advance(t, up).size());
    sink += mon.next_event_after(t);
    spent += now_s() - t0;
    ++calls;
  }
  keep(sink);
  return spent / static_cast<double>(calls) * 1e9;
}

/// Per-call cost of the schedule lookups the event loop makes, over the
/// simulator's expanded fault, degradation and warm-up schedules.
double schedule_ns_per_call(const FleetSimulator& sim, double span, int pool) {
  const fleet::FaultSchedule faults(sim.expanded_faults());
  const fleet::DegradationSchedule degr(sim.expanded_degradations());
  const fleet::DegradationSchedule warm(sim.warmup_windows());
  constexpr int kTimes = 512;
  double sink = 0.0;
  const double per_grid = seconds_per_call(
      [&] {
        for (int k = 0; k < kTimes; ++k) {
          const double t = span * (k + 0.5) / kTimes;
          for (int i = 0; i < pool; ++i) {
            sink += faults.up(i, t) ? 1.0 : 0.0;
            sink += degr.at(i, t).flops;
            sink += warm.at(i, t).mem_bw;
          }
        }
      },
      0.3);
  keep(sink);
  return per_grid / (3.0 * kTimes * pool) * 1e9;
}

}  // namespace

ReplayResult add_fleet_layers(Result& out, const FleetScenario& sc,
                              const FleetSimulator& sim,
                              const FleetReport& report, double op_s,
                              SpanRecorder* spans) {
  const int pool = sim.pool_size();
  out.add("fleet.steps_per_s", static_cast<double>(total_steps(report)) / op_s,
          "1/s");
  {
    // Steps/s at R=64 over R=4 at equal per-replica load (48 requests per
    // replica at 10 qps each).
    ScopedSpan span(spans, "probe.fleet_scaling");
    auto steps_per_s = [&](int replicas, int runs) {
      const auto s = steady_scenario(sc.config.seed, replicas, 48 * replicas);
      const FleetSimulator f(s.config);
      std::vector<double> wall;
      long long steps = 0;
      for (int k = 0; k < runs; ++k) {
        ScopedSpan run(spans, "FleetSimulator::run");
        const double t0 = now_s();
        steps = total_steps(f.run(s.trace));
        wall.push_back(now_s() - t0);
      }
      return static_cast<double>(steps) / median(wall);
    };
    out.add("fleet.scaling_r64_over_r4", steps_per_s(64, 5) / steps_per_s(4, 41),
            "ratio");
  }
  {
    ScopedSpan span(spans, "probe.HealthMonitor::advance+next_event_after");
    out.add("fleet.health_ns_per_call",
            health_ns_per_call(sc.config.health, pool), "ns");
  }

  std::vector<double> replay_wall;
  ReplayResult replay;
  for (int k = 0; k < 3; ++k) {
    replay = replay_replicas(sc, report, sim.kv_token_capacity(), spans);
    replay_wall.push_back(replay.wall_s);
  }
  out.add("fleet.replica_replay_share", median(replay_wall) / op_s, "ratio");

  {
    ScopedSpan span(spans, "probe.LayerCostModel");
    const auto& e = sc.config.engine;
    const engine::LayerCostModel cost(e.model, e.cluster, e.plan, e.cost);
    double sink = 0.0;
    const double decode_pass = seconds_per_call(
        [&] {
          for (const auto& k : replay.decode_keys) {
            sink += cost.decode_step(k.batch, k.ctx).total();
          }
        },
        0.4, 3);
    const double prefill_pass = seconds_per_call(
        [&] {
          for (int n : replay.prefill_keys) sink += cost.prefill(1, n).total();
        },
        0.2, 3);
    const auto n_decode = static_cast<double>(std::max<std::size_t>(1, replay.decode_keys.size()));
    const auto n_prefill = static_cast<double>(std::max<std::size_t>(1, replay.prefill_keys.size()));
    out.add("engine.decode_step_ns", decode_pass / n_decode * 1e9, "ns");
    out.add("engine.prefill_ns", prefill_pass / n_prefill * 1e9, "ns");
    keep(sink);
    out.add("engine.pricing_share", (decode_pass + prefill_pass) / op_s, "ratio");
    const std::set<DecodeKey> distinct(replay.decode_keys.begin(),
                                       replay.decode_keys.end());
    out.add("engine.decode_key_reuse",
            n_decode / static_cast<double>(std::max<std::size_t>(1, distinct.size())),
            "ratio");
  }
  {
    ScopedSpan span(spans, "probe.FaultSchedule::up+DegradationSchedule::at");
    out.add("fleet.schedule_ns_per_call",
            schedule_ns_per_call(sim, sc.trace.back().request.arrival_s, pool),
            "ns");
  }
  long long preemptions = 0;
  for (const auto& rr : report.replicas) preemptions += rr.preemptions;
  out.add("fleet.steps", static_cast<double>(total_steps(report)), "count");
  out.add("fleet.preemptions", static_cast<double>(preemptions), "count");
  out.add("fleet.retries", static_cast<double>(report.retries), "count");
  out.add("fleet.prefix_hit_rate", report.prefix_hit_rate(), "ratio");
  out.add("fleet.hedge_win_frac",
          report.hedges_issued > 0
              ? static_cast<double>(report.hedges_won) /
                    static_cast<double>(report.hedges_issued)
              : 0.0,
          "ratio");
  out.add("fleet.duplicate_decode_s", report.duplicate_decode_s, "s");
  return replay;
}

void add_fleet_layers(Result& out, std::uint64_t seed, SpanRecorder* spans) {
  const FleetCase c = set_up("fleet_steady", seed);
  std::vector<double> wall;
  FleetReport last;
  for (int k = 0; k < 5; ++k) {
    ScopedSpan r(spans, "FleetSimulator::run");
    const double t0 = now_s();
    last = c.sim->run(c.scenario.trace);
    wall.push_back(now_s() - t0);
  }
  add_fleet_layers(out, c.scenario, *c.sim, last, median(wall), spans);
}

Result run_fleet(const std::string& workload, const RunOptions& opts) {
  Result out;
  // Set-up generates every trace of the run and constructs one simulator
  // per trace. It takes milliseconds, so untraced runs repeat it on
  // throwaway copies after every timed op: `setup_s`, their median, then
  // samples the same host periods as the ops.
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const double t0 = now_s();
    std::vector<FleetCase> cs;
    for (int j = 0; j < kTracesPerRun; ++j) {
      cs.push_back(set_up(workload, opts.seed * kTracesPerRun + j));
    }
    setup_s.push_back(now_s() - t0);
    return cs;
  };
  std::vector<FleetCase> cases = timed_set_up();
  for (auto& c : cases) out.check(warm_up(c));
  // Every trace of a workload has the same number of requests.
  const double units = static_cast<double>(cases[0].scenario.trace.size());
  std::size_t next = 0;
  auto op = [&] {
    const FleetCase& c = cases[next++ % cases.size()];
    return check_report(c.sim->run(c.scenario.trace), c.digest);
  };

  if (!opts.trace) {
    const OpTimes ops =
        time_ops(opts.seconds, 20, op, [&] { timed_set_up(); });
    add_end_to_end(out, setup_s, ops, units);
  } else {
    // Alternate untraced and traced ops on the same trace so drift hits
    // both alike; the spans wrap the public call only. The layer probes
    // read the first trace.
    SpanRecorder spans;
    std::vector<double> plain, traced, plain_first;
    FleetReport first_report;
    const double start = now_s();
    while (plain.size() < 12 || now_s() - start < opts.seconds) {
      const std::size_t j = next % cases.size();
      const FleetCase& c = cases[j];
      double t0 = now_s();
      out.check(guarded(op));
      plain.push_back(now_s() - t0);
      if (j == 0) plain_first.push_back(plain.back());
      t0 = now_s();
      FleetReport report;
      const bool ok = guarded([&] {
        ScopedSpan o(&spans, "op");
        ScopedSpan r(&spans, "FleetSimulator::run");
        report = c.sim->run(c.scenario.trace);
        return check_report(report, c.digest);
      });
      traced.push_back(now_s() - t0);
      out.check(ok);
      if (j == 0) first_report = std::move(report);
    }
    out.add("trace.overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
    const FleetCase& c = cases[0];
    const ReplayResult replay = add_fleet_layers(
        out, c.scenario, *c.sim, first_report, median(plain_first), &spans);
    if (workload != "fleet_chaos") {
      // The standalone replay reproduces every replica's steps and busy
      // time bit for bit when nothing but arrivals drives the fleet.
      out.check(replay_matches(replay, first_report));
    }
    add_moe_layers(out, opts.seed, &spans);
    if (!opts.trace_out.empty()) out.check(spans.write_json(opts.trace_out));
  }

  // Simulated stats must stay bit-identical to the committed reference.
  out.check(guarded([&] {
    const auto canon = fleet_workload(workload, kCanonicalSeed);
    const FleetSimulator sim(canon.config);
    return check_report(sim.run(canon.trace), reference_digest(workload));
  }));
  return out;
}

}  // namespace perfbench
