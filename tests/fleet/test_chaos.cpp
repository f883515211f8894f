// Deterministic chaos harness: randomized fault + degradation + maintenance
// schedules across many seeds, asserting the fleet's resilience invariants
// hold on every one of them.
//
// The simulator also self-checks internally (MIB_ENSURE on request
// conservation, no dispatch to an open circuit, monotonic simulation time,
// no leaked KV or queued work past the run), so merely surviving a run is
// half the assertion; the rest is re-checked here from the report.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "workload/arrivals.h"

namespace mib::fleet {
namespace {

constexpr int kChaosSeeds = 60;

/// Disjoint random windows in [0, horizon) for one replica: walk time
/// forward so overlap is impossible by construction.
template <typename Window, typename Fill>
void random_windows(Rng& rng, int replica, double horizon, int max_windows,
                    std::vector<Window>& out, Fill&& fill) {
  double t = rng.uniform(0.0, horizon * 0.3);
  const int count = static_cast<int>(rng.uniform_index(
      static_cast<std::uint64_t>(max_windows + 1)));
  for (int k = 0; k < count && t < horizon; ++k) {
    Window w;
    w.replica = replica;
    w.start_s = t;
    w.end_s = t + rng.uniform(0.05, 0.4);
    fill(w);
    out.push_back(w);
    t = w.end_s + rng.uniform(0.1, 0.6);
  }
}

/// rack0 = {replica 0, 1}, rack1 = {replica 2}, both under one zone.
TopologyConfig chaos_topology() {
  TopologyConfig tc;
  tc.domains = {DomainSpec{"zone", ""}, DomainSpec{"rack0", "zone"},
                DomainSpec{"rack1", "zone"}, DomainSpec{"n0", "rack0"},
                DomainSpec{"n1", "rack0"}, DomainSpec{"n2", "rack1"}};
  tc.replica_domain = {"n0", "n1", "n2"};
  return tc;
}

/// One randomized chaos scenario, fully determined by `seed`.
FleetConfig chaos_cfg(std::uint64_t seed) {
  Rng rng(seed);
  FleetConfig fc;
  fc.engine.model = models::olmoe_1b_7b();
  fc.engine.cluster = hw::Cluster::h100_node(1);
  fc.n_replicas = 3;
  fc.seed = seed;
  fc.replica.max_batch = 8;
  // Occasionally starve the queue — paired with aggressive hedging so the
  // hedge-shedding path is actually taken somewhere in the sweep.
  const bool tight_queue = rng.bernoulli(0.25);
  fc.admission.queue_capacity = tight_queue ? 4 : 64;
  if (rng.bernoulli(0.3)) fc.admission.deadline_s = rng.uniform(0.5, 2.0);
  fc.retry.max_retries = static_cast<int>(rng.uniform_index(4));
  fc.retry.jitter = rng.bernoulli(0.5) ? rng.uniform(0.1, 1.0) : 0.0;
  fc.health.enabled = rng.bernoulli(0.8);  // a few runs keep the oracle
  fc.hedge.enabled = tight_queue || rng.bernoulli(0.5);
  fc.hedge.delay_s = tight_queue ? rng.uniform(0.02, 0.08)
                     : rng.bernoulli(0.5) ? rng.uniform(0.05, 0.3)
                                          : 0.0;
  // A retired draw, still consumed so that every later draw (and with it
  // each seed's scenario) keeps its value.
  if (!tight_queue) rng.bernoulli(0.7);
  fc.migration.migrate_kv = rng.bernoulli(0.5);
  fc.migration.stripe_links =
      1 + static_cast<int>(rng.uniform_index(4));  // 1..4 lanes
  fc.migration.overlap_decode = rng.bernoulli(0.5);
  const double horizon = 2.0;
  // Correlated events over the rack topology, layered on the independent
  // per-replica schedules below.
  const bool topo = rng.bernoulli(0.6);
  bool rack_degraded = false;
  if (topo) {
    fc.topology = chaos_topology();
    if (rng.bernoulli(0.7)) {
      const double start = rng.uniform(0.0, horizon * 0.6);
      fc.domain_faults.push_back(
          DomainFault{rng.bernoulli(0.7) ? "rack0" : "zone", start,
                      start + rng.uniform(0.05, 0.4)});
    }
    if (rng.bernoulli(0.4)) {
      // Domain degradations reject overlap with per-replica windows, so a
      // rack-level brownout replaces rack0's independent ones this run.
      rack_degraded = true;
      DomainDegradation dd;
      dd.domain = "rack0";
      dd.start_s = rng.uniform(0.0, horizon * 0.6);
      dd.end_s = dd.start_s + rng.uniform(0.05, 0.4);
      dd.scale = PerfScale{rng.uniform(0.25, 1.0), rng.uniform(0.25, 1.0),
                           rng.uniform(0.25, 1.0)};
      fc.domain_degradations.push_back(dd);
    }
  }
  fc.warmup.enabled = rng.bernoulli(0.5);
  fc.warmup.duration_s = rng.uniform(0.1, 0.4);
  fc.warmup.initial_scale = rng.uniform(0.3, 0.8);
  fc.warmup.ramp_steps = 2 + static_cast<int>(rng.uniform_index(3));
  // Replicated front end: sometimes 2 routers, sometimes with stale views
  // and a router outage of its own.
  if (rng.bernoulli(0.5)) {
    fc.control.routers = 2;
    if (rng.bernoulli(0.6)) {
      fc.control.view_sync_interval_s = rng.uniform(0.05, 0.3);
    }
  }
  if (rng.bernoulli(0.4)) {
    const double start = rng.uniform(0.0, horizon * 0.5);
    fc.control.router_faults.push_back(RouterFaultWindow{
        static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(fc.control.routers))),
        start, start + rng.uniform(0.05, 0.3)});
  }
  for (int i = 0; i < fc.n_replicas; ++i) {
    random_windows(rng, i, horizon, 2, fc.faults, [](FaultWindow&) {});
    if (!(rack_degraded && i < 2)) {
      random_windows(rng, i, horizon, 2, fc.degradations,
                     [&](DegradationWindow& w) {
                       w.scale.flops = rng.uniform(0.25, 1.0);
                       w.scale.mem_bw = rng.uniform(0.25, 1.0);
                       w.scale.link_bw = rng.uniform(0.25, 1.0);
                     });
    }
    if (rng.bernoulli(0.4)) {
      random_windows(rng, i, horizon, 1, fc.maintenance,
                     [](MaintenanceWindow&) {});
    }
  }
  // Split-brain partitions (drawn last so the schedules above keep their
  // historical streams): with two routers, sometimes cut router 1 — and
  // sometimes replica 2 with it — off the majority for a while.
  if (fc.control.routers == 2 && rng.bernoulli(0.4)) {
    fc.control.partition.enabled = true;
    fc.control.partition.client_retry_s = rng.uniform(0.01, 0.06);
    fc.control.partition.heal = rng.bernoulli(0.5)
                                    ? HealPolicy::kFenceMinority
                                    : HealPolicy::kFirstCommitWins;
    PartitionWindow w;
    w.start_s = rng.uniform(0.0, horizon * 0.4);
    w.end_s = w.start_s + rng.uniform(0.1, 0.8);
    w.minority_routers = {1};
    if (rng.bernoulli(0.6)) w.minority_replicas = {2};
    fc.control.partition.windows.push_back(w);
    if (rng.bernoulli(0.3)) {
      PartitionWindow w2;
      w2.start_s = w.end_s + rng.uniform(0.05, 0.3);
      w2.end_s = w2.start_s + rng.uniform(0.1, 0.4);
      w2.minority_routers = {1};
      fc.control.partition.windows.push_back(w2);
    }
    // Gray-failure knobs (drawn after every PR 4 draw so those keep their
    // historical streams): asymmetric links, flapping, quorum fencing,
    // client backoff, drain-fabric severing.
    if (rng.bernoulli(0.4)) {
      auto& w0 = fc.control.partition.windows[0];
      if (rng.bernoulli(0.5)) {
        w0.open_to_minority = true;  // dispatches land, replies are lost
      } else {
        w0.open_to_majority = true;
      }
    }
    if (rng.bernoulli(0.3)) {
      auto& w0 = fc.control.partition.windows[0];
      w0.flap_period_s = rng.uniform(0.05, 0.2);
      w0.flap_duty = rng.uniform(0.3, 0.9);
    }
    if (rng.bernoulli(0.35)) {
      fc.control.partition.quorum = rng.bernoulli(0.5)
                                        ? QuorumPolicy::kFenceAtCut
                                        : QuorumPolicy::kFenceAfterGrace;
      fc.control.partition.quorum_grace_s = rng.uniform(0.0, 0.05);
    }
    if (rng.bernoulli(0.4)) {
      fc.control.partition.max_client_retries =
          2 + static_cast<int>(rng.uniform_index(3));
      fc.control.partition.retry_multiplier = rng.uniform(1.0, 2.0);
      fc.control.partition.retry_jitter =
          rng.bernoulli(0.5) ? rng.uniform(0.1, 1.0) : 0.0;
    }
    fc.control.partition.sever_drain_fabric = rng.bernoulli(0.5);
  }
  // Hedge utilization gate (also drawn last, after the partition block):
  // some runs self-disable hedging near saturation.
  if (fc.hedge.enabled && rng.bernoulli(0.3)) {
    fc.hedge.max_utilization = rng.uniform(0.5, 1.0);
  }
  return fc;
}

/// Reset every PR 5 gray-failure knob back to its PR 4 default. The forced
/// smokes pin their own failure mode and must not inherit the randomized
/// gray draws from chaos_cfg.
void clear_gray_knobs(FleetConfig& fc) {
  for (auto& w : fc.control.partition.windows) {
    w.open_to_minority = false;
    w.open_to_majority = false;
    w.flap_period_s = 0.0;
    w.flap_duty = 0.5;
  }
  fc.control.partition.quorum = QuorumPolicy::kServeStale;
  fc.control.partition.max_client_retries = 1;
  fc.control.partition.retry_multiplier = 1.0;
  fc.control.partition.retry_jitter = 0.0;
  fc.control.partition.sever_drain_fabric = false;
  fc.hedge.max_utilization = 1.0;
}

std::vector<FleetRequest> chaos_trace(std::uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEull);
  const int n = 24 + static_cast<int>(rng.uniform_index(25));
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, 192, 48));
  workload::ArrivalConfig ac;
  ac.rate_qps = rng.uniform(80.0, 300.0);
  ac.seed = seed ^ 0xA11CEull;
  stamp_arrivals(ac, trace);
  return trace;
}

void assert_invariants(const FleetConfig& cfg, const FleetReport& r) {
  // Request conservation: every submitted request lands in exactly one
  // terminal bucket.
  ASSERT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
  ASSERT_EQ(static_cast<long long>(r.requests.size()), r.submitted);
  long long completed = 0;
  for (const auto& rec : r.requests) {
    if (!rec.completed()) continue;
    ++completed;
    EXPECT_GE(rec.first_token_s, rec.arrival_s);
    EXPECT_GE(rec.finish_s, rec.first_token_s);
    EXPECT_LE(rec.finish_s, r.makespan_s + 1e-9);
    EXPECT_LE(rec.retries, cfg.retry.max_retries);
  }
  ASSERT_EQ(completed, r.completed);
  // Hedge bookkeeping: winners and cancelled losers are both bounded by
  // issued hedges, and a request can only win by hedge if it was hedged.
  EXPECT_LE(r.hedges_won, r.hedges_issued);
  EXPECT_LE(r.hedges_cancelled, r.hedges_issued);
  for (const auto& rec : r.requests) {
    if (rec.won_by_hedge) {
      EXPECT_TRUE(rec.hedged);
    }
  }
  // Circuit timeline: monotone in time, opens counted consistently, and
  // every false positive corresponds to an open while the replica was up.
  double last = 0.0;
  long long opens = 0;
  for (const auto& ev : r.circuit_events) {
    EXPECT_GE(ev.t_s, last);
    last = ev.t_s;
    if (ev.to == CircuitState::kOpen) ++opens;
  }
  EXPECT_EQ(opens, r.circuit_opens);
  EXPECT_LE(r.false_circuit_opens, r.circuit_opens);
  if (!cfg.health.enabled) {
    EXPECT_EQ(r.circuit_opens, 0);
    EXPECT_EQ(r.detection_lag_s.count(), 0u);
  }
  for (double lag : r.detection_lag_s.values()) EXPECT_GE(lag, 0.0);
  // Migration accounting only moves KV when enabled.
  if (!cfg.migration.migrate_kv) {
    EXPECT_EQ(r.migrations, 0);
  }
  EXPECT_GE(r.migrated_kv_tokens, r.migrations);  // >= 1 token each
  for (double s : r.migration_s.values()) EXPECT_GT(s, 0.0);
  if (!cfg.migration.overlap_decode) {
    EXPECT_EQ(r.overlap_decode_tokens, 0);
  }
  // Warm-up and burst accounting only exist when their features do.
  if (!cfg.warmup.enabled) {
    EXPECT_EQ(r.warmup_recoveries, 0);
  }
  EXPECT_EQ(r.suspicion_bursts > 0, r.largest_suspicion_burst >= 2);
  // Control-plane metrics collapse to zero without redundancy at play.
  // (A frozen minority view counts its dispatches as stale too, so the
  // zero-check only applies with partitions off.)
  const bool stale =
      cfg.control.routers > 1 && cfg.control.view_sync_interval_s > 0.0;
  const bool partitions = cfg.control.partition.enabled &&
                          !cfg.control.partition.windows.empty();
  if (!stale && !partitions) {
    EXPECT_EQ(r.stale_dispatches, 0);
    EXPECT_DOUBLE_EQ(r.view_disagreement_s, 0.0);
  }
  if (cfg.control.router_faults.empty()) {
    EXPECT_EQ(r.router_stranded, 0);
    for (const auto& rec : r.requests) EXPECT_FALSE(rec.router_failover);
  }
  if (!cfg.hedge.enabled) {
    EXPECT_EQ(r.hedges_shed, 0);
  }
  // Split-brain bookkeeping: flags match the counter, and everything is
  // exactly zero when no partition is configured.
  long long dup_records = 0;
  for (const auto& rec : r.requests) {
    if (rec.double_dispatched) ++dup_records;
  }
  if (cfg.control.partition.max_client_retries <= 1) {
    // A single patience attempt admits at most one duplicate per request.
    EXPECT_EQ(dup_records, r.double_dispatches);
  } else {
    // Backoff retries can re-admit after an earlier duplicate died, so
    // the request-level flag only bounds the dispatch counter.
    EXPECT_LE(dup_records, r.double_dispatches);
  }
  EXPECT_GE(r.duplicate_decode_s, 0.0);
  for (double lag : r.partition_heal_lag_s.values()) EXPECT_GE(lag, 0.0);
  if (!partitions) {
    EXPECT_EQ(r.double_dispatches, 0);
    EXPECT_DOUBLE_EQ(r.duplicate_decode_s, 0.0);
    EXPECT_EQ(r.fenced_requests, 0);
    EXPECT_EQ(r.autoscaler_conflicts, 0);
    EXPECT_TRUE(r.partition_heal_lag_s.empty());
    for (const auto& rec : r.requests) {
      EXPECT_FALSE(rec.double_dispatched);
      EXPECT_FALSE(rec.fenced);
    }
  }
  // Gray-failure bookkeeping: each meter is gated on its own knob.
  EXPECT_GE(r.lost_completion_s, 0.0);
  bool asymmetric = false;
  for (const auto& w : cfg.control.partition.windows) {
    asymmetric = asymmetric || w.open_to_minority || w.open_to_majority;
  }
  if (!partitions || !asymmetric) {
    // Orphans (and the resends they trigger) exist only on asymmetric
    // cuts: a clean cut keeps PR 4's reply semantics.
    EXPECT_EQ(r.orphaned_completions, 0);
    EXPECT_DOUBLE_EQ(r.lost_completion_s, 0.0);
    EXPECT_EQ(r.client_resends, 0);
    for (const auto& rec : r.requests) EXPECT_FALSE(rec.orphaned);
  }
  if (!partitions || cfg.control.partition.quorum == QuorumPolicy::kServeStale) {
    EXPECT_EQ(r.quorum_fenced, 0);
    for (const auto& rec : r.requests) EXPECT_FALSE(rec.quorum_rehomed);
  }
  if (!partitions) {
    EXPECT_EQ(r.partition_flaps, 0);
  }
  if (!partitions || !cfg.control.partition.sever_drain_fabric) {
    EXPECT_EQ(r.migration_aborts, 0);
  }
  if (cfg.hedge.max_utilization >= 1.0) {
    EXPECT_EQ(r.hedges_suppressed, 0);
  }
}

TEST(Chaos, InvariantsHoldAcrossRandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const auto cfg = chaos_cfg(seed);
    const auto trace = chaos_trace(seed);
    FleetReport r;
    ASSERT_NO_THROW(r = FleetSimulator(cfg).run(trace))
        << "chaos seed " << seed << " violated an internal invariant";
    assert_invariants(cfg, r);
  }
}

TEST(Chaos, EveryFeatureExercisedSomewhereInTheSweep) {
  // The sweep is only a real chaos test if the random scenarios actually
  // hit the interesting machinery: failures detected by the monitor,
  // hedges issued, KV migrated, work retried.
  long long opens = 0, hedges = 0, migrations = 0, retries = 0, lost = 0;
  long long shed = 0, overlap_tok = 0, stranded = 0, stale = 0;
  long long warmups = 0, bursts = 0, double_dispatched = 0;
  double disagreement = 0.0, duplicate_decode = 0.0;
  long long flaps = 0, q_fenced = 0;
  for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
    const auto r = FleetSimulator(chaos_cfg(seed)).run(chaos_trace(seed));
    opens += r.circuit_opens;
    hedges += r.hedges_issued;
    migrations += r.migrations;
    retries += r.retries;
    lost += r.lost;
    shed += r.hedges_shed;
    overlap_tok += r.overlap_decode_tokens;
    stranded += r.router_stranded;
    stale += r.stale_dispatches;
    warmups += r.warmup_recoveries;
    bursts += r.suspicion_bursts;
    disagreement += r.view_disagreement_s;
    double_dispatched += r.double_dispatches;
    duplicate_decode += r.duplicate_decode_s;
    flaps += r.partition_flaps;
    q_fenced += r.quorum_fenced;
  }
  EXPECT_GT(opens, 0);
  EXPECT_GT(hedges, 0);
  EXPECT_GT(migrations, 0);
  EXPECT_GT(retries, 0);
  EXPECT_GT(lost, 0);  // some seeds draw a zero retry budget
  // PR 3 machinery must be hit too: shed hedges, overlapped drains,
  // stranded requests at dead routers, stale dispatches, warm-up ramps and
  // correlated suspicion bursts.
  EXPECT_GT(shed, 0);
  EXPECT_GT(overlap_tok, 0);
  EXPECT_GT(stranded, 0);
  EXPECT_GT(stale, 0);
  EXPECT_GT(warmups, 0);
  EXPECT_GT(bursts, 0);
  EXPECT_GT(disagreement, 0.0);
  // PR 4: some seed must actually split the brain.
  EXPECT_GT(double_dispatched, 0);
  EXPECT_GT(duplicate_decode, 0.0);
  // PR 5: the gray-failure draws must hit their machinery somewhere —
  // heal edges observed by minority replicas and quorum fencing. Orphaned
  // completions need a decode to finish inside a cut on the wrong side of
  // an asymmetric link, which random geometry rarely lines up; the forced
  // FlappingPartitionSmoke below asserts that path deterministically.
  EXPECT_GT(flaps, 0);
  EXPECT_GT(q_fenced, 0);
}

TEST(Chaos, CorrelatedChaosSmoke) {
  // CI fast path: a handful of seeds with every PR 3 feature forced on at
  // once — rack topology, correlated faults, warm-up, two routers with
  // stale views and a router outage, striped overlapped drains.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("smoke seed " + std::to_string(seed));
    auto cfg = chaos_cfg(seed);
    clear_gray_knobs(cfg);
    cfg.topology = chaos_topology();
    // The burst assertion needs a clean rack-level down edge: no random
    // per-replica outage may pre-open (or suspend) a rack0 breaker first,
    // and no brownout may stretch one rack0 heartbeat ahead of the other
    // (staggered detection would split the burst).
    cfg.faults.clear();
    cfg.degradations.clear();
    cfg.domain_degradations.clear();
    cfg.maintenance.clear();
    cfg.maintenance.push_back(MaintenanceWindow{2, 1.2, 1.6});
    cfg.domain_faults.clear();
    cfg.domain_faults.push_back(DomainFault{"rack0", 0.5, 0.9});
    cfg.warmup.enabled = true;
    cfg.control.routers = 2;
    cfg.control.view_sync_interval_s = 0.15;
    cfg.control.router_faults.clear();
    cfg.control.router_faults.push_back(RouterFaultWindow{0, 0.4, 1.0});
    cfg.migration.migrate_kv = true;
    cfg.migration.stripe_links = 2;
    cfg.migration.overlap_decode = true;
    cfg.health.enabled = true;
    // Traffic must outlive the rack fault at [0.5, 0.9) or there is nothing
    // left to detect it (the randomized chaos trace can end before t=0.5).
    auto trace = as_fleet_trace(engine::make_uniform_batch(60, 192, 48));
    workload::ArrivalConfig ac;
    ac.rate_qps = 50.0;
    ac.seed = seed ^ 0xA11CEull;
    stamp_arrivals(ac, trace);
    FleetReport r;
    ASSERT_NO_THROW(r = FleetSimulator(cfg).run(trace));
    assert_invariants(cfg, r);
    EXPECT_GE(r.largest_suspicion_burst, 2);
    EXPECT_EQ(r.warmup_recoveries > 0,
              !FleetSimulator(cfg).warmup_windows().empty());
  }
}

TEST(Chaos, PartitionSmoke) {
  // CI fast path for the split-brain machinery: a few seeds with a forced
  // partition (router 1 + replica 2 cut off mid-trace), alternating heal
  // policies. Must stay cheap — it runs in the fail-first smoke step.
  long long double_dispatched = 0, fenced = 0;
  double duplicate_decode = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("partition smoke seed " + std::to_string(seed));
    auto cfg = chaos_cfg(seed);
    clear_gray_knobs(cfg);
    cfg.control.routers = 2;
    cfg.control.router_faults.clear();
    cfg.control.partition.enabled = true;
    cfg.control.partition.client_retry_s = 0.01;
    cfg.control.partition.heal = (seed % 2 == 0)
                                     ? HealPolicy::kFenceMinority
                                     : HealPolicy::kFirstCommitWins;
    PartitionWindow w;
    w.start_s = 0.05;
    // Heal mid-congestion so the fence seeds find still-racing duplicates
    // resident on the minority replica.
    w.end_s = 0.3;
    w.minority_routers = {1};
    w.minority_replicas = {2};
    cfg.control.partition.windows = {w};
    // Keep the cut itself the only failure mode in play.
    cfg.faults.clear();
    cfg.degradations.clear();
    cfg.domain_faults.clear();
    cfg.domain_degradations.clear();
    cfg.maintenance.clear();
    auto trace = as_fleet_trace(engine::make_uniform_batch(48, 192, 48));
    workload::ArrivalConfig ac;
    ac.rate_qps = 120.0;
    ac.seed = seed ^ 0xA11CEull;
    stamp_arrivals(ac, trace);
    FleetReport r;
    ASSERT_NO_THROW(r = FleetSimulator(cfg).run(trace));
    assert_invariants(cfg, r);
    double_dispatched += r.double_dispatches;
    fenced += r.fenced_requests;
    duplicate_decode += r.duplicate_decode_s;
  }
  EXPECT_GT(double_dispatched, 0);
  EXPECT_GT(duplicate_decode, 0.0);
  EXPECT_GT(fenced, 0);
}

TEST(Chaos, FlappingPartitionSmoke) {
  // CI fast path for the gray-failure machinery: a flapping asymmetric cut
  // (dispatches cross, replies are lost) with quorum fencing, multi-attempt
  // jittered client backoff and a severed drain fabric under an active
  // maintenance window. Must stay cheap — it runs in the fail-first smoke
  // step alongside PartitionSmoke.
  long long flaps = 0, orphans = 0, resends = 0, q_fenced = 0, aborts = 0;
  long long double_dispatched = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("flapping smoke seed " + std::to_string(seed));
    auto cfg = chaos_cfg(seed);
    clear_gray_knobs(cfg);
    cfg.control.routers = 2;
    cfg.control.router_faults.clear();
    cfg.control.partition.enabled = true;
    cfg.control.partition.client_retry_s = 0.01;
    cfg.control.partition.max_client_retries = 3;
    cfg.control.partition.retry_multiplier = 1.5;
    cfg.control.partition.retry_jitter = 0.5;
    cfg.control.partition.quorum = (seed % 2 == 0)
                                       ? QuorumPolicy::kFenceAfterGrace
                                       : QuorumPolicy::kFenceAtCut;
    cfg.control.partition.quorum_grace_s = 0.02;
    cfg.control.partition.sever_drain_fabric = true;
    PartitionWindow w;
    w.start_s = 0.05;
    w.end_s = 1.25;
    w.flap_period_s = 0.2;  // cut episodes [.05,.15) [.25,.35) ... [1.05,1.15)
    w.flap_duty = 0.5;
    w.minority_routers = {1};
    w.minority_replicas = {2};
    w.open_to_minority = true;  // asymmetric: requests land, replies don't
    cfg.control.partition.windows = {w};
    // Keep the flapping cut and the drain it severs the only failure
    // modes in play: the maintenance window starts inside the first cut
    // episode so the drain fabric is down when the drain wants to start,
    // but ends early enough that replica 2 serves (and orphans) decodes
    // through the later episodes.
    cfg.faults.clear();
    cfg.degradations.clear();
    cfg.domain_faults.clear();
    cfg.domain_degradations.clear();
    cfg.maintenance.clear();
    cfg.maintenance.push_back(MaintenanceWindow{2, 0.1, 0.2});
    cfg.migration.migrate_kv = true;
    auto trace = as_fleet_trace(engine::make_uniform_batch(48, 192, 48));
    workload::ArrivalConfig ac;
    ac.rate_qps = 120.0;
    ac.seed = seed ^ 0xA11CEull;
    stamp_arrivals(ac, trace);
    FleetReport r;
    ASSERT_NO_THROW(r = FleetSimulator(cfg).run(trace));
    assert_invariants(cfg, r);
    flaps += r.partition_flaps;
    orphans += r.orphaned_completions;
    resends += r.client_resends;
    q_fenced += r.quorum_fenced;
    aborts += r.migration_aborts;
    double_dispatched += r.double_dispatches;
  }
  EXPECT_GT(flaps, 0);
  EXPECT_GT(orphans, 0);
  EXPECT_GT(resends, 0);
  EXPECT_GT(q_fenced, 0);
  EXPECT_GT(aborts, 0);
  EXPECT_GT(double_dispatched, 0);
}

TEST(Chaos, DeterministicUnderChaos) {
  // Same seed, same schedule, same trace: bit-identical reports even with
  // every resilience feature active.
  for (std::uint64_t seed : {3ull, 17ull, 42ull}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const auto cfg = chaos_cfg(seed);
    const auto trace = chaos_trace(seed);
    const auto a = FleetSimulator(cfg).run(trace);
    const auto b = FleetSimulator(cfg).run(trace);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.hedges_issued, b.hedges_issued);
    EXPECT_EQ(a.circuit_opens, b.circuit_opens);
    EXPECT_EQ(a.migrations, b.migrations);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].status, b.requests[i].status);
      EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    }
    ASSERT_EQ(a.circuit_events.size(), b.circuit_events.size());
    for (std::size_t i = 0; i < a.circuit_events.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.circuit_events[i].t_s, b.circuit_events[i].t_s);
      EXPECT_EQ(a.circuit_events[i].replica, b.circuit_events[i].replica);
    }
  }
}

}  // namespace
}  // namespace mib::fleet
