// Unit and end-to-end tests for the PR 2 resilience layer: degradation
// pricing, heartbeat failure detection, hedged requests, KV drain
// migration, retry jitter, fault-window validation — plus the admission
// and autoscaler configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "fleet/fleet.h"
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

std::vector<FleetRequest> uniform_trace(int n, double qps, int in_tok = 256,
                                        int out_tok = 64,
                                        std::uint64_t seed = 21) {
  auto trace = as_fleet_trace(engine::make_uniform_batch(n, in_tok, out_tok));
  workload::ArrivalConfig ac;
  ac.rate_qps = qps;
  ac.seed = seed;
  stamp_arrivals(ac, trace);
  return trace;
}

// --- admission config (the gate itself is covered end-to-end) ---

TEST(Admission, ConfigValidation) {
  EXPECT_THROW(AdmissionConfig({0, 0.0}).validate(), Error);
  EXPECT_THROW(AdmissionConfig({8, -1.0}).validate(), Error);
  EXPECT_NO_THROW(AdmissionConfig({1, 0.0}).validate());
}

// --- autoscaler config (decision logic is covered in test_slo.cpp) ---

TEST(AutoscalerConfigTest, Validation) {
  AutoscalerConfig ac;
  ac.enabled = true;
  EXPECT_NO_THROW(ac.validate());
  ac.min_replicas = 0;
  EXPECT_THROW(ac.validate(), Error);
  ac.min_replicas = 4;
  ac.max_replicas = 2;
  EXPECT_THROW(ac.validate(), Error);
  ac.max_replicas = 8;
  ac.interval_s = 0.0;
  EXPECT_THROW(ac.validate(), Error);
  ac.interval_s = 1.0;
  ac.scale_up_queue_depth = 0;
  ac.scale_down_queue_depth = 0;
  EXPECT_THROW(ac.validate(), Error);
}

TEST(AutoscalerConfigTest, DisabledSkipsValidation) {
  Autoscaler a(AutoscalerConfig{});  // defaults are valid but also disabled
  EXPECT_EQ(a.decide(1000, 1, true), 0);
}

// --- retry jitter (satellite: seeded full jitter) ---

TEST(RetryJitter, ZeroJitterKeepsTheDeterministicSchedule) {
  RetryPolicy rp;
  rp.backoff_s = 0.05;
  rp.multiplier = 2.0;
  EXPECT_DOUBLE_EQ(rp.delay(1), 0.05);
  EXPECT_DOUBLE_EQ(rp.delay(1, 12345), 0.05);  // key ignored without jitter
  EXPECT_DOUBLE_EQ(rp.delay(3), 0.2);
}

TEST(RetryJitter, JitteredDelayStaysInTheContractedRange) {
  RetryPolicy rp;
  rp.backoff_s = 0.1;
  rp.multiplier = 2.0;
  rp.jitter = 0.5;
  for (std::uint64_t key = 0; key < 200; ++key) {
    const double d = rp.delay(2, key);
    EXPECT_LE(d, 0.2);
    EXPECT_GE(d, 0.1);  // (1 - jitter) * base
  }
}

TEST(RetryJitter, DeterministicPerKeyAndSpreadAcrossKeys) {
  RetryPolicy rp;
  rp.backoff_s = 0.1;
  rp.jitter = 1.0;
  EXPECT_DOUBLE_EQ(rp.delay(1, 7), rp.delay(1, 7));
  std::set<double> distinct;
  for (std::uint64_t key = 0; key < 32; ++key) {
    distinct.insert(rp.delay(1, key));
  }
  // Full jitter must actually spread the herd, not collapse to one value.
  EXPECT_GT(distinct.size(), 24u);
}

TEST(RetryJitter, ValidationRejectsOutOfRange) {
  RetryPolicy rp;
  rp.jitter = 1.5;
  EXPECT_THROW(rp.validate(), Error);
  rp.jitter = -0.1;
  EXPECT_THROW(rp.validate(), Error);
}

// --- fault-window overlap validation (satellite) ---

TEST(FaultValidation, OverlappingWindowsSameReplicaThrow) {
  auto cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{0, 0.0, 1.0});
  cfg.faults.push_back(FaultWindow{0, 0.5, 1.5});
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(FaultValidation, DuplicateWindowsThrow) {
  auto cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{0, 0.2, 0.6});
  cfg.faults.push_back(FaultWindow{0, 0.2, 0.6});
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(FaultValidation, TouchingAndCrossReplicaWindowsAreFine) {
  auto cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{0, 0.0, 1.0});
  cfg.faults.push_back(FaultWindow{0, 1.0, 2.0});  // end == start: disjoint
  cfg.faults.push_back(FaultWindow{1, 0.5, 1.5});  // other replica
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FaultValidation, OverlapCheckAlsoGuardsDegradationAndMaintenance) {
  auto cfg = base_cfg(2);
  cfg.degradations.push_back(DegradationWindow{0, 0.0, 1.0, {0.5, 1.0, 1.0}});
  cfg.degradations.push_back(DegradationWindow{0, 0.9, 1.2, {0.7, 1.0, 1.0}});
  EXPECT_THROW(cfg.validate(), Error);
  cfg.degradations.clear();
  cfg.maintenance.push_back(MaintenanceWindow{1, 0.0, 1.0});
  cfg.maintenance.push_back(MaintenanceWindow{1, 0.5, 2.0});
  EXPECT_THROW(cfg.validate(), Error);
}

// --- degradation model ---

TEST(Degradation, ScheduleAnswersPointAndTransitionQueries) {
  DegradationSchedule sched({DegradationWindow{0, 1.0, 2.0, {0.5, 0.8, 1.0}}});
  EXPECT_FALSE(sched.at(0, 0.5).degraded());
  EXPECT_TRUE(sched.at(0, 1.0).degraded());
  EXPECT_DOUBLE_EQ(sched.at(0, 1.5).flops, 0.5);
  EXPECT_FALSE(sched.at(0, 2.0).degraded());  // half-open interval
  EXPECT_FALSE(sched.at(1, 1.5).degraded());  // other replica untouched
  using Edges = std::vector<std::pair<double, int>>;
  EXPECT_EQ(window_edges(sched.windows()), (Edges{{1.0, 0}, {2.0, 0}}));
}

TEST(Degradation, WorstPicksTheTightestResource) {
  PerfScale s{0.9, 0.4, 0.7};
  EXPECT_DOUBLE_EQ(s.worst(), 0.4);
  EXPECT_TRUE(s.degraded());
  EXPECT_FALSE((PerfScale{1.0, 1.0, 1.0}).degraded());
}

TEST(Degradation, ValidationRejectsZeroAndAboveOneScales) {
  DegradationWindow w{0, 0.0, 1.0, {0.0, 1.0, 1.0}};
  EXPECT_THROW(w.validate(), Error);
  w.scale = {1.0, 1.5, 1.0};
  EXPECT_THROW(w.validate(), Error);
  w.scale = {1.0, 1.0, 1.0};
  EXPECT_NO_THROW(w.validate());
}

TEST(Degradation, DeratedPricingStretchesSteps) {
  // A compute+bandwidth throttle must make both prefill and decode slower
  // under the pool's derated model than under the base model.
  auto cfg = base_cfg(1);
  cfg.engine.validate();
  engine::LayerCostModel base(cfg.engine.model, cfg.engine.cluster,
                              cfg.engine.plan, cfg.engine.cost);
  const DegradationWindow w{0, 0.0, 1.0, {0.25, 0.25, 0.25}};
  DegradedCostPool pool(&base, cfg.engine, {w.scale});
  const auto* derated = pool.at(w.scale);
  ASSERT_NE(derated, nullptr);
  ASSERT_NE(derated, &base);
  EXPECT_GT(derated->prefill(1, 1024).total(), base.prefill(1, 1024).total());
  EXPECT_GT(derated->decode_step(8, 512.0).total(),
            base.decode_step(8, 512.0).total());
  // Identity scale maps to the shared base model, no duplicate build.
  EXPECT_EQ(pool.at(PerfScale{}), &base);
}

TEST(Degradation, SlowReplicaFinishesLessWorkThanHealthyPeer) {
  auto cfg = base_cfg(2);
  cfg.degradations.push_back(DegradationWindow{0, 0.0, 60.0, {0.1, 0.1, 0.1}});
  const auto r =
      FleetSimulator(cfg).run(uniform_trace(64, 100.0, 256, 64, 5));
  EXPECT_EQ(r.completed, 64);
  EXPECT_LT(r.replicas[0].completed, r.replicas[1].completed);
}

// --- health monitor ---

TEST(Health, PhiGrowsWithSilenceAndResetsOnHeartbeat) {
  HealthConfig hc;
  HealthMonitor m(hc, 1);
  m.resume(0, 0.0);
  for (double t = 0.02; t <= 0.101; t += 0.02) m.on_heartbeat(0, t);
  EXPECT_LT(m.phi(0, 0.12), 1.0);
  EXPECT_GT(m.phi(0, 1.0), 3.0);
  m.on_heartbeat(0, 1.0);
  EXPECT_LT(m.phi(0, 1.01), 0.5);
}

TEST(Health, BreakerWalksClosedOpenHalfOpenClosed) {
  HealthConfig hc;
  hc.heartbeat_interval_s = 0.02;
  hc.phi_threshold = 3.0;
  hc.open_cooldown_s = 0.25;
  hc.probe_interval_s = 0.1;
  HealthMonitor m(hc, 1);
  m.resume(0, 0.0);
  m.on_heartbeat(0, 0.02);
  // Silence begins; phi crosses 3 at last_hb + 3 * ln10 * 0.02 ~ 0.158.
  const double detect = m.next_event_after(0.03);
  EXPECT_NEAR(detect, 0.02 + 3.0 * 2.302585 * 0.02, 1e-6);
  auto opened = m.advance(detect, {false});
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_EQ(m.state(0), CircuitState::kOpen);
  EXPECT_FALSE(m.routable(0));
  // Cooldown expiry -> half-open; probe fails while down.
  const double half_open = m.next_event_after(detect);
  EXPECT_NEAR(half_open, detect + 0.25, 1e-9);
  m.advance(half_open, {false});
  EXPECT_EQ(m.state(0), CircuitState::kHalfOpen);
  // First probe after recovery closes the circuit.
  const double probe = m.next_event_after(half_open);
  EXPECT_NEAR(probe, half_open + 0.1, 1e-9);
  m.advance(probe, {true});
  EXPECT_EQ(m.state(0), CircuitState::kClosed);
  EXPECT_TRUE(m.routable(0));
  // The full walk is on the event record.
  ASSERT_EQ(m.events().size(), 3u);
  EXPECT_EQ(m.events()[0].to, CircuitState::kOpen);
  EXPECT_EQ(m.events()[1].to, CircuitState::kHalfOpen);
  EXPECT_EQ(m.events()[2].to, CircuitState::kClosed);
}

TEST(Health, SuspendedReplicaNeverAccrues) {
  HealthMonitor m(HealthConfig{}, 2);
  m.resume(0, 0.0);
  // Replica 1 never resumed: suspended, no deadline, no transitions.
  EXPECT_EQ(m.state(1), CircuitState::kSuspended);
  m.advance(100.0, {false, false});
  EXPECT_EQ(m.state(1), CircuitState::kSuspended);
}

TEST(Health, DetectionLagIsMeasuredEndToEnd) {
  auto cfg = base_cfg(2);
  cfg.faults.push_back(FaultWindow{0, 0.2, 5.0});
  const auto r =
      FleetSimulator(cfg).run(uniform_trace(48, 120.0, 256, 64, 7));
  EXPECT_EQ(r.completed + r.lost, r.submitted);
  EXPECT_GE(r.circuit_opens, 1);
  ASSERT_GE(r.detection_lag_s.count(), 1u);
  // Lag is positive and bounded by a few multiples of the phi horizon.
  EXPECT_GT(r.detection_lag_s.p50(), 0.0);
  EXPECT_LT(r.detection_lag_s.p50(), 1.0);
}

TEST(Health, OracleModeReportsNoCircuitActivity) {
  auto cfg = base_cfg(2);
  cfg.health.enabled = false;
  cfg.faults.push_back(FaultWindow{0, 0.2, 5.0});
  const auto r =
      FleetSimulator(cfg).run(uniform_trace(48, 120.0, 256, 64, 7));
  EXPECT_EQ(r.circuit_opens, 0);
  EXPECT_EQ(r.detection_lag_s.count(), 0u);
  EXPECT_TRUE(r.circuit_events.empty());
}

// A brownout stretches the heartbeat emitted at its own first instant,
// whether that instant is t = 0 or a heartbeat tied with the edge.
TEST(Health, BrownoutStretchesTheHeartbeatAtItsFirstInstant) {
  const PerfScale tenth_bw{1.0, 0.1, 1.0};
  const auto trace = uniform_trace(48, 60.0, 256, 64, 7);
  auto browned_from = [&](double start) {
    auto cfg = base_cfg(2);
    cfg.degradations.push_back(DegradationWindow{1, start, 5.0, tenth_bw});
    return FleetSimulator(cfg).run(trace);
  };
  const HealthConfig hc;

  // (a) From t = 0: the first heartbeat is already due a tenth as often,
  // so replica 1's silence since t = 0 opens its breaker before any
  // heartbeat is delivered.
  {
    const auto r = browned_from(0.0);
    const auto open = std::find_if(
        r.circuit_events.begin(), r.circuit_events.end(),
        [](const CircuitEvent& e) {
          return e.replica == 1 && e.to == CircuitState::kOpen;
        });
    ASSERT_NE(open, r.circuit_events.end());
    EXPECT_EQ(open->t_s,
              hc.phi_threshold * 2.302585092994046 * hc.heartbeat_interval_s);
    EXPECT_TRUE(open->replica_was_up);
  }

  // (b) From the 20th heartbeat's instant, summed the way the loop sums
  // it: the heartbeat due there is stretched, exactly as it is by an edge
  // one ulp earlier.
  {
    double t = 0.0;
    for (int k = 0; k < 20; ++k) t = t + hc.heartbeat_interval_s;
    const auto tied = browned_from(t);
    const auto before = browned_from(std::nextafter(t, 0.0));
    EXPECT_EQ(digest(tied), digest(before));
    EXPECT_GE(tied.false_circuit_opens, 1);
  }
}

// --- hedged requests ---

TEST(Hedge, PlannerTriggerSemantics) {
  HedgeConfig hc;
  hc.enabled = false;
  EXPECT_TRUE(std::isinf(HedgePlanner(hc).trigger_delay()));
  hc.enabled = true;
  hc.delay_s = 0.3;
  EXPECT_DOUBLE_EQ(HedgePlanner(hc).trigger_delay(), 0.3);
  hc.delay_s = 0.0;
  hc.min_samples = 4;
  HedgePlanner adaptive(hc);
  EXPECT_TRUE(std::isinf(adaptive.trigger_delay()));  // not warmed up
  for (double t : {0.1, 0.2, 0.3, 0.4}) adaptive.observe_ttft(t);
  const double trig = adaptive.trigger_delay();
  EXPECT_GE(trig, 0.3);  // p95 of the sample set
  EXPECT_LE(trig, 0.4);
  // Nearest rank over the sorted samples, whatever order they came in:
  // rank floor(3 * 0.95) = 2 of {0.1, 0.2, 0.3, 0.4}.
  HedgePlanner descending(hc);
  for (double t : {0.4, 0.3, 0.2, 0.1}) descending.observe_ttft(t);
  EXPECT_EQ(descending.trigger_delay(), 0.3);

  // After every sample, the trigger is the nearest-rank element of a
  // sorted copy of all samples so far. Lognormal TTFTs rounded to a 1 ms
  // grid, so ties are common.
  hc.min_samples = 1;
  hc.min_delay_s = 1e-12;
  for (double pct : {50.0, 95.0, 99.0}) {
    hc.percentile = pct;
    HedgePlanner planner(hc);
    std::mt19937_64 rng(static_cast<std::uint64_t>(pct));
    std::lognormal_distribution<double> ttft(-3.0, 1.0);
    std::vector<double> sorted;
    for (int i = 0; i < 10000; ++i) {
      const double t = std::max(1e-3, std::round(ttft(rng) * 1e3) / 1e3);
      planner.observe_ttft(t);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), t), t);
      const auto rank = static_cast<std::size_t>(
          static_cast<double>(sorted.size() - 1) * pct / 100.0);
      EXPECT_EQ(planner.trigger_delay(), sorted[rank])
          << "p" << pct << " after " << sorted.size() << " samples";
      if (HasFailure()) return;
    }
  }
}

TEST(Hedge, ReducesTailTtftUnderAStragglerWindow) {
  // Replica 0 is browned out but never dead: the breaker cannot help, only
  // hedging can. p99 TTFT must improve, and hedge accounting must balance.
  const auto trace = uniform_trace(96, 60.0, 512, 64, 3);
  auto slow = base_cfg(3);
  slow.degradations.push_back(DegradationWindow{0, 0.2, 30.0, {0.05, 0.05, 0.05}});
  const auto off = FleetSimulator(slow).run(trace);
  slow.hedge.enabled = true;
  slow.hedge.delay_s = 0.1;
  const auto on = FleetSimulator(slow).run(trace);
  EXPECT_EQ(on.completed, on.submitted);
  EXPECT_GT(on.hedges_issued, 0);
  EXPECT_LT(on.ttft_s.p99(), off.ttft_s.p99());
  EXPECT_LE(on.hedges_won, on.hedges_issued);
  // Every issued hedge resolves as a win or a cancelled loser; flags match.
  long long hedged = 0, won = 0;
  for (const auto& rec : on.requests) {
    hedged += rec.hedged ? 1 : 0;
    won += rec.won_by_hedge ? 1 : 0;
  }
  EXPECT_EQ(hedged, on.hedges_issued);
  EXPECT_EQ(won, on.hedges_won);
}

TEST(Hedge, NeverIssuedOnAHealthyUnderloadedFleet) {
  auto cfg = base_cfg(2);
  cfg.hedge.enabled = true;
  cfg.hedge.delay_s = 5.0;  // far beyond any TTFT on a healthy fleet
  const auto r = FleetSimulator(cfg).run(uniform_trace(48, 20.0));
  EXPECT_EQ(r.hedges_issued, 0);
  EXPECT_EQ(r.completed, r.submitted);
}

// --- graceful drain / KV migration ---

TEST(Migration, DrainMovesKvAndBeatsRecomputeOnDeepContexts) {
  const auto trace = uniform_trace(48, 40.0, 4096, 128, 11);
  auto cfg = base_cfg(2);
  cfg.maintenance.push_back(MaintenanceWindow{0, 1.0, 8.0});
  cfg.migration.migrate_kv = true;
  const auto mig = FleetSimulator(cfg).run(trace);
  cfg.migration.migrate_kv = false;
  const auto rec = FleetSimulator(cfg).run(trace);
  EXPECT_EQ(mig.completed, mig.submitted);
  EXPECT_EQ(rec.completed, rec.submitted);
  EXPECT_GT(mig.migrations, 0);
  EXPECT_GT(mig.migrated_kv_tokens, 0);
  EXPECT_EQ(rec.migrations, 0);
  EXPECT_GT(rec.drain_evacuations, 0);
  // Deep contexts: shipping KV beats redoing prefill + decode progress.
  EXPECT_LT(mig.makespan_s, rec.makespan_s);
  bool any_migrated_flag = false;
  for (const auto& rr : mig.requests) any_migrated_flag |= rr.migrated;
  EXPECT_TRUE(any_migrated_flag);
}

TEST(Migration, ReplicaReturnsToServiceAfterTheWindow) {
  auto cfg = base_cfg(2);
  cfg.maintenance.push_back(MaintenanceWindow{0, 0.5, 1.0});
  const auto r = FleetSimulator(cfg).run(uniform_trace(96, 30.0, 256, 64, 13));
  EXPECT_EQ(r.completed, r.submitted);
  // Replica 0 worked both before and after maintenance: it completed more
  // than zero requests despite the drain.
  EXPECT_GT(r.replicas[0].completed, 0);
}

TEST(Migration, ConfigValidation) {
  MigrationConfig mc;
  mc.link.bandwidth = 0.0;
  EXPECT_THROW(mc.validate(), Error);
  mc = MigrationConfig{};
  mc.per_sequence_overhead_s = -1.0;
  EXPECT_THROW(mc.validate(), Error);
}

// --- determinism regression with every new feature active ---

TEST(Resilience, DeterministicWithAllFeaturesActive) {
  auto cfg = base_cfg(3);
  cfg.faults.push_back(FaultWindow{1, 0.5, 1.2});
  cfg.degradations.push_back(DegradationWindow{0, 0.3, 2.0, {0.4, 0.6, 0.8}});
  cfg.maintenance.push_back(MaintenanceWindow{2, 1.0, 2.5});
  cfg.hedge.enabled = true;
  cfg.hedge.delay_s = 0.15;
  cfg.retry.jitter = 1.0;
  const auto trace = uniform_trace(96, 80.0, 512, 96, 17);
  const auto a = FleetSimulator(cfg).run(trace);
  const auto b = FleetSimulator(cfg).run(trace);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.circuit_opens, b.circuit_opens);
  ASSERT_EQ(a.ttft_s.values(), b.ttft_s.values());
  ASSERT_EQ(a.e2e_s.values(), b.e2e_s.values());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].status, b.requests[i].status);
    EXPECT_DOUBLE_EQ(a.requests[i].first_token_s, b.requests[i].first_token_s);
    EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
    EXPECT_EQ(a.requests[i].hedged, b.requests[i].hedged);
    EXPECT_EQ(a.requests[i].migrated, b.requests[i].migrated);
  }
}

// --- hardware derating primitives ---

TEST(Derate, DeviceAndLinkScalesApplyWhereExpected) {
  const auto h100 = hw::h100_sxm5();
  const auto d = h100.derate(0.5, 0.25);
  EXPECT_DOUBLE_EQ(d.peak_flops_16, h100.peak_flops_16 * 0.5);
  EXPECT_DOUBLE_EQ(d.mem_bw, h100.mem_bw * 0.25);
  EXPECT_DOUBLE_EQ(d.mem_bytes, h100.mem_bytes);  // capacity untouched
  const auto link = hw::nvlink4().derate(0.5);
  EXPECT_DOUBLE_EQ(link.bandwidth, hw::nvlink4().bandwidth * 0.5);
  EXPECT_DOUBLE_EQ(link.latency, hw::nvlink4().latency);
}

}  // namespace
}  // namespace mib::fleet
