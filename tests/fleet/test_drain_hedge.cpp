// Hedges shed under admission pressure, and drain KV migration striped
// across links / overlapped with continued decode.
#include <gtest/gtest.h>

#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
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

void expect_conserved(const FleetReport& r) {
  EXPECT_EQ(r.completed + r.rejected + r.expired + r.lost, r.submitted);
}

// --- sheddable hedges ---

FleetConfig hedge_cfg() {
  auto fc = base_cfg(2);
  fc.hedge.enabled = true;
  fc.hedge.delay_s = 0.03;  // hedge aggressively so copies pile up
  fc.admission.queue_capacity = 3;
  fc.retry.max_retries = 12;
  return fc;
}

TEST(SheddableHedge, HedgesAreShedFirstUnderOverload) {
  auto fc = hedge_cfg();
  const auto r = FleetSimulator(fc).run(uniform_trace(160, 200.0));
  expect_conserved(r);
  EXPECT_GT(r.hedges_issued, 0);
  // The tiny queue forces shedding, and hedge copies absorb it: either
  // refused at issue time or cancelled to make room for a primary.
  EXPECT_GT(r.hedges_shed, 0);
  // A shed hedge never shows up as a lost/rejected *request* — the primary
  // copy still resolves it. Shedding is strictly cheaper than rejecting.
  EXPECT_GT(r.completed, 0);
}

TEST(SheddableHedge, AmpleCapacityShedsNothing) {
  auto fc = hedge_cfg();
  fc.admission.queue_capacity = 4096;
  const auto r = FleetSimulator(fc).run(uniform_trace(120, 120.0));
  expect_conserved(r);
  EXPECT_EQ(r.hedges_shed, 0);
}

// --- striped drain migration ---

FleetConfig drain_cfg(int stripe_links, bool overlap) {
  auto fc = base_cfg(3);
  fc.maintenance.push_back(MaintenanceWindow{0, 0.5, 1.5});
  fc.migration.migrate_kv = true;
  fc.migration.stripe_links = stripe_links;
  fc.migration.overlap_decode = overlap;
  fc.retry.max_retries = 12;
  return fc;
}

TEST(StripedDrain, MoreLinksShortenTheTransfer) {
  // Long prompts so the drained replica holds deep KV worth shipping.
  const auto trace = uniform_trace(90, 80.0, 1024, 96);
  const auto r1 = FleetSimulator(drain_cfg(1, false)).run(trace);
  const auto r4 = FleetSimulator(drain_cfg(4, false)).run(trace);
  expect_conserved(r1);
  expect_conserved(r4);
  ASSERT_GT(r1.migrations, 0);
  ASSERT_GT(r4.migrations, 0);
  EXPECT_EQ(r1.migrations, r4.migrations);  // same drain, same sequences
  // Four lanes move the same bytes in parallel: per-sequence transfer
  // time strictly drops (overhead term keeps it from being exactly 4x).
  EXPECT_LT(r4.migration_s.mean(), r1.migration_s.mean());
  EXPECT_EQ(r1.overlap_decode_tokens, 0);
  EXPECT_EQ(r4.overlap_decode_tokens, 0);
}

// --- overlapped drain ---

TEST(OverlapDrain, SourceKeepsDecodingWhileKvShips) {
  const auto trace = uniform_trace(90, 80.0, 1024, 96);
  const auto r = FleetSimulator(drain_cfg(1, true)).run(trace);
  expect_conserved(r);
  // Running sequences kept producing tokens on the source while their
  // snapshots were in flight; only the delta re-shipped at cutover.
  EXPECT_GT(r.migrations + r.drain_evacuations, 0);
  EXPECT_GT(r.overlap_decode_tokens, 0);
  EXPECT_GE(r.migrated_kv_tokens, r.migrations);
}

TEST(OverlapDrain, OverlapDoesNotLoseWork) {
  const auto trace = uniform_trace(90, 80.0, 1024, 96);
  const auto off = FleetSimulator(drain_cfg(1, false)).run(trace);
  const auto on = FleetSimulator(drain_cfg(1, true)).run(trace);
  expect_conserved(off);
  expect_conserved(on);
  // Same trace, same drain: overlap must not drop or duplicate requests.
  EXPECT_EQ(on.submitted, off.submitted);
  EXPECT_EQ(on.completed + on.rejected + on.expired + on.lost,
            off.completed + off.rejected + off.expired + off.lost);
}

TEST(OverlapDrain, DeterministicAcrossRuns) {
  const auto trace = uniform_trace(90, 80.0, 1024, 96);
  const auto a = FleetSimulator(drain_cfg(2, true)).run(trace);
  const auto b = FleetSimulator(drain_cfg(2, true)).run(trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.overlap_decode_tokens, b.overlap_decode_tokens);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
  }
}

TEST(StripedDrain, ConfigValidation) {
  MigrationConfig mc;
  mc.stripe_links = 0;
  EXPECT_THROW(mc.validate(), Error);
  mc.stripe_links = 1;
  EXPECT_NO_THROW(mc.validate());
}

}  // namespace
}  // namespace mib::fleet
