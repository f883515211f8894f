// The benchmark's own checks: the fleet output checker must reject broken
// reports, and the standalone replica replay must reproduce the fleet's
// per-replica steps and busy time on `fleet_steady`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet_bench.h"
#include "moe_bench.h"
#include "timing.h"

namespace perfbench {
namespace {

using mib::fleet::FleetReport;
using mib::fleet::FleetSimulator;
using mib::fleet::RequestStatus;

FleetReport small_steady_report() {
  const auto sc = steady_scenario(7, 4, 192);
  return FleetSimulator(sc.config).run(sc.trace);
}

TEST(Checker, AcceptsAnIntactReport) {
  const FleetReport r = small_steady_report();
  std::string why;
  EXPECT_TRUE(check_report(r, report_digest(r), &why)) << why;
}

TEST(Checker, RejectsOneFlippedStatus) {
  FleetReport r = small_steady_report();
  const auto digest = report_digest(r);
  ASSERT_EQ(r.requests[0].status, RequestStatus::kCompleted);
  r.requests[0].status = RequestStatus::kLost;
  std::string why;
  EXPECT_FALSE(check_report(r, digest, &why));
  EXPECT_NE(why.find("statuses"), std::string::npos) << why;
}

TEST(Checker, RejectsBrokenConservation) {
  FleetReport r = small_steady_report();
  const auto digest = report_digest(r);
  --r.completed;
  std::string why;
  EXPECT_FALSE(check_report(r, digest, &why));
  EXPECT_NE(why.find("conservation"), std::string::npos) << why;
}

TEST(Checker, RejectsAWrongDigest) {
  const FleetReport r = small_steady_report();
  std::string why;
  EXPECT_FALSE(check_report(r, report_digest(r) ^ 1, &why));
  EXPECT_EQ(why, "digest differs");
}

TEST(Checker, DigestSeesOneRequestTiming) {
  FleetReport r = small_steady_report();
  const auto digest = report_digest(r);
  r.requests[5].finish_s += 1e-12;
  EXPECT_NE(report_digest(r), digest);
}

TEST(Replay, MatchesTheFleetOnFleetSteady) {
  const auto sc = fleet_workload("fleet_steady", 3);
  const FleetSimulator sim(sc.config);
  const FleetReport r = sim.run(sc.trace);
  const ReplayResult rr = replay_replicas(sc, r, sim.kv_token_capacity());
  EXPECT_TRUE(replay_matches(rr, r));
  long long steps = 0;
  for (const auto& rep : r.replicas) steps += rep.steps;
  // Every step prices a decode batch, a prefill chunk or both.
  EXPECT_GE(static_cast<long long>(rr.decode_keys.size() + rr.prefill_keys.size()),
            steps);
}

TEST(Replay, MismatchIsDetected) {
  const auto sc = steady_scenario(5, 4, 192);
  const FleetSimulator sim(sc.config);
  FleetReport r = sim.run(sc.trace);
  const ReplayResult rr = replay_replicas(sc, r, sim.kv_token_capacity());
  ASSERT_TRUE(replay_matches(rr, r));
  ++r.replicas[1].steps;
  EXPECT_FALSE(replay_matches(rr, r));
}

TEST(Timing, TailKeepsTenSamplesBeyond) {
  std::vector<double> xs;
  for (int i = 1; i <= 47; ++i) xs.push_back(i);
  const Tail t = tail_percentile(xs);
  EXPECT_EQ(t.percentile, 75);  // floor(100 * 37 / 47) = 78 -> 75
  EXPECT_EQ(t.n, 47u);
  int beyond = 0;
  for (double x : xs) beyond += x > t.value;
  EXPECT_GE(beyond, 10);
}

TEST(Timing, PercentileIsNearestRank) {
  std::vector<double> xs;
  for (int i = 20; i >= 1; --i) xs.push_back(i);
  EXPECT_EQ(percentile(xs, 75), 15.0);  // sample ceil(0.75 * 20) = 15
  EXPECT_EQ(percentile(xs, 100), 20.0);
  EXPECT_EQ(percentile({7.0}, 75), 7.0);
  EXPECT_EQ(percentile({}, 75), 0.0);
}

TEST(Functional, FusedMatchesStaged) {
  mib::moe::Transformer model(functional_config(), 11);
  EXPECT_TRUE(fused_matches_staged(model.moe_layer(0), kPromptTokens, 11));
  EXPECT_TRUE(fused_matches_staged(model.moe_layer(0), 1, 11));
}

}  // namespace
}  // namespace perfbench
