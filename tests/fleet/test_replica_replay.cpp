// The fleet's per-replica stepping is engine::Replica and nothing else.
//
// A fault-free fleet run is replayed replica by replica: each replica's
// completed requests go through a standalone engine::Replica, driven with
// begin_step/complete_step in the fleet event loop's order (finish a step
// that ended, enqueue arrivals, start a step on an idle replica with work).
// Steps, busy time, preemptions and every request's first-token and finish
// times must match the fleet report exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/replica.h"
#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "models/zoo.h"
#include "workload/arrivals.h"

namespace mib::fleet {
namespace {

TEST(ReplicaReplay, FleetStepsMatchStandaloneReplicas) {
  FleetConfig cfg;
  cfg.engine.model = models::olmoe_1b_7b();
  cfg.engine.cluster = hw::Cluster::h100_node(1);
  cfg.n_replicas = 4;
  cfg.seed = 3;
  auto trace = as_fleet_trace(engine::make_uniform_batch(192, 256, 64));
  workload::ArrivalConfig ac;
  ac.rate_qps = 40.0;
  ac.seed = 3;
  stamp_arrivals(ac, trace);

  const FleetSimulator sim(cfg);
  const FleetReport report = sim.run(trace);
  ASSERT_EQ(report.completed, 192);
  ASSERT_EQ(report.retries, 0);

  const engine::LayerCostModel cost(cfg.engine.model, cfg.engine.cluster,
                                    cfg.engine.plan, cfg.engine.cost);
  const std::size_t pool = report.replicas.size();
  std::vector<std::vector<engine::Sequence>> work(pool);
  for (std::size_t id = 0; id < report.requests.size(); ++id) {
    const auto& rec = report.requests[id];
    engine::Sequence s;
    s.request_id = static_cast<int>(id);
    s.arrival_s = rec.arrival_s;
    s.input_tokens = rec.input_tokens;
    s.output_tokens = rec.output_tokens;
    work[static_cast<std::size_t>(rec.replica)].push_back(s);
  }

  for (std::size_t i = 0; i < pool; ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    auto& seqs = work[i];
    std::stable_sort(seqs.begin(), seqs.end(),
                     [](const engine::Sequence& a, const engine::Sequence& b) {
                       return a.arrival_s < b.arrival_s;
                     });
    engine::PriceBook book;
    engine::Replica r(&cost, &book, sim.kv_token_capacity(), cfg.replica);
    std::size_t next = 0;
    double now = 0.0;
    for (;;) {
      if (!r.mid_step() && r.has_work()) r.begin_step(now);
      if (next >= seqs.size() && !r.mid_step()) break;
      double t_next = next < seqs.size() ? seqs[next].arrival_s : HUGE_VAL;
      if (r.mid_step()) t_next = std::min(t_next, r.step_end_s());
      now = std::max(now, t_next);
      if (r.mid_step() && r.step_end_s() <= now) {
        for (const auto& done : r.complete_step()) {
          const auto& rec =
              report.requests[static_cast<std::size_t>(done.request_id)];
          EXPECT_EQ(done.first_token_s, rec.first_token_s);
          EXPECT_EQ(now, rec.finish_s);
        }
      }
      while (next < seqs.size() && seqs[next].arrival_s <= now) {
        r.enqueue(seqs[next++]);
      }
    }
    EXPECT_EQ(r.steps(), report.replicas[i].steps);
    EXPECT_EQ(r.busy_s(), report.replicas[i].busy_s);
    EXPECT_EQ(r.preemptions(), report.replicas[i].preemptions);
  }
}

}  // namespace
}  // namespace mib::fleet
