// Ablation: static gang batching (the paper's measurement discipline) vs
// continuous batching (production serving) on a mixed-length trace, across
// load levels — quantifying how much the paper's static-batch numbers
// understate a production engine.
#include <iostream>

#include "common/table.h"
#include "core/report.h"
#include "core/scenario.h"
#include "engine/scheduler.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace {

/// qps = 0 submits the whole trace at t=0; otherwise arrivals are Poisson.
mib::engine::ServingReport serve(bool continuous, double qps,
                                 std::vector<mib::engine::Request> t) {
  mib::core::Scenario s;
  s.model = "OLMoE-1B-7B";
  mib::engine::SchedulerConfig sc;
  sc.continuous_batching = continuous;
  sc.max_batch = 64;
  if (qps > 0.0) {
    mib::workload::ArrivalConfig ac;
    ac.rate_qps = qps;
    ac.seed = 1;
    mib::workload::stamp_arrivals(ac, t);
  }
  return mib::engine::ServingSimulator(s.engine_config(), sc).run(t);
}

}  // namespace

int main() {
  using namespace mib;
  core::print_banner(std::cout, "ablate_scheduler");

  workload::TraceConfig tc;
  tc.n_requests = 96;
  tc.input = {64, 2048, 1.2};
  tc.output = {32, 1024, 1.2};
  const auto trace = workload::generate_trace(tc);

  Table t("OLMoE-1B-7B on one H100, 96 mixed-length requests");
  t.set_headers({"discipline", "load (qps)", "throughput (tok/s)",
                 "p50 TTFT (s)", "p95 TTFT (s)", "p95 e2e (s)",
                 "mean batch", "preemptions"});
  for (double qps : {0.0, 8.0, 32.0}) {
    for (bool cont : {false, true}) {
      const auto r = serve(cont, qps, trace);
      t.new_row()
          .cell(cont ? "continuous" : "static gang")
          .cell(qps == 0.0 ? std::string("all-at-once")
                           : format_fixed(qps, 0))
          .cell(r.throughput_tok_s, 0)
          .cell(r.ttft_s.percentile(50), 2)
          .cell(r.ttft_s.percentile(95), 2)
          .cell(r.e2e_s.percentile(95), 2)
          .cell(r.mean_running_batch, 1)
          .cell(r.preemptions);
    }
  }
  t.print(std::cout);

  std::cout << "\nReading: static gang batching drains to empty before "
               "readmitting, so short requests wait on the batch's longest "
               "member; continuous batching keeps occupancy (and therefore "
               "throughput) high and cuts tail TTFT — the gap is the "
               "production headroom the paper's static grid leaves out.\n";
  return 0;
}
