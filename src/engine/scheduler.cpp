#include "engine/scheduler.h"

#include <algorithm>

#include "common/error.h"

namespace mib::engine {

ServingSimulator::ServingSimulator(EngineConfig engine, SchedulerConfig sched)
    : cfg_(std::move(engine)),
      sched_(sched),
      cost_(cfg_.model, cfg_.cluster, cfg_.plan, cfg_.cost) {
  cfg_.validate();
  sched_.validate();
  const MemoryModel mem(cfg_.model, cfg_.plan, cfg_.cost.weight_dtype,
                        cfg_.cost.kv_dtype, cfg_.cost.act_dtype);
  kv_capacity_tokens_ = mem.kv_token_capacity(cfg_.cluster.device(),
                                              sched_.prefill_tokens_per_step);
}

ServingReport ServingSimulator::run(
    const std::vector<Request>& requests) const {
  MIB_ENSURE(!requests.empty(), "empty request trace");
  std::vector<Sequence> arrivals(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    r.validate();
    Sequence& s = arrivals[i];
    s.request_id = static_cast<int>(i);
    s.arrival_s = r.arrival_s;
    s.input_tokens = cost_.effective_prompt_tokens(r.input_tokens, r.n_images);
    s.output_tokens = r.output_tokens;
    MIB_ENSURE(s.input_tokens + s.output_tokens <= kv_capacity_tokens_,
               "request " << i << " exceeds KV capacity even alone");
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Sequence& a, const Sequence& b) {
                     return a.arrival_s < b.arrival_s;
                   });

  PriceBook book;
  Replica replica(&cost_, &book, kv_capacity_tokens_, sched_);
  ServingReport rep;
  rep.requests.resize(requests.size());
  double now = 0.0;
  double occupancy = 0.0;
  std::size_t next = 0, completed = 0;
  while (completed < requests.size()) {
    while (next < arrivals.size() && arrivals[next].arrival_s <= now) {
      replica.enqueue(arrivals[next++]);
    }
    if (!replica.has_work()) {  // idle: jump to the next arrival
      now = arrivals[next].arrival_s;
      continue;
    }
    replica.begin_step(now);
    occupancy += replica.running_count();
    now = replica.step_end_s();
    for (const Sequence& s : replica.complete_step()) {
      rep.requests[static_cast<std::size_t>(s.request_id)] = {
          s.arrival_s, s.first_token_s, now, s.input_tokens, s.output_tokens};
      ++completed;
    }
  }

  double total_tokens = 0.0, gen_tokens = 0.0;
  for (const auto& o : rep.requests) {
    rep.ttft_s.add(o.ttft());
    rep.e2e_s.add(o.e2e());
    total_tokens += o.input_tokens + o.output_tokens;
    gen_tokens += o.output_tokens;
  }
  rep.makespan_s = now;
  rep.steps = replica.steps();
  rep.preemptions = replica.preemptions();
  rep.mean_running_batch = occupancy / static_cast<double>(rep.steps);
  rep.throughput_tok_s = total_tokens / now;
  rep.goodput_tok_s = gen_tokens / now;
  return rep;
}

}  // namespace mib::engine
