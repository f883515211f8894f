#include "engine/replica.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <tuple>

#include "common/error.h"

namespace mib::engine {

void ReplicaConfig::validate() const {
  MIB_ENSURE(max_batch >= 1, "replica max_batch must be >= 1");
  MIB_ENSURE(prefill_tokens_per_step >= 1,
             "replica prefill budget must be >= 1 token");
  MIB_ENSURE(prefix_cache_entries >= 0, "negative prefix cache size");
}

Replica::Replica(const LayerCostModel* cost,
                 long long kv_capacity_tokens, ReplicaConfig cfg)
    : cost_(cost), kv_capacity_(kv_capacity_tokens), cfg_(cfg) {
  MIB_ENSURE(cost_ != nullptr, "replica needs a cost model");
  MIB_ENSURE(kv_capacity_ >= 1, "replica KV capacity below one token");
  cfg_.validate();
}

void Replica::set_cost_model(const LayerCostModel* cost) {
  MIB_ENSURE(cost != nullptr, "replica needs a cost model");
  cost_ = cost;
}

const Sequence* Replica::find(int request_id) const {
  for (const auto& s : running_) {
    if (s.request_id == request_id) return &s;
  }
  for (const auto& s : waiting_) {
    if (s.request_id == request_id) return &s;
  }
  return nullptr;
}

bool Replica::started(int request_id) const {
  const Sequence* s = find(request_id);
  return s != nullptr && s->first_token_s >= 0.0;
}

bool Replica::take(int request_id, Sequence* out) {
  MIB_ENSURE(out != nullptr, "take needs somewhere to put the sequence");
  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->request_id == request_id) {
      *out = *it;
      running_.erase(it);
      // Retired capacity, even if by cancellation: admissions resume.
      admission_blocked_ = false;
      return true;
    }
  }
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->request_id == request_id) {
      *out = *it;
      waiting_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<int> Replica::waiting_hedges() const {
  std::vector<int> ids;
  for (const auto& s : waiting_) {
    if (s.is_hedge) ids.push_back(s.request_id);
  }
  return ids;
}

std::vector<int> Replica::resident_ids() const {
  std::vector<int> ids;
  ids.reserve(running_.size() + waiting_.size());
  for (const auto& s : running_) ids.push_back(s.request_id);
  for (const auto& s : waiting_) ids.push_back(s.request_id);
  return ids;
}

long long Replica::outstanding_tokens() const {
  long long total = 0;
  for (const auto& s : waiting_) total += s.remaining_tokens();
  for (const auto& s : running_) total += s.remaining_tokens();
  return total;
}

long long Replica::kv_in_use() const {
  long long used = 0;
  for (const auto& s : running_) used += s.kv_tokens();
  return used;
}

Replica::StepPrices& Replica::prices() {
  for (auto& p : prices_) {
    if (p.model == cost_) return p;
  }
  prices_.push_back(StepPrices{cost_, {}, {}});
  return prices_.back();
}

const LayerCostModel::DecodeParts& Replica::StepPrices::decode_parts(
    int batch) {
  const auto i = static_cast<std::size_t>(batch - 1);
  if (i >= decode.size()) {
    LayerCostModel::DecodeParts unpriced;
    unpriced.qkvo_proj = std::numeric_limits<double>::quiet_NaN();
    decode.resize(i + 1, unpriced);
  }
  if (std::isnan(decode[i].qkvo_proj)) decode[i] = model->decode_parts(batch);
  return decode[i];
}

const Replica::StepPrices::Prefill& Replica::StepPrices::prefill_price(
    int tokens) {
  auto it = std::lower_bound(
      prefill.begin(), prefill.end(), tokens,
      [](const Prefill& p, int t) { return p.tokens < t; });
  if (it == prefill.end() || it->tokens != tokens) {
    const auto pf = model->prefill(1, tokens);
    it = prefill.insert(
        it, Prefill{tokens, pf.total() - pf.head - pf.overhead,
                    pf.head + pf.overhead});
  }
  return *it;
}

void Replica::touch_prefix(std::uint64_t hash) {
  if (hash == 0 || cfg_.prefix_cache_entries == 0) return;
  prefix_cache_[hash] = ++prefix_tick_;
  while (prefix_cache_.size() >
         static_cast<std::size_t>(cfg_.prefix_cache_entries)) {
    auto oldest = prefix_cache_.begin();
    for (auto it = prefix_cache_.begin(); it != prefix_cache_.end(); ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    prefix_cache_.erase(oldest);
  }
}

std::vector<Sequence> Replica::drop_expired(double now) {
  std::vector<Sequence> expired;
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (it->deadline_s > 0.0 && now > it->deadline_s) {
      expired.push_back(*it);
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void Replica::admit() {
  // Gang batching drains the running batch before admitting again.
  if (!cfg_.continuous_batching && !running_.empty()) return;
  long long kv_used = kv_in_use();
  while (!waiting_.empty() &&
         static_cast<int>(running_.size()) < cfg_.max_batch) {
    if (cfg_.policy == QueuePolicy::kShortestFirst) {
      // SJF: move the shortest total job (first on ties) to the head. The
      // others keep their order, so ties resolve the same way next time.
      const auto shortest = std::min_element(
          waiting_.begin(), waiting_.end(),
          [](const Sequence& a, const Sequence& b) {
            return a.input_tokens + a.output_tokens <
                   b.input_tokens + b.output_tokens;
          });
      std::rotate(waiting_.begin(), shortest, std::next(shortest));
    }
    const Sequence& head = waiting_.front();
    // A migrated sequence arrives with KV already accumulated; reserve for
    // whichever is larger, its resident state or its full prompt.
    const long long need =
        std::max<long long>(head.input_tokens, head.kv_tokens());
    if (kv_used + need > kv_capacity_) break;
    Sequence s = head;
    waiting_.pop_front();
    // Prefix-cache lookup happens when service starts: a warm conversation
    // prefix is skipped (its KV "reappears" from the cache), so prefill
    // charges only the new turn. Migrated sequences (progress > 0) carry
    // their KV with them and skip the lookup.
    if (s.prefix_hash != 0 && s.prefilled == 0 && s.generated == 0) {
      ++prefix_lookups_;
      if (prefix_warm(s.prefix_hash)) {
        ++prefix_hits_;
        s.prefix_hit = true;
        s.prefilled = std::min(s.prefix_tokens, s.input_tokens - 1);
        touch_prefix(s.prefix_hash);
      }
    }
    kv_used += s.kv_tokens();
    running_.push_back(s);
  }
}

void Replica::begin_step(double now) {
  MIB_ENSURE(!mid_step_, "begin_step while a step is in flight");
  MIB_ENSURE(has_work(), "begin_step on an idle replica");

  if (running_.empty()) admission_blocked_ = false;
  if (!admission_blocked_) admit();
  MIB_ENSURE(!running_.empty(), "replica admitted nothing despite work");

  // vLLM recompute preemption: the youngest sequence loses its KV and
  // rejoins the local queue from scratch; admission pauses until a running
  // sequence retires (prevents readmit-thrash).
  auto preempt_youngest = [&] {
    auto victim = std::max_element(
        running_.begin(), running_.end(), [](const Sequence& a, const Sequence& b) {
          return std::tie(a.arrival_s, a.request_id) <
                 std::tie(b.arrival_s, b.request_id);
        });
    Sequence s = *victim;
    running_.erase(victim);
    s.restart();
    waiting_.push_front(s);
    ++preemptions_;
    admission_blocked_ = true;
  };

  int decode_batch = 0;
  double ctx_sum = 0.0;
  int prefill_tokens = 0;
  for (;;) {
    decode_batch = 0;
    ctx_sum = 0.0;
    long long kv_used = 0;
    for (const auto& s : running_) {
      kv_used += s.kv_tokens();
      if (s.prefill_done()) {
        ++decode_batch;
        ctx_sum += static_cast<double>(s.kv_tokens());
      }
    }
    // Decode grows every finished context by one token this step.
    if (kv_used + decode_batch > kv_capacity_ && running_.size() > 1) {
      preempt_youngest();
      continue;
    }
    // Chunked prefill within the per-step token budget.
    int budget = cfg_.prefill_tokens_per_step;
    prefill_tokens = 0;
    for (auto& s : running_) {
      if (s.prefill_done() || budget <= 0) continue;
      const int chunk = std::min(budget, s.input_tokens - s.prefilled);
      if (kv_used + chunk <= kv_capacity_) {
        s.prefilled += chunk;
        kv_used += chunk;
        budget -= chunk;
        prefill_tokens += chunk;
      }
    }
    // All-prefill batch that cannot fit a single chunk: free KV by
    // preempting until one fits (never leaves fewer than one sequence —
    // a lone sequence always fits; callers validate that on submit).
    if (decode_batch == 0 && prefill_tokens == 0 && running_.size() > 1) {
      preempt_youngest();
      continue;
    }
    break;
  }
  MIB_ENSURE(decode_batch > 0 || prefill_tokens > 0,
             "replica built a zero-work step");

  // The LM head and per-step overhead are charged once per engine step,
  // not once per phase.
  StepPrices& memo = prices();
  double step_time = 0.0;
  if (decode_batch > 0) {
    const double avg_ctx =
        std::max(1.0, ctx_sum / static_cast<double>(decode_batch));
    step_time += cost_->decode_step(memo.decode_parts(decode_batch),
                                    decode_batch, avg_ctx)
                     .total();
  }
  if (prefill_tokens > 0) {
    const auto& pf = memo.prefill_price(prefill_tokens);
    step_time += pf.body;
    if (decode_batch == 0) step_time += pf.head_overhead;
  }
  MIB_ENSURE(step_time > 0.0, "zero-cost step");

  mid_step_ = true;
  step_end_ = now + step_time;
  step_cost_ = step_time;
  busy_s_ += step_time;
  ++steps_;
}

std::vector<Sequence> Replica::complete_step() {
  MIB_ENSURE(mid_step_, "complete_step without a step in flight");
  mid_step_ = false;
  const double now = step_end_;

  // Each batched sequence consumed its share of the step: the capacity a
  // duplicate copy burns is priced per-copy, not per-step. Copies pulled
  // out mid-step (cancelled hedge losers) forfeit their share.
  if (!running_.empty()) {
    const double share = step_cost_ / static_cast<double>(running_.size());
    for (auto& s : running_) s.served_s += share;
  }

  std::vector<Sequence> finished;
  for (auto it = running_.begin(); it != running_.end();) {
    Sequence& s = *it;
    bool advanced = false;
    if (s.prefill_done() && s.generated < s.output_tokens) {
      // A sequence whose prefill completed this step emits its first token
      // now; afterwards it decodes one token per step.
      if (s.first_token_s < 0.0) {
        s.first_token_s = now;
        s.generated = 1;
      } else {
        ++s.generated;
      }
      advanced = true;
    }
    if (advanced && s.finished()) {
      // The conversation's history (prefix + new turn) is now resident.
      touch_prefix(s.prefix_hash);
      finished.push_back(s);
      it = running_.erase(it);
      admission_blocked_ = false;  // capacity retired: admissions resume
    } else {
      ++it;
    }
  }
  return finished;
}

std::vector<Sequence> Replica::take_all() {
  std::vector<Sequence> out;
  out.reserve(running_.size() + waiting_.size());
  for (auto& s : running_) out.push_back(s);
  for (auto& s : waiting_) out.push_back(s);
  running_.clear();
  waiting_.clear();
  // The node goes away either way (crash or maintenance reboot): its
  // prefix cache is cold when it returns.
  prefix_cache_.clear();
  mid_step_ = false;
  admission_blocked_ = false;
  return out;
}

std::vector<Sequence> Replica::take_waiting() {
  std::vector<Sequence> out(waiting_.begin(), waiting_.end());
  waiting_.clear();
  return out;
}

std::vector<Sequence> Replica::evacuate() {
  auto out = take_all();
  // Crash: KV is gone, all progress lost.
  for (auto& s : out) s.restart();
  return out;
}

}  // namespace mib::engine
