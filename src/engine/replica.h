// One steppable continuous-batching engine replica: the single home of
// the serving discipline.
//
// A Replica owns a waiting queue and a running batch and advances one
// engine step at a time. Each step admits waiting sequences (FCFS or
// shortest-job-first; continuous or static gang batching), applies vLLM
// recompute preemption under KV pressure, builds a chunked-prefill +
// batched-decode step within the per-step token budget and prices it with
// the LayerCostModel. ServingSimulator drives one Replica to completion
// over a trace; the fleet simulator steps many of them from its event loop
// so the router, autoscaler and fault injector can act between steps.
// Sequences that carry a conversation identity also hit a per-replica
// prefix cache: a conversation whose earlier turn completed here skips its
// warm prefix during prefill, which is what session-affinity routing
// monetizes.
//
// Step prices are memoized per replica: the context-free parts of a decode
// step per batch size (LayerCostModel::decode_parts) and the split price of
// each prefill chunk size, so a step recomputes only its paged attention
// core. The memo is exact (every step costs bit-for-bit what a fresh
// reprice would) and is keyed on the pricing model, since degradation and
// warm-up edges swap models and a swap back finds its entries filled. It
// lives and dies with the replica, so nothing carries from one run to the
// next.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "engine/layer_cost.h"

namespace mib::engine {

/// One request in flight on (or queued for) a replica.
struct Sequence {
  int request_id = -1;       ///< index into the trace
  double arrival_s = 0.0;    ///< submission time
  double deadline_s = 0.0;   ///< absolute service deadline; 0 = none
  int input_tokens = 0;      ///< effective prompt tokens (vision folded in)
  int output_tokens = 0;
  std::uint64_t prefix_hash = 0;  ///< conversation identity; 0 = none
  int prefix_tokens = 0;          ///< reusable prefix length (system+history)
  int retries = 0;                ///< re-routes after replica failures
  bool is_hedge = false;          ///< this copy is the hedged re-issue
  /// This copy is the majority-side re-admission of a request a partition
  /// minority already holds (split-brain double dispatch).
  bool is_partition_dup = false;
  /// The front-end router that dispatched this copy (-1 before dispatch).
  /// On an asymmetric partition the completion must cross back to this
  /// router's side — if that direction is dark the decode is orphaned.
  int via_router = -1;

  // progress
  int prefilled = 0;
  int generated = 0;
  double first_token_s = -1.0;
  bool prefix_hit = false;
  /// Replica time this copy has consumed (its share of every step it sat
  /// in). Survives retries — burned work stays burned — and prices the
  /// duplicate-decode waste when a split-brain copy loses the race.
  double served_s = 0.0;

  /// Lose all progress (preemption, crash, recompute drain): the copy
  /// re-prefills from scratch. served_s and retries are kept.
  void restart() {
    prefilled = 0;
    generated = 0;
    first_token_s = -1.0;
    prefix_hit = false;
  }
  bool prefill_done() const { return prefilled >= input_tokens; }
  bool finished() const { return generated >= output_tokens; }
  long long kv_tokens() const { return prefilled + generated; }
  /// Work remaining (queued-token load proxy for the router).
  long long remaining_tokens() const {
    return (input_tokens - prefilled) + (output_tokens - generated);
  }
};

/// Admission order for waiting requests.
enum class QueuePolicy {
  kFcfs,           ///< first-come first-served (vLLM default)
  kShortestFirst,  ///< shortest total tokens first (SJF)
};

struct ReplicaConfig {
  /// Max concurrent sequences in the running batch.
  int max_batch = 64;
  /// Chunked-prefill token budget per engine step.
  int prefill_tokens_per_step = 2048;
  /// Conversations kept warm in the replica's prefix cache (LRU).
  int prefix_cache_entries = 512;
  /// The fleet accepts only the defaults of the two admission choices
  /// below (FleetConfig::validate); ServingSimulator accepts all four.
  QueuePolicy policy = QueuePolicy::kFcfs;
  /// false = static gang batching: admit a batch, drain it completely
  /// before admitting again (the paper's setting).
  bool continuous_batching = true;

  void validate() const;
};

class Replica {
 public:
  /// `cost` outlives the replica.
  Replica(const LayerCostModel* cost, long long kv_capacity_tokens,
          ReplicaConfig cfg);

  /// Swap the pricing model (degradation window edges). Affects steps
  /// begun afterwards; an in-flight step keeps its committed end time.
  /// `cost` outlives the replica too: step prices are kept per model
  /// address.
  void set_cost_model(const LayerCostModel* cost);

  // --- queueing ---
  void enqueue(const Sequence& seq) { waiting_.push_back(seq); }
  int queue_depth() const { return static_cast<int>(waiting_.size()); }
  int running_count() const { return static_cast<int>(running_.size()); }
  bool has_work() const { return !waiting_.empty() || !running_.empty(); }
  /// Total tokens still to produce across queued + running work.
  long long outstanding_tokens() const;
  /// KV tokens resident in the running batch right now.
  long long kv_in_use() const;

  /// The copy of `request_id` held here (queued or running), or nullptr.
  const Sequence* find(int request_id) const;
  /// Whether this replica has emitted the first token of `request_id`.
  bool started(int request_id) const;
  /// Remove the copy of `request_id` (running batch first) into `out`,
  /// progress intact, and free its KV here. One verb for every single-copy
  /// removal: a cancelled or shed copy, a fenced duplicate, or an
  /// overlap-drain handoff. Returns whether a copy was held.
  bool take(int request_id, Sequence* out);
  /// request_ids of hedge copies still waiting (not yet in service) —
  /// the shed-first pool under overload.
  std::vector<int> waiting_hedges() const;
  /// request_ids of every copy resident here, running batch first (heal
  /// fencing enumerates the minority side with this).
  std::vector<int> resident_ids() const;
  /// Read-only view of the running batch (overlap-drain scheduling).
  const std::vector<Sequence>& running() const { return running_; }

  // --- stepping (driven by ServingSimulator or the fleet event loop) ---
  bool mid_step() const { return mid_step_; }
  double step_end_s() const { return step_end_; }
  /// Drop queued sequences whose deadline passed (checked at scheduling
  /// boundaries, before admission). Returns them for accounting.
  std::vector<Sequence> drop_expired(double now);
  /// Begin one engine step at absolute time `now`. Requires !mid_step()
  /// and has_work().
  void begin_step(double now);
  /// Finish the in-flight step; returns the sequences completed by it.
  std::vector<Sequence> complete_step();
  /// Failure: drop all queued and running work (KV and progress lost) and
  /// clear the prefix cache. Returns the evacuated sequences.
  std::vector<Sequence> evacuate();
  /// Planned drain: remove all queued and running work with progress
  /// *intact* (prefill/decode position, first-token stamp) for KV
  /// migration to a peer. The replica ends empty and cold, like after a
  /// maintenance reboot; on an already-empty replica (the end of an
  /// overlap drain) only that cleanup happens.
  std::vector<Sequence> take_all();
  /// Overlap drain, phase one: remove only the *waiting* sequences (no KV
  /// resident yet) so they re-dispatch immediately while the running batch
  /// keeps decoding under the background KV copy.
  std::vector<Sequence> take_waiting();

  // --- prefix cache ---
  bool prefix_warm(std::uint64_t hash) const {
    return hash != 0 && prefix_cache_.count(hash) > 0;
  }

  // --- lifetime stats ---
  long long steps() const { return steps_; }
  int preemptions() const { return preemptions_; }
  double busy_s() const { return busy_s_; }
  long long prefix_lookups() const { return prefix_lookups_; }
  long long prefix_hits() const { return prefix_hits_; }

 private:
  /// Step prices this replica has computed with one pricing model.
  struct StepPrices {
    /// Prefill chunk price split as the step composes it: the body, and
    /// the LM head + per-step overhead a decode batch already pays.
    struct Prefill {
      int tokens;
      double body;
      double head_overhead;
    };
    const LayerCostModel* model;
    /// Indexed by batch - 1, grown to the largest batch seen; unpriced
    /// entries hold NaN.
    std::vector<LayerCostModel::DecodeParts> decode;
    /// Sorted by tokens; holds only the chunk sizes seen.
    std::vector<Prefill> prefill;

    const LayerCostModel::DecodeParts& decode_parts(int batch);
    const Prefill& prefill_price(int tokens);
  };

  void admit();
  void touch_prefix(std::uint64_t hash);
  StepPrices& prices();

  const LayerCostModel* cost_;
  /// One entry per pricing model this replica has stepped with.
  std::vector<StepPrices> prices_;
  long long kv_capacity_;
  ReplicaConfig cfg_;

  std::deque<Sequence> waiting_;
  std::vector<Sequence> running_;
  bool admission_blocked_ = false;

  bool mid_step_ = false;
  double step_end_ = 0.0;
  double step_cost_ = 0.0;  ///< duration of the in-flight step

  long long steps_ = 0;
  int preemptions_ = 0;
  double busy_s_ = 0.0;
  long long prefix_lookups_ = 0;
  long long prefix_hits_ = 0;
  /// hash -> last-use tick (LRU eviction by smallest tick).
  std::map<std::uint64_t, long long> prefix_cache_;
  long long prefix_tick_ = 0;
};

}  // namespace mib::engine
