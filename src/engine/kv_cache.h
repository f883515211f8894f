// Paged KV-cache block manager (vLLM-style PagedAttention bookkeeping).
//
// This is a functional allocator, not a cost formula: sequences own chains
// of fixed-size token blocks drawn from a free list, so fragmentation-free
// utilization and admission control can be tested directly. SimEngine does
// not use it: its wave scheduling sizes waves with
// MemoryModel::max_concurrent_seqs. The ablation benches (ablate_kvcache,
// ablate_prefix_cache) contrast paged vs. contiguous-reservation admission
// and measure prefix sharing with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mib::engine {

class PagedKvCache {
 public:
  /// total_blocks blocks of block_tokens tokens each.
  PagedKvCache(std::size_t total_blocks, int block_tokens);

  std::size_t total_blocks() const { return total_blocks_; }
  std::size_t free_blocks() const { return free_.size(); }
  std::size_t used_blocks() const { return total_blocks_ - free_.size(); }
  int block_tokens() const { return block_tokens_; }

  /// Blocks needed to hold n tokens.
  std::size_t blocks_for_tokens(int tokens) const;

  /// Register a new sequence (no blocks allocated yet). Returns its id.
  int add_sequence();

  /// Extend a sequence by `tokens`; allocates blocks lazily. Returns false
  /// (and allocates nothing) if the free list cannot cover the growth.
  bool append_tokens(int seq_id, int tokens);

  /// Tokens currently stored for a sequence.
  int sequence_tokens(int seq_id) const;

  /// Blocks currently held by a sequence.
  std::size_t sequence_blocks(int seq_id) const;

  /// Release a sequence and return its blocks to the free list.
  void free_sequence(int seq_id);

  /// Fraction of allocated block capacity actually holding tokens (paged
  /// allocation keeps this near 1; contiguous reservation does not).
  double occupancy() const;

  /// Whether a new sequence of `tokens` could be admitted right now.
  bool can_admit(int tokens) const;

  // --- prefix caching (vLLM automatic prefix caching) ---
  //
  // Sequences sharing a prompt prefix (system prompts, few-shot headers)
  // can share the blocks holding it. Prefixes are identified by a caller
  // hash; shared blocks are ref-counted and evicted lazily when the free
  // list runs dry.

  /// Register a sequence whose first `prefix_tokens` tokens share the
  /// prefix identified by `prefix_hash`. On a cache hit the shared blocks
  /// are reused (no new allocation, tokens appear instantly); on a miss
  /// they are allocated and published under the hash. Returns the sequence
  /// id, or -1 if a miss cannot allocate.
  int add_sequence_with_prefix(std::uint64_t prefix_hash, int prefix_tokens);

  /// Whether the given prefix is resident (shared blocks cached).
  bool prefix_cached(std::uint64_t prefix_hash) const;

  /// Blocks currently held by unreferenced cached prefixes (reclaimable).
  std::size_t reclaimable_blocks() const;

  /// Drop unreferenced cached prefixes until at least `needed` blocks are
  /// free (or nothing is left to evict). Returns blocks reclaimed.
  std::size_t evict_prefixes(std::size_t needed);

 private:
  struct Sequence {
    int tokens = 0;
    std::size_t blocks = 0;           ///< private blocks
    std::uint64_t prefix = 0;         ///< 0 = no shared prefix
  };

  struct PrefixEntry {
    int tokens = 0;
    std::size_t blocks = 0;
    int refs = 0;
  };

  std::size_t total_blocks_;
  int block_tokens_;
  std::vector<std::size_t> free_;  // free block ids (identity only)
  std::unordered_map<int, Sequence> seqs_;
  std::unordered_map<std::uint64_t, PrefixEntry> prefixes_;
  int next_id_ = 0;
};

}  // namespace mib::engine
