// Hedged requests: tail-latency insurance against stragglers.
//
// A request whose first token has not appeared after a trigger delay is
// re-issued to a second replica; the first copy to finish wins and the
// loser is cancelled, its queue slot and KV freed. The trigger is either
// a fixed delay or (the Dean & Barroso "tail at scale" recipe) a running
// percentile of observed TTFTs, so hedges target the tail: at the p95
// trigger at most ~5% of requests spawn a second copy, bounding the extra
// load, while a straggling or silently-degraded replica is bypassed long
// before the failure detector would flag it.
//
// A hedge is optional work: its copy respects admission capacity and is
// the first load shed under overload, so primaries are never rejected to
// make room for insurance.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.h"

namespace mib::fleet {

struct HedgeConfig {
  bool enabled = false;
  /// Fixed trigger delay; 0 = adaptive (percentile of observed TTFT).
  double delay_s = 0.0;
  /// Percentile of observed TTFTs used as the adaptive trigger.
  double percentile = 95.0;
  /// Floor under the adaptive trigger (never hedge instantly).
  double min_delay_s = 0.02;
  /// Completed requests observed before adaptive hedging arms.
  int min_samples = 16;
  /// Utilization gate (the other half of the tail-at-scale recipe): a
  /// hedge only fires while the fraction of in-service replicas that are
  /// busy is at or below this. Near saturation the extra copies stop —
  /// hedging into a fleet with no spare capacity pushes the one healthy
  /// replica over the edge instead of protecting the tail. 1.0 = never
  /// gate.
  double max_utilization = 1.0;

  void validate() const {
    MIB_ENSURE(delay_s >= 0.0, "negative hedge delay");
    MIB_ENSURE(percentile > 0.0 && percentile < 100.0,
               "hedge percentile must lie in (0, 100)");
    MIB_ENSURE(min_delay_s > 0.0, "hedge delay floor must be > 0");
    MIB_ENSURE(min_samples >= 1, "hedge needs at least one warmup sample");
    MIB_ENSURE(max_utilization > 0.0 && max_utilization <= 1.0,
               "hedge utilization gate must lie in (0, 1]");
  }
};

/// Tracks observed TTFTs and answers "how long before we hedge right now".
class HedgePlanner {
 public:
  explicit HedgePlanner(HedgeConfig cfg) : cfg_(cfg) {
    if (cfg_.enabled) cfg_.validate();
  }

  const HedgeConfig& config() const { return cfg_; }

  void observe_ttft(double s) {
    // Only the adaptive trigger reads the samples.
    if (!cfg_.enabled || cfg_.delay_s > 0.0) return;
    if (!lower_.empty() && s <= lower_.top()) {
      lower_.push(s);
    } else {
      upper_.push(s);
    }
    // The rank grows by at most one per sample, so one move rebalances.
    const std::size_t want = rank(lower_.size() + upper_.size()) + 1;
    if (lower_.size() > want) {
      upper_.push(lower_.top());
      lower_.pop();
    } else if (lower_.size() < want && !upper_.empty()) {
      lower_.push(upper_.top());
      upper_.pop();
    }
  }

  /// Current trigger delay; +infinity while hedging is disabled or the
  /// adaptive trigger has not warmed up yet.
  double trigger_delay() const {
    if (!cfg_.enabled) return std::numeric_limits<double>::infinity();
    if (cfg_.delay_s > 0.0) return std::max(cfg_.delay_s, cfg_.min_delay_s);
    const std::size_t n = lower_.size() + upper_.size();
    if (static_cast<int>(n) < cfg_.min_samples) {
      return std::numeric_limits<double>::infinity();
    }
    return std::max(lower_.top(), cfg_.min_delay_s);
  }

 private:
  /// Nearest-rank index of the trigger percentile among `n` samples.
  std::size_t rank(std::size_t n) const {
    return static_cast<std::size_t>(static_cast<double>(n - 1) *
                                    cfg_.percentile / 100.0);
  }

  HedgeConfig cfg_;
  /// Observed TTFTs split at the nearest rank: `lower_` holds the
  /// rank + 1 smallest (its top is the percentile), `upper_` the rest.
  std::priority_queue<double> lower_;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      upper_;
};

}  // namespace mib::fleet
