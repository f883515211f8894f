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
#include <limits>
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
    ttfts_.insert(std::upper_bound(ttfts_.begin(), ttfts_.end(), s), s);
  }

  /// Current trigger delay; +infinity while hedging is disabled or the
  /// adaptive trigger has not warmed up yet.
  double trigger_delay() const {
    if (!cfg_.enabled) return std::numeric_limits<double>::infinity();
    if (cfg_.delay_s > 0.0) return std::max(cfg_.delay_s, cfg_.min_delay_s);
    if (static_cast<int>(ttfts_.size()) < cfg_.min_samples) {
      return std::numeric_limits<double>::infinity();
    }
    // Nearest-rank percentile.
    const auto rank = static_cast<std::size_t>(
        static_cast<double>(ttfts_.size() - 1) * cfg_.percentile / 100.0);
    return std::max(ttfts_[rank], cfg_.min_delay_s);
  }

 private:
  HedgeConfig cfg_;
  /// Observed TTFTs, ascending.
  std::vector<double> ttfts_;
};

}  // namespace mib::fleet
