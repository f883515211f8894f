// Reactive queue-depth autoscaler.
//
// Every interval_s the fleet evaluates the total queued depth: above the
// scale-up watermark an inactive replica is activated (cold: empty prefix
// cache, so affinity re-warms); at or below the scale-down watermark an
// idle active replica (nothing queued or running) is deactivated at the
// tick. min/max bounds keep the fleet inside its provisioned pool.
#pragma once

#include <string>
#include <vector>

#include "common/error.h"

namespace mib::fleet {

struct AutoscalerConfig {
  bool enabled = false;
  int min_replicas = 1;
  int max_replicas = 8;
  double interval_s = 2.0;
  /// Queued requests above which a replica is added.
  int scale_up_queue_depth = 8;
  /// Queued requests at or below which an idle replica is deactivated.
  int scale_down_queue_depth = 0;
  /// Placement: false picks the lowest-index inactive slot (in effect
  /// cloning the last placement); true spreads new replicas across
  /// failure domains, picking the slot whose spread group (parent of its
  /// attachment domain) currently holds the fewest active replicas, ties
  /// to the lowest index. No-op without a topology.
  bool topology_aware = false;

  void validate() const {
    MIB_ENSURE(min_replicas >= 1, "autoscaler floor must be >= 1 replica");
    MIB_ENSURE(max_replicas >= min_replicas,
               "autoscaler ceiling below its floor");
    MIB_ENSURE(interval_s > 0.0, "autoscaler interval must be > 0");
    MIB_ENSURE(scale_up_queue_depth > scale_down_queue_depth,
               "scale-up watermark must exceed scale-down watermark");
  }
};

/// One scaling decision, for the report timeline.
struct ScaleEvent {
  double t_s = 0.0;
  std::string action;        ///< "add" or "drain"
  int replica = -1;
  long long queue_depth = 0;
  int active_after = 0;
};

/// Pure decision function: +1 add, -1 drain, 0 hold.
class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerConfig cfg) : cfg_(cfg) {
    if (cfg_.enabled) cfg_.validate();
  }

  const AutoscalerConfig& config() const { return cfg_; }

  int decide(long long queue_depth, int active_replicas,
             bool any_idle_replica) const {
    if (!cfg_.enabled) return 0;
    if (queue_depth > cfg_.scale_up_queue_depth &&
        active_replicas < cfg_.max_replicas) {
      return +1;
    }
    if (queue_depth <= cfg_.scale_down_queue_depth &&
        active_replicas > cfg_.min_replicas && any_idle_replica) {
      return -1;
    }
    return 0;
  }

 private:
  AutoscalerConfig cfg_;
};

}  // namespace mib::fleet
