// Partial-failure model: replicas that run *slow* instead of dead.
//
// Real fleet incidents are dominated by brownouts, not crashes — thermal
// throttling, ECC row retirement eating bandwidth, a contended NVLink or
// ToR switch. A DegradationWindow scales one replica's effective compute,
// memory bandwidth and interconnect bandwidth over [start_s, end_s); the
// fleet prices steps taken inside the window with a LayerCostModel built
// on the derated hardware, so a compute throttle mostly stretches prefill
// while a bandwidth cut mostly stretches decode — the same roofline logic
// as everywhere else, not a scalar slowdown knob.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "engine/engine.h"
#include "engine/layer_cost.h"
#include "fleet/faults.h"

namespace mib::fleet {

/// Effective hardware scale factors of one replica at one instant.
struct PerfScale {
  double flops = 1.0;    ///< fraction of peak math throughput available
  double mem_bw = 1.0;   ///< fraction of memory bandwidth available
  double link_bw = 1.0;  ///< fraction of interconnect bandwidth available

  bool degraded() const {
    return flops < 1.0 || mem_bw < 1.0 || link_bw < 1.0;
  }
  /// Worst single dimension — proxy for how late the replica's control
  /// plane (heartbeats, health probes) runs while degraded.
  double worst() const { return std::min(flops, std::min(mem_bw, link_bw)); }
  bool operator==(const PerfScale& o) const {
    return flops == o.flops && mem_bw == o.mem_bw && link_bw == o.link_bw;
  }
};

/// Composition of two independent slowdowns acting at once (a scheduled
/// brownout on a replica still inside its post-recovery warm-up): the
/// scales multiply per dimension.
inline PerfScale compose(const PerfScale& a, const PerfScale& b) {
  return PerfScale{a.flops * b.flops, a.mem_bw * b.mem_bw,
                   a.link_bw * b.link_bw};
}

/// One brownout: replica runs at `scale` for [start_s, end_s).
struct DegradationWindow {
  int replica = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  PerfScale scale;

  void validate() const {
    MIB_ENSURE(replica >= 0, "degradation window names a negative replica");
    MIB_ENSURE(start_s >= 0.0, "degradation window starts before t=0");
    MIB_ENSURE(end_s > start_s,
               "degradation window must have positive duration");
    auto in_range = [](double s) { return s > 0.0 && s <= 1.0; };
    MIB_ENSURE(in_range(scale.flops) && in_range(scale.mem_bw) &&
                   in_range(scale.link_bw),
               "degradation scales must lie in (0, 1]");
  }
};

/// Immutable brownout schedule; windows for one replica must not overlap
/// (two simultaneous throttles have no well-defined composition).
class DegradationSchedule {
 public:
  explicit DegradationSchedule(std::vector<DegradationWindow> windows);

  /// Effective scale of `replica` at time t (identity outside windows).
  PerfScale at(int replica, double t) const {
    const DegradationWindow* w = window_at(windows_, replica, t);
    return w != nullptr ? w->scale : PerfScale{};
  }

  const std::vector<DegradationWindow>& windows() const { return windows_; }

 private:
  std::vector<DegradationWindow> windows_;
};

/// Lazily-keyed pool of LayerCostModels over derated hardware: one per
/// distinct PerfScale in the schedule, built once up front so the fleet's
/// hot loop only swaps pointers at window edges. The identity scale maps
/// to the shared base model.
class DegradedCostPool {
 public:
  /// Build one model per distinct degraded scale in `scales` (the fleet
  /// passes scales_for() of its brownout and warm-up schedules).
  DegradedCostPool(const engine::LayerCostModel* base,
                   const engine::EngineConfig& cfg,
                   const std::vector<PerfScale>& scales);

  const engine::LayerCostModel* at(const PerfScale& scale) const;

 private:
  const engine::LayerCostModel* base_;
  std::vector<std::pair<PerfScale, std::unique_ptr<engine::LayerCostModel>>>
      models_;
};

/// Every scale a fleet run can price: the windows of both schedules plus
/// the product of each same-replica time-overlapping pair (a brownout
/// composed with a warm-up ramp).
std::vector<PerfScale> scales_for(const std::vector<DegradationWindow>& a,
                                  const std::vector<DegradationWindow>& b);

}  // namespace mib::fleet
