#include "fleet/degradation.h"

namespace mib::fleet {

DegradationSchedule::DegradationSchedule(std::vector<DegradationWindow> windows)
    : windows_(std::move(windows)) {
  for (const auto& w : windows_) w.validate();
  ensure_disjoint_windows(windows_, "degradation windows for replica");
}

DegradedCostPool::DegradedCostPool(const engine::LayerCostModel* base,
                                   const engine::EngineConfig& cfg,
                                   const std::vector<PerfScale>& scales)
    : base_(base) {
  MIB_ENSURE(base_ != nullptr, "degraded cost pool needs a base model");
  for (const auto& scale : scales) {
    if (!scale.degraded()) continue;
    if (at(scale) != base_) continue;  // already built
    const auto& cl = cfg.cluster;
    hw::Cluster derated(cl.device().derate(scale.flops, scale.mem_bw),
                        cl.size(), cl.devices_per_node(),
                        cl.intra().link().derate(scale.link_bw),
                        cl.inter().link().derate(scale.link_bw));
    models_.emplace_back(scale, std::make_unique<engine::LayerCostModel>(
                                    cfg.model, derated, cfg.plan, cfg.cost));
  }
}

const engine::LayerCostModel* DegradedCostPool::at(
    const PerfScale& scale) const {
  if (!scale.degraded()) return base_;
  for (const auto& [key, model] : models_) {
    if (key == scale) return model.get();
  }
  return base_;
}

std::vector<PerfScale> scales_for(const std::vector<DegradationWindow>& a,
                                  const std::vector<DegradationWindow>& b) {
  std::vector<PerfScale> scales;
  auto push = [&scales](const PerfScale& s) {
    if (!s.degraded()) return;
    for (const auto& have : scales) {
      if (have == s) return;
    }
    scales.push_back(s);
  };
  for (const auto& w : a) push(w.scale);
  for (const auto& w : b) push(w.scale);
  for (const auto& wa : a) {
    for (const auto& wb : b) {
      if (wa.replica != wb.replica) continue;
      if (wa.end_s <= wb.start_s || wb.end_s <= wa.start_s) continue;
      push(compose(wa.scale, wb.scale));
    }
  }
  return scales;
}

}  // namespace mib::fleet
