#include "fleet/topology.h"

#include <algorithm>
#include <map>

namespace mib::fleet {

namespace {

/// Sort + union-merge intervals in place; touching windows coalesce.
std::vector<std::pair<double, double>> merge_intervals(
    std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<double, double>> out;
  for (const auto& [s, e] : iv) {
    if (!out.empty() && s <= out.back().second) {
      out.back().second = std::max(out.back().second, e);
    } else {
      out.emplace_back(s, e);
    }
  }
  return out;
}

}  // namespace

void TopologyConfig::validate(int pool) const {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const auto& d = domains[i];
    MIB_ENSURE(!d.name.empty(), "failure domain with an empty name");
    MIB_ENSURE(index.emplace(d.name, i).second,
               "duplicate failure domain \"" << d.name << "\"");
  }
  for (const auto& d : domains) {
    if (d.parent.empty()) continue;
    MIB_ENSURE(index.count(d.parent) > 0,
               "domain \"" << d.name << "\" names unknown parent \""
                           << d.parent << "\"");
    MIB_ENSURE(d.parent != d.name,
               "domain \"" << d.name << "\" is its own parent");
    // Walk to the root; more hops than domains means a parent cycle.
    std::size_t hops = 0;
    const DomainSpec* cur = &d;
    while (!cur->parent.empty()) {
      MIB_ENSURE(++hops <= domains.size(),
                 "failure-domain tree has a cycle through \"" << d.name
                                                              << "\"");
      cur = &domains[index.at(cur->parent)];
    }
  }
  MIB_ENSURE(static_cast<int>(replica_domain.size()) <= pool,
             "topology attaches " << replica_domain.size()
                                  << " replicas but the pool holds " << pool);
  for (const auto& name : replica_domain) {
    if (name.empty()) continue;  // isolated node
    MIB_ENSURE(index.count(name) > 0,
               "replica attached to unknown domain \"" << name << "\"");
  }
}

Topology::Topology(const TopologyConfig& cfg, int pool)
    : domains_(cfg.domains) {
  cfg.validate(pool);
  parent_.resize(domains_.size(), -1);
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (!domains_[i].parent.empty()) {
      parent_[i] = index_of(domains_[i].parent);
    }
  }
  attachment_.assign(static_cast<std::size_t>(pool), -1);
  attachment_name_.assign(static_cast<std::size_t>(pool), "");
  for (std::size_t r = 0; r < cfg.replica_domain.size(); ++r) {
    if (cfg.replica_domain[r].empty()) continue;
    attachment_[r] = index_of(cfg.replica_domain[r]);
    attachment_name_[r] = cfg.replica_domain[r];
  }
  spread_group_.assign(static_cast<std::size_t>(pool), "");
  for (std::size_t r = 0; r < attachment_.size(); ++r) {
    const int at = attachment_[r];
    if (at < 0) continue;  // isolated: no shared blast radius
    const int up = parent_[static_cast<std::size_t>(at)];
    // Replicas usually attach to leaf "node" domains; the blast radius a
    // placement should spread over is the level above (the rack). A
    // root-level attachment is its own group.
    spread_group_[r] = domains_[static_cast<std::size_t>(up >= 0 ? up : at)].name;
  }
}

int Topology::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (domains_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool Topology::has_domain(const std::string& name) const {
  return index_of(name) >= 0;
}

const std::string& Topology::domain_of(int replica) const {
  return attachment_name_[static_cast<std::size_t>(replica)];
}

const std::string& Topology::spread_group_of(int replica) const {
  return spread_group_[static_cast<std::size_t>(replica)];
}

std::vector<int> Topology::replicas_under(const std::string& domain) const {
  const int target = index_of(domain);
  MIB_ENSURE(target >= 0, "unknown failure domain \"" << domain << "\"");
  std::vector<int> out;
  for (std::size_t r = 0; r < attachment_.size(); ++r) {
    int cur = attachment_[r];
    while (cur >= 0) {
      if (cur == target) {
        out.push_back(static_cast<int>(r));
        break;
      }
      cur = parent_[static_cast<std::size_t>(cur)];
    }
  }
  return out;
}

std::vector<FaultWindow> expand_domain_faults(
    const Topology& topo, const std::vector<DomainFault>& events,
    std::vector<FaultWindow> base) {
  if (events.empty()) return base;
  // Per-replica interval sets: explicit windows plus every domain event
  // covering the replica, union-merged so the schedule stays disjoint.
  std::map<int, std::vector<std::pair<double, double>>> by_replica;
  for (const auto& w : base) {
    by_replica[w.replica].emplace_back(w.start_s, w.end_s);
  }
  for (const auto& e : events) {
    e.validate();
    const auto hit = topo.replicas_under(e.domain);
    MIB_ENSURE(!hit.empty(), "domain fault on \""
                                 << e.domain
                                 << "\" covers no attached replica");
    for (int r : hit) by_replica[r].emplace_back(e.start_s, e.end_s);
  }
  std::vector<FaultWindow> out;
  for (auto& [replica, iv] : by_replica) {
    for (const auto& [s, e] : merge_intervals(std::move(iv))) {
      out.push_back(FaultWindow{replica, s, e});
    }
  }
  return out;
}

std::vector<DegradationWindow> expand_domain_degradations(
    const Topology& topo, const std::vector<DomainDegradation>& events,
    std::vector<DegradationWindow> base) {
  for (const auto& e : events) {
    e.validate();
    const auto hit = topo.replicas_under(e.domain);
    MIB_ENSURE(!hit.empty(), "domain degradation on \""
                                 << e.domain
                                 << "\" covers no attached replica");
    for (int r : hit) {
      base.push_back(DegradationWindow{r, e.start_s, e.end_s, e.scale});
    }
  }
  // A domain event that collides with another window for one replica has
  // no well-defined composition.
  ensure_disjoint_windows(base, "expanded degradation windows for replica");
  return base;
}

WarmupPlan plan_warmup(const WarmupConfig& cfg,
                       const std::vector<FaultWindow>& faults,
                       const std::vector<MaintenanceWindow>& maintenance) {
  WarmupPlan plan;
  if (!cfg.enabled) return plan;
  cfg.validate();
  // Down intervals per replica: crashes and maintenance reboots both
  // return a cold replica, so both earn a warm-up ramp.
  std::map<int, std::vector<std::pair<double, double>>> down;
  for (const auto& w : faults) down[w.replica].emplace_back(w.start_s, w.end_s);
  for (const auto& w : maintenance) {
    down[w.replica].emplace_back(w.start_s, w.end_s);
  }
  for (auto& [replica, iv] : down) {
    const auto merged = merge_intervals(std::move(iv));
    for (std::size_t k = 0; k < merged.size(); ++k) {
      const double recover = merged[k].second;
      // Down-time-dependent ramp: a blip shorter than the reference only
      // partially cools the replica, so it pays a proportionally shorter
      // and shallower staircase. downtime_ref_s == 0 copies the config
      // values untouched.
      double duration = cfg.duration_s;
      double initial = cfg.initial_scale;
      if (cfg.downtime_ref_s > 0.0) {
        const double frac = std::min(
            1.0, (recover - merged[k].first) / cfg.downtime_ref_s);
        duration = cfg.duration_s * frac;
        initial = 1.0 - (1.0 - cfg.initial_scale) * frac;
      }
      if (duration <= 0.0) continue;
      // Clip the staircase at the next down edge so warm-up windows for
      // one replica never overlap each other.
      const double limit = k + 1 < merged.size()
                               ? std::min(merged[k + 1].first,
                                          recover + duration)
                               : recover + duration;
      if (limit <= recover) continue;
      ++plan.recoveries;
      const double step = duration / cfg.ramp_steps;
      for (int s = 0; s < cfg.ramp_steps; ++s) {
        // Both edges from the same expression so consecutive windows meet
        // bitwise exactly ((lo + step) can differ from the next lo by an
        // ulp and trip the disjointness check).
        const double lo = recover + s * step;
        const double hi = std::min(limit, recover + (s + 1) * step);
        if (hi <= lo) break;
        const double f = initial + (1.0 - initial) *
                                       (static_cast<double>(s) / cfg.ramp_steps);
        // Cold caches and JIT hit compute and memory; the NIC is warm.
        plan.windows.push_back(
            DegradationWindow{replica, lo, hi, PerfScale{f, f, 1.0}});
      }
    }
  }
  return plan;
}

}  // namespace mib::fleet
