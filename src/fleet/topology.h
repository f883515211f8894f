// Failure-domain topology: correlated faults through the physical tree.
//
// Datacenter failures are not independent per replica — a rack PDU trip, an
// NVLink-switch fault or a zone-wide network partition takes out every
// replica behind it at once. The topology is a tree of named domains
// (node -> rack -> switch -> zone, or any shape); each replica attaches to
// a leaf domain. A DomainFault or DomainDegradation names *any* domain and
// applies to every replica at or below it, so one rack-level event opens a
// simultaneous burst of suspicions in the phi-accrual HealthMonitor instead
// of three unrelated ones. Domain events expand into the same per-replica
// FaultWindow / DegradationWindow schedule the simulator already prices;
// fault windows merge by interval union (a node fault inside a rack fault
// is one outage, not two), degradations must not overlap (two simultaneous
// throttles have no well-defined composition — warm-up is the one sanctioned
// exception, composed multiplicatively in the fleet loop).
//
// Post-recovery warm-up: a replica returning from a crash or a maintenance
// reboot is not instantly at steady state — JIT kernels recompile, the
// allocator and prefix cache are cold. WarmupConfig models this as a short
// self-clearing degradation staircase after every recovery edge: flops and
// memory bandwidth start at initial_scale and ramp linearly back to 1.0
// over duration_s in ramp_steps steps, priced through the same
// DegradedCostPool as scheduled brownouts.
#pragma once

#include <string>
#include <vector>

#include "common/error.h"
#include "fleet/degradation.h"
#include "fleet/faults.h"
#include "fleet/migration.h"

namespace mib::fleet {

/// One named domain in the failure tree. An empty parent means the domain
/// hangs off the (implicit) root.
struct DomainSpec {
  std::string name;
  std::string parent;
};

struct TopologyConfig {
  std::vector<DomainSpec> domains;
  /// Pool slot -> domain the replica attaches to (usually a leaf node
  /// domain). Shorter than the pool or holding "" means "own isolated
  /// node": the replica shares no failure domain with anyone.
  std::vector<std::string> replica_domain;

  bool enabled() const {
    return !domains.empty() || !replica_domain.empty();
  }
  void validate(int pool) const;
};

/// Correlated outage: every replica under `domain` is down [start_s, end_s).
struct DomainFault {
  std::string domain;
  double start_s = 0.0;
  double end_s = 0.0;

  void validate() const {
    MIB_ENSURE(!domain.empty(), "domain fault names no domain");
    MIB_ENSURE(start_s >= 0.0, "domain fault starts before t=0");
    MIB_ENSURE(end_s > start_s, "domain fault must have positive duration");
  }
};

/// Correlated brownout: every replica under `domain` runs at `scale` (a
/// contended ToR switch degrades the whole rack's link bandwidth at once).
struct DomainDegradation {
  std::string domain;
  double start_s = 0.0;
  double end_s = 0.0;
  PerfScale scale;

  void validate() const {
    MIB_ENSURE(!domain.empty(), "domain degradation names no domain");
    DegradationWindow probe{0, start_s, end_s, scale};
    probe.validate();
  }
};

/// Immutable view of the domain tree with replica attachment resolved.
class Topology {
 public:
  Topology(const TopologyConfig& cfg, int pool);

  /// Replicas attached at or below `domain` (ascending). Throws on an
  /// unknown domain name.
  std::vector<int> replicas_under(const std::string& domain) const;
  /// The failure domain a placement decision should spread over: the
  /// parent of the replica's attachment domain (the rack above the node),
  /// or the attachment itself when it hangs off the root. "" for an
  /// isolated replica — it shares a blast radius with nobody.
  const std::string& spread_group_of(int replica) const;

 private:
  int index_of(const std::string& name) const;  ///< -1 when absent

  std::vector<DomainSpec> domains_;
  std::vector<int> parent_;          ///< domain index -> parent index or -1
  std::vector<int> attachment_;      ///< replica -> domain index or -1
  std::vector<std::string> spread_group_;  ///< replica -> placement group
};

/// Expand domain faults over the topology and merge them with the explicit
/// per-replica schedule by interval union, so the result is disjoint per
/// replica (a node outage inside its rack's outage is one window).
std::vector<FaultWindow> expand_domain_faults(
    const Topology& topo, const std::vector<DomainFault>& events,
    std::vector<FaultWindow> base);

/// Expand domain degradations and append them to the per-replica schedule.
/// Throws when any two resulting windows for one replica overlap.
std::vector<DegradationWindow> expand_domain_degradations(
    const Topology& topo, const std::vector<DomainDegradation>& events,
    std::vector<DegradationWindow> base);

/// Post-recovery warm-up: cold caches and JIT recompilation modeled as a
/// self-clearing degradation staircase after every fault / maintenance
/// recovery edge.
struct WarmupConfig {
  bool enabled = false;
  double duration_s = 0.3;     ///< ramp length after a recovery edge
  double initial_scale = 0.5;  ///< flops/mem_bw fraction right at recovery
  int ramp_steps = 4;          ///< staircase resolution of the linear ramp
  /// Down-time-dependent ramps: with downtime_ref_s > 0 an outage of
  /// length d ramps for duration_s * min(1, d / downtime_ref_s) starting
  /// at 1 - (1 - initial_scale) * min(1, d / downtime_ref_s). A short
  /// blip barely cools the caches, so it barely ramps; outages at or
  /// beyond the reference pay the full configured staircase. 0 = every
  /// recovery pays the full ramp.
  double downtime_ref_s = 0.0;

  void validate() const {
    MIB_ENSURE(duration_s > 0.0, "warm-up duration must be > 0");
    MIB_ENSURE(initial_scale > 0.0 && initial_scale <= 1.0,
               "warm-up initial scale must lie in (0, 1]");
    MIB_ENSURE(ramp_steps >= 1, "warm-up needs at least one ramp step");
    MIB_ENSURE(downtime_ref_s >= 0.0, "negative warm-up down-time reference");
  }
};

struct WarmupPlan {
  std::vector<DegradationWindow> windows;
  int recoveries = 0;  ///< recovery edges that begin a warm-up ramp
};

/// Build the warm-up staircases for every recovery edge in the (already
/// expanded) fault schedule and the maintenance schedule. A staircase is
/// clipped at the replica's next down edge, so warm-up windows never
/// overlap each other; overlap with *scheduled* degradations is allowed
/// and composed multiplicatively by the fleet loop.
WarmupPlan plan_warmup(const WarmupConfig& cfg,
                       const std::vector<FaultWindow>& faults,
                       const std::vector<MaintenanceWindow>& maintenance);

}  // namespace mib::fleet
