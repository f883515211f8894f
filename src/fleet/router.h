// Front-end load balancing across engine replicas.
//
// Three pluggable policies:
//  - round-robin: cycle over routable replicas (oblivious baseline);
//  - least-outstanding: power-of-two-choices over outstanding decode+prefill
//    tokens (two random candidates, keep the lighter — near-optimal load
//    spread at O(1) cost);
//  - prefix-affinity: pin each conversation to the replica that holds its
//    cached prefix, falling back to a deterministic least-loaded scan for
//    new conversations or when the pinned replica is down or out of
//    service. Pins survive outages (the prefix may still be warm after
//    recovery), the fallback routing is temporary.
//
// Routers never see the network directly: the fleet loop hands route()
// a routable set already filtered through the control plane (breaker
// views, partition reachability — including the per-direction links of an
// asymmetric cut — and quorum fencing; see control_plane.h).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fleet/replica.h"

namespace mib::fleet {

enum class RoutePolicy {
  kRoundRobin,
  kLeastOutstanding,
  kPrefixAffinity,
};

const char* route_policy_name(RoutePolicy policy);

class Router {
 public:
  Router(RoutePolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  /// Pick a replica for `seq`. `routable` lists the indices (into
  /// `replicas`) currently accepting traffic; it must be non-empty.
  int route(const Sequence& seq, const std::vector<Replica>& replicas,
            const std::vector<int>& routable);

 private:
  /// Deterministic argmin of outstanding tokens (ties -> lowest index).
  static int least_loaded(const std::vector<Replica>& replicas,
                          const std::vector<int>& routable);

  RoutePolicy policy_;
  Rng rng_;
  std::uint64_t rr_next_ = 0;
  std::unordered_map<std::uint64_t, int> pins_;  ///< prefix hash -> replica
};

}  // namespace mib::fleet
