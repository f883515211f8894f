#include "fleet/control_plane.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace mib::fleet {

namespace {

bool contains(const std::vector<int>& v, int x) {
  for (int e : v) {
    if (e == x) return true;
  }
  return false;
}

}  // namespace

const char* heal_policy_name(HealPolicy policy) {
  switch (policy) {
    case HealPolicy::kFenceMinority: return "fence-the-minority";
    case HealPolicy::kFirstCommitWins: return "first-commit-wins";
  }
  return "unknown";
}

const char* quorum_policy_name(QuorumPolicy policy) {
  switch (policy) {
    case QuorumPolicy::kServeStale: return "serve-stale";
    case QuorumPolicy::kFenceAtCut: return "fence-at-cut";
    case QuorumPolicy::kFenceAfterGrace: return "fence-after-grace";
  }
  return "unknown";
}

void PartitionWindow::validate() const {
  MIB_ENSURE(start_s >= 0.0, "partition window starts before t=0");
  MIB_ENSURE(end_s > start_s, "partition window must have positive duration");
  MIB_ENSURE(!minority_routers.empty(),
             "partition window needs at least one minority router");
  for (std::size_t i = 0; i < minority_routers.size(); ++i) {
    MIB_ENSURE(minority_routers[i] >= 0,
               "partition window names a negative router");
    for (std::size_t j = i + 1; j < minority_routers.size(); ++j) {
      MIB_ENSURE(minority_routers[i] != minority_routers[j],
                 "partition window lists router " << minority_routers[i]
                                                  << " twice");
    }
  }
  for (std::size_t i = 0; i < minority_replicas.size(); ++i) {
    MIB_ENSURE(minority_replicas[i] >= 0,
               "partition window names a negative replica");
    for (std::size_t j = i + 1; j < minority_replicas.size(); ++j) {
      MIB_ENSURE(minority_replicas[i] != minority_replicas[j],
                 "partition window lists replica " << minority_replicas[i]
                                                   << " twice");
    }
  }
  MIB_ENSURE(flap_period_s >= 0.0, "negative flap period");
  if (flap_period_s > 0.0) {
    MIB_ENSURE(flap_duty > 0.0 && flap_duty <= 1.0,
               "flap duty cycle must be in (0, 1]");
  }
}

void PartitionConfig::validate(int routers) const {
  if (!enabled) {
    MIB_ENSURE(windows.empty(),
               "partition windows configured but partition.enabled is false");
    return;
  }
  MIB_ENSURE(client_retry_s > 0.0, "partition client retry must be > 0");
  MIB_ENSURE(quorum_grace_s >= 0.0, "negative quorum grace");
  MIB_ENSURE(retry_multiplier >= 1.0,
             "client retry multiplier must be >= 1 (backoff cannot shrink)");
  MIB_ENSURE(retry_jitter >= 0.0 && retry_jitter <= 1.0,
             "client retry jitter must be in [0, 1]");
  MIB_ENSURE(max_client_retries >= 1,
             "clients need at least one patience expiry");
  for (const auto& w : windows) {
    w.validate();
    MIB_ENSURE(static_cast<int>(w.minority_routers.size()) < routers,
               "partition minority must leave at least one majority router");
    for (int r : w.minority_routers) {
      MIB_ENSURE(r < routers,
                 "partition names router " << r << " of " << routers);
    }
  }
  // Overlapping partitions would make the side assignment ambiguous.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      const auto& a = windows[i];
      const auto& b = windows[j];
      MIB_ENSURE(a.end_s <= b.start_s || b.end_s <= a.start_s,
                 "overlapping partition windows");
    }
  }
}

ControlPlane::ControlPlane(const ControlPlaneConfig& cfg, RoutePolicy policy,
                           std::uint64_t seed, int pool)
    : cfg_(cfg), schedule_(cfg.router_faults) {
  cfg_.validate();
  routers_.reserve(static_cast<std::size_t>(cfg_.routers));
  for (int r = 0; r < cfg_.routers; ++r) {
    // Router 0 keeps the historical seed so routers=1 reproduces the
    // single-router fleet bit-for-bit; extra routers derive theirs.
    std::uint64_t s = seed ^ 0xF1EE7ull;
    if (r > 0) {
      std::uint64_t state =
          s + static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ull;
      s = splitmix64(state);
    }
    routers_.emplace_back(policy, s);
  }
  // Everything is routable at boot; the first sync overwrites this with
  // the live truth before any dispatch happens.
  views_.assign(static_cast<std::size_t>(cfg_.routers),
                std::vector<char>(static_cast<std::size_t>(pool), 1));
  next_sync_.resize(static_cast<std::size_t>(cfg_.routers), 0.0);
  for (int r = 0; r < cfg_.routers; ++r) {
    // Staggered cadence: router r syncs at (r+1)/routers * interval, then
    // every interval — the stagger is what opens real disagreement
    // windows between routers.
    next_sync_[static_cast<std::size_t>(r)] =
        cfg_.view_sync_interval_s * (r + 1) / cfg_.routers;
  }
  // Expand flapping windows into their cut episodes so partition_at and
  // the transition queries see every flap edge as a plain window edge.
  for (const auto& w : cfg_.partition.windows) {
    if (w.flap_period_s <= 0.0 || w.flap_duty >= 1.0) {
      expanded_.push_back(w);
      continue;
    }
    for (int k = 0;; ++k) {
      const double cut = w.start_s + k * w.flap_period_s;
      if (cut >= w.end_s) break;
      PartitionWindow episode = w;
      episode.start_s = cut;
      episode.end_s = std::min(w.end_s, cut + w.flap_duty * w.flap_period_s);
      expanded_.push_back(std::move(episode));
    }
  }
}

int ControlPlane::survivor(double t) const {
  for (int r = 0; r < cfg_.routers; ++r) {
    if (schedule_.up(r, t)) return r;
  }
  return -1;
}

const PartitionWindow* ControlPlane::partition_at(double t) const {
  if (!partition_enabled()) return nullptr;
  for (const auto& w : expanded_) {
    if (t >= w.start_s && t < w.end_s) return &w;
  }
  return nullptr;
}

bool ControlPlane::router_minority(int r, double t) const {
  const PartitionWindow* w = partition_at(t);
  return w != nullptr && contains(w->minority_routers, r);
}

bool ControlPlane::replica_minority(int i, double t) const {
  const PartitionWindow* w = partition_at(t);
  return w != nullptr && contains(w->minority_replicas, i);
}

bool ControlPlane::reachable(int router, int replica, double t) const {
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr) return true;
  const bool rtr_minor = contains(w->minority_routers, router);
  const bool rep_minor = contains(w->minority_replicas, replica);
  if (rtr_minor == rep_minor) return true;  // same side
  // Cross-cut dispatch travels router-side -> replica-side.
  return rtr_minor ? w->open_to_majority : w->open_to_minority;
}

bool ControlPlane::reply_reachable(int replica, int router, double t) const {
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr) return true;
  // A clean cut lets established response streams survive. Only an
  // asymmetric cut models reply loss.
  if (!w->open_to_minority && !w->open_to_majority) return true;
  const bool rep_minor = contains(w->minority_replicas, replica);
  const bool rtr_minor = contains(w->minority_routers, router);
  if (rep_minor == rtr_minor) return true;  // same side
  // The reply travels replica-side -> router-side.
  return rep_minor ? w->open_to_majority : w->open_to_minority;
}

bool ControlPlane::cancel_reachable(int replica, double t) const {
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr) return true;
  // Cancels originate on the majority side (the front end that resolved
  // the request); they cross into the minority only along an open
  // majority -> minority direction.
  return !contains(w->minority_replicas, replica) || w->open_to_minority;
}

bool ControlPlane::heartbeat_crosses(int replica, double t) const {
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr) return true;
  // The health monitor lives with the majority; a minority replica's
  // heartbeat needs the minority -> majority direction.
  return !contains(w->minority_replicas, replica) || w->open_to_majority;
}

bool ControlPlane::drain_reachable(int replica, double t) const {
  if (!cfg_.partition.sever_drain_fabric) return true;
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr) return true;
  // KV ships toward the majority side, where the drained work re-enters;
  // a minority source needs the minority -> majority direction.
  return !contains(w->minority_replicas, replica) || w->open_to_majority;
}

double ControlPlane::fence_time(const PartitionWindow& w) const {
  if (cfg_.partition.quorum == QuorumPolicy::kServeStale) {
    return std::numeric_limits<double>::infinity();
  }
  // A strict majority of routers keeps serving; the complement side holds
  // the tie-breaker, so a minority that IS the strict majority (possible
  // when most routers are named minority) never fences either — fencing
  // is only for the side that lost quorum.
  const int minority = static_cast<int>(w.minority_routers.size());
  if (2 * minority > cfg_.routers) {
    return std::numeric_limits<double>::infinity();
  }
  const double grace = cfg_.partition.quorum == QuorumPolicy::kFenceAtCut
                           ? 0.0
                           : cfg_.partition.quorum_grace_s;
  return w.start_s + grace;
}

bool ControlPlane::router_fenced(int r, double t) const {
  const PartitionWindow* w = partition_at(t);
  if (w == nullptr || !contains(w->minority_routers, r)) return false;
  return t >= fence_time(*w);
}

int ControlPlane::majority_survivor(double t) const {
  for (int r = 0; r < cfg_.routers; ++r) {
    if (schedule_.up(r, t) && !router_minority(r, t)) return r;
  }
  return -1;
}

std::vector<double> ControlPlane::partition_edges() const {
  std::vector<double> edges;
  if (!partition_enabled()) return edges;
  for (const auto& w : expanded_) {
    edges.push_back(w.start_s);
    edges.push_back(w.end_s);
    // The fence edge is an interior event (kFenceAfterGrace): the loop
    // must wake exactly when the minority's lease expires.
    const double fence = fence_time(w);
    if (fence > w.start_s && fence < w.end_s) edges.push_back(fence);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

void ControlPlane::sync(double now, const std::function<bool(int)>& live_ok,
                        const std::function<void(int, double)>& rearmed) {
  for (int r = 0; r < cfg_.routers; ++r) {
    const auto u = static_cast<std::size_t>(r);
    if (frozen_view(r, now)) continue;  // cut off from the sync channel
    if (stale_views()) {
      if (next_sync_[u] > now) continue;
      while (next_sync_[u] <= now) next_sync_[u] += cfg_.view_sync_interval_s;
      if (rearmed) rearmed(r, next_sync_[u]);
    }
    for (std::size_t i = 0; i < views_[u].size(); ++i) {
      views_[u][i] = live_ok(static_cast<int>(i)) ? 1 : 0;
    }
  }
}

void ControlPlane::accumulate_disagreement(double from, double to) {
  if (to <= from) return;
  // Views can differ under staggered syncs, or against a minority view
  // frozen by an active partition (event slices never straddle a
  // partition edge, so the side assignment at `from` covers the slice).
  if (!stale_views() && partition_at(from) == nullptr) return;
  for (std::size_t r = 1; r < views_.size(); ++r) {
    if (views_[r] != views_[0]) {
      disagreement_s_ += to - from;
      return;
    }
  }
}

}  // namespace mib::fleet
