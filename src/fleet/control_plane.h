// Control-plane redundancy: replicated front-end routers with eventually-
// consistent breaker views and client-side fail-over.
//
// The simplest front end is one infallible zero-latency router that always
// sees the live circuit-breaker state. Real front-ends are N
// replicated processes that (a) can die, and (b) learn breaker transitions
// through a view-sync channel with a propagation delay. Both costs become
// measurable here:
//
//  - Each request is pinned to a home router (request_id mod routers, the
//    usual client-side sharding). If the home router is down when the
//    request reaches it, the request strands there until the client's
//    fail-over timeout (failover_detection_s) fires, then re-enters at the
//    lowest-index surviving router.
//  - With view_sync_interval_s > 0, each router routes on a snapshot of
//    breaker state refreshed on its own staggered cadence. During the
//    stale window two routers can disagree — one still dispatches to a
//    replica whose breaker has opened (the request strands on the dead
//    node until the restart is observed), the other already routes around
//    it. The fleet reports the accumulated disagreement time and the
//    number of stale dispatches.
//
// With routers = 1 and no router faults the plane collapses bit-for-bit to
// that single router: live view, no stranding.
//
// Network partitions: a PartitionWindow splits the plane into a
// majority and a minority side for [start_s, end_s). The minority routers
// (and optionally a slice of replicas cut off with them) keep serving on
// the breaker view they held when the partition started — they do not
// fail over, they diverge. A minority-homed request the minority side
// cannot answer within the client's retry patience is re-admitted on the
// majority side too (split-brain double dispatch); at heal time a
// configurable policy resolves the divergence: fence-the-minority cancels
// every duplicate copy the minority still holds (KV freed), while
// first-commit-wins lets both copies race to completion and cancels the
// loser. With partition.enabled = false no cut ever forms and the plane is
// bitwise-identical to the unpartitioned model above.
//
// Gray failures: real partitions are rarely the clean binary cut above.
// Four refinements, each defaulting to the clean cut:
//
//  - Asymmetric links: a window can leave one direction of the cut
//    passing traffic (open_to_minority / open_to_majority). One direction
//    rule decides every crossing: traffic between two ends on the same
//    side always passes; traffic from one side to the other passes only
//    when the direction it travels is open. Each kind of traffic has a
//    fixed direction:
//      dispatch   router side -> replica side;
//      reply      replica side -> router side;
//      cancel     majority -> replica side (the resolving front end);
//      heartbeat  replica side -> majority (the health monitor);
//      drain KV   replica side -> majority (the drain target), and only
//                 when the partition severs the drain fabric.
//    One exception: a clean cut (both flags false) keeps the charitable
//    assumption that response streams established before or across the
//    cut survive it, so replies always pass; an asymmetric cut is
//    precisely the gray failure where they do not. A dispatch that
//    crosses along an open direction whose reply direction is dark
//    decodes to completion and nobody hears (an orphaned completion,
//    charged to lost_completion_s).
//  - Flapping: flap_period_s / flap_duty expand one configured window
//    into a train of short cuts, re-running the freeze/heal machinery at
//    every edge. Breakers, frozen views, heal fencing and quorum grace
//    all restart per flap episode.
//  - Quorum self-fencing: with quorum != kServeStale, a minority side
//    that cannot see a strict majority of routers stops admitting —
//    immediately (kFenceAtCut) or after quorum_grace_s of serving stale
//    (kFenceAfterGrace). Fenced dispatches are re-homed to the majority
//    survivor instead of being double-dispatched later.
//  - Jittered client backoff: the single fixed client patience becomes a
//    full-jitter exponential schedule (retry_multiplier, retry_jitter,
//    max_client_retries), reusing the splitmix hash scheme of the
//    server-side RetryPolicy.
//
// The plane's state changes only at its own edges (edges()): a router
// fault edge, or a cut, heal or interior quorum-fence edge. advance(t)
// sets the held state at t (the active cut episode, whether its minority
// has fenced, each router's fault state) and every query reads it; none
// takes a time. Outside a cut every query answers "no cut": all traffic
// passes, no router is minority or fenced, and survivor() equals
// majority_survivor().
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.h"
#include "fleet/faults.h"
#include "fleet/router.h"

namespace mib::fleet {

/// One front-end router outage: router `replica` is down for
/// [start_s, end_s).
using RouterFaultWindow = FaultWindow;

/// How the plane resolves split-brain state when a partition heals.
enum class HealPolicy {
  /// Cancel every duplicate copy still held on the minority side; its KV
  /// is freed and the majority copy carries the request alone.
  kFenceMinority,
  /// Let both copies race; the first to complete commits the request and
  /// the straggling duplicate is cancelled at that point.
  kFirstCommitWins,
};

const char* heal_policy_name(HealPolicy policy);

/// What a minority side does about the work it cannot coordinate. Without
/// a quorum rule the minority serves on its frozen view for the whole cut;
/// with one it notices it lost the majority and stops admitting.
enum class QuorumPolicy {
  /// The minority keeps admitting on its frozen view.
  kServeStale,
  /// The minority fences itself the instant the cut starts: new
  /// dispatches at a fenced router are refused and re-homed to the
  /// majority survivor.
  kFenceAtCut,
  /// The minority serves stale for quorum_grace_s (lease expiry), then
  /// fences. A flap shorter than the grace never fences.
  kFenceAfterGrace,
};

const char* quorum_policy_name(QuorumPolicy policy);

/// One network partition: for [start_s, end_s) the named routers (and,
/// optionally, replicas) form the minority side; everything else is the
/// majority. Routers can only reach replicas on their own side, and the
/// minority routers stop receiving view syncs — they route on the breaker
/// view frozen at the cut.
struct PartitionWindow {
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<int> minority_routers;
  /// Replicas cut off with the minority side (may be empty: the minority
  /// router then keeps admitting but can dispatch nowhere).
  std::vector<int> minority_replicas;
  /// Asymmetric cut: the majority -> minority direction stays up, so
  /// majority routers keep dispatching (and cancelling) onto minority
  /// replicas — but completions crossing back minority -> majority are
  /// lost unless open_to_majority is also set.
  bool open_to_minority = false;
  /// Asymmetric cut, other direction: minority routers can still dispatch
  /// onto majority replicas; replies majority -> minority are lost unless
  /// open_to_minority is also set. Both flags false = a clean cut.
  bool open_to_majority = false;
  /// Flapping: with flap_period_s > 0 this window expands into a train of
  /// cut episodes — cut for the first flap_duty fraction of every period,
  /// healed for the rest, clipped at end_s. Every episode freezes views
  /// and heals independently. 0 = one solid cut.
  double flap_period_s = 0.0;
  /// Fraction of each flap period spent cut, in (0, 1]. 1 = solid.
  double flap_duty = 0.5;

  void validate() const;
};

struct PartitionConfig {
  bool enabled = false;
  /// Client patience before a minority-homed request, still without a
  /// first token, is re-admitted on the majority side (the double
  /// dispatch). Measured from the dispatch at the minority router.
  double client_retry_s = 0.1;
  HealPolicy heal = HealPolicy::kFenceMinority;
  /// Whether a minority side without a strict router majority keeps
  /// serving or fences itself. The complement side always holds
  /// the tie-breaker and never fences.
  QuorumPolicy quorum = QuorumPolicy::kServeStale;
  /// Lease the minority serves on before kFenceAfterGrace fences it,
  /// measured from each cut (each flap episode re-runs the grace).
  double quorum_grace_s = 0.05;
  /// Client backoff across repeated patience expiries: attempt k waits
  /// client_retry_s * retry_multiplier^(k-1), full-jittered by
  /// retry_jitter (same splitmix scheme as RetryPolicy). The defaults —
  /// multiplier 1, jitter 0, one attempt — are a single fixed patience of
  /// client_retry_s.
  double retry_multiplier = 1.0;
  double retry_jitter = 0.0;
  int max_client_retries = 1;
  /// Partitions also sever the replica-to-replica drain fabric: a KV
  /// migration out of a minority-side source aborts mid-stripe (or is
  /// never attempted) and falls back to evacuate-and-recompute, unless
  /// the minority -> majority direction is open. false = drain traffic
  /// ignores cuts.
  bool sever_drain_fabric = false;
  std::vector<PartitionWindow> windows;

  void validate(int routers) const;
};

struct ControlPlaneConfig {
  int routers = 1;
  /// Seconds between a router's snapshots of breaker state; 0 = every
  /// router always sees the live view (a single shared view).
  double view_sync_interval_s = 0.0;
  /// Client-side lag before a request at a dead router re-enters at a
  /// surviving one.
  double failover_detection_s = 0.05;
  std::vector<RouterFaultWindow> router_faults;
  /// Network partitions that split the plane into majority/minority sides.
  PartitionConfig partition;

  void validate() const {
    MIB_ENSURE(routers >= 1, "control plane needs at least one router");
    MIB_ENSURE(view_sync_interval_s >= 0.0, "negative view-sync interval");
    MIB_ENSURE(failover_detection_s > 0.0,
               "router fail-over detection lag must be > 0");
    for (const auto& w : router_faults) {
      w.validate();
      MIB_ENSURE(w.replica < routers, "router fault names router "
                                          << w.replica << " of " << routers);
    }
    ensure_disjoint_windows(router_faults, "fault windows for router");
    partition.validate(routers);
  }
};

/// The replicated front end: per-router routing state, breaker-view
/// snapshots, and the plane's held state (current cut, fence, router
/// faults). Owned by one fleet run.
class ControlPlane {
 public:
  /// Starts at advance(0.0).
  ControlPlane(const ControlPlaneConfig& cfg, RoutePolicy policy,
               std::uint64_t seed, int pool);

  const ControlPlaneConfig& config() const { return cfg_; }
  int routers() const { return cfg_.routers; }

  /// Set the held state to the plane at t: the active cut episode, whether
  /// its minority has fenced, and each router's fault state. Works the
  /// state out from the config alone, so t may come in any order. Returns
  /// the cut held before the call.
  const PartitionWindow* advance(double t);
  /// Every router fault edge and every cut, heal and interior quorum-fence
  /// edge, ascending. Flap expansion makes every episode edge an edge here.
  std::vector<double> edges() const;

  /// The home router a request is pinned to.
  int assigned_router(int request_id) const {
    return request_id % cfg_.routers;
  }
  bool router_up(int r) const { return up_[static_cast<std::size_t>(r)] != 0; }
  /// Lowest-index live router that has not fenced itself, or -1 when the
  /// whole plane is dark (or every live router is fenced). Outside a cut
  /// no router is fenced, so this is the lowest live router.
  int survivor() const;

  /// Whether partitions are configured at all (windows may still be
  /// outside [0, makespan]). False keeps every partition path cold.
  bool partition_enabled() const {
    return cfg_.partition.enabled && !cfg_.partition.windows.empty();
  }
  /// The active cut episode, or nullptr. Flapping windows are pre-expanded
  /// into their cut episodes; the pointer identifies one episode and stays
  /// stable for the plane's lifetime.
  const PartitionWindow* cut() const {
    return cut_ < 0 ? nullptr : &expanded_[static_cast<std::size_t>(cut_)];
  }
  /// Number of cut episodes after flap expansion.
  int partition_cuts() const { return static_cast<int>(expanded_.size()); }
  /// Whether router r sits on the minority side of the cut. A minority
  /// router's view is frozen for the cut: it receives no syncs and routes
  /// on the snapshot it held when the cut began.
  bool router_minority(int r) const;
  /// Whether replica i is cut off with the minority side.
  bool replica_minority(int i) const;
  // The five crossing queries below apply the one direction rule (see the
  // gray-failure paragraph above) to one kind of traffic each.

  /// Whether router r can dispatch onto replica i.
  bool reachable(int router, int replica) const;
  /// Whether a completion from replica i can reach the router that
  /// dispatched it (always, under a clean cut).
  bool reply_reachable(int replica, int router) const;
  /// Whether a majority-initiated cancel reaches replica i.
  bool cancel_reachable(int replica) const;
  /// Whether replica i's heartbeat reaches the majority-side monitor.
  bool heartbeat_crosses(int replica) const;
  /// Whether replica i can ship KV toward the majority-side drain target
  /// (always true unless the partition severs the drain fabric).
  bool drain_reachable(int replica) const;
  /// Whether router r has fenced itself: it sits on a minority side with
  /// no strict router majority, the quorum policy fences, and the grace
  /// (if any) has expired for the current cut episode.
  bool router_fenced(int r) const { return fenced_ && router_minority(r); }
  /// Lowest-index live majority-side router, or -1.
  int majority_survivor() const;

  /// Whether routers hold independently aging views (vs one live view).
  bool stale_views() const {
    return cfg_.routers > 1 && cfg_.view_sync_interval_s > 0.0;
  }
  /// Refresh every view whose sync deadline has passed (all views, when
  /// the sync interval is 0). `live_ok(i)` is the ground-truth breaker /
  /// oracle routability of replica i at `now`. Minority routers of the
  /// held cut are skipped — their views stay frozen at the cut.
  /// `rearmed(r, t)`, when given, hears each router's new sync deadline.
  void sync(double now, const std::function<bool(int)>& live_ok,
            const std::function<void(int, double)>& rearmed = nullptr);
  /// Router r's next view-sync deadline (+inf with live views).
  double sync_deadline(int r) const {
    return stale_views() ? next_sync_[static_cast<std::size_t>(r)]
                         : std::numeric_limits<double>::infinity();
  }
  /// Router `r`'s (possibly stale) belief that replica i is routable.
  bool view_ok(int router, int replica) const {
    return views_[static_cast<std::size_t>(router)]
                 [static_cast<std::size_t>(replica)] != 0;
  }
  /// Charge (from, to] to the disagreement clock if any two routers'
  /// current views differ. The slice must lie within the held cut (or
  /// the held absence of one).
  void accumulate_disagreement(double from, double to);
  double disagreement_s() const { return disagreement_s_; }

  Router& router(int idx) { return routers_[static_cast<std::size_t>(idx)]; }

 private:
  /// Time at which the minority side of cut episode w fences, or +inf
  /// when its side never fences (has quorum, or quorum = kServeStale).
  double fence_time(const PartitionWindow& w) const;
  /// The direction rule: traffic from one side to the other crosses `cut`
  /// when both ends share a side or the direction it travels is open.
  static bool passes(const PartitionWindow& cut, bool from_minority,
                     bool to_minority);

  ControlPlaneConfig cfg_;
  std::vector<Router> routers_;
  std::vector<std::vector<char>> views_;  ///< router -> replica routable
  std::vector<double> next_sync_;
  /// Flap-expanded cut episodes; identical to cfg_.partition.windows when
  /// nothing flaps. advance() and edges() walk these.
  std::vector<PartitionWindow> expanded_;
  // The held state, set by advance().
  int cut_ = -1;          ///< index into expanded_, -1 outside a cut
  bool fenced_ = false;   ///< whether the cut's minority has fenced
  std::vector<char> up_;  ///< router -> no fault window covers it
  double disagreement_s_ = 0.0;
};

}  // namespace mib::fleet
