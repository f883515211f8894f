// Replica fault model: scheduled failure/recovery windows plus the retry
// policy the front-end applies when a replica dies with work on it.
//
// A fault window takes one replica out of service for [start_s, end_s):
// while down it accepts no routing, and everything queued or running on it
// at failure time is evacuated — progress lost (KV gone) — and re-submitted
// to the router after an exponential backoff. Requests exceeding the retry
// budget are reported lost (the fleet's request-conservation invariant
// still accounts for them).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace mib::fleet {

/// One outage: replica (or, as RouterFaultWindow, router) `replica` is
/// down for [start_s, end_s). Maintenance windows share the type.
struct FaultWindow {
  int replica = 0;
  double start_s = 0.0;
  double end_s = 0.0;

  void validate() const {
    MIB_ENSURE(replica >= 0, "outage window names a negative id");
    MIB_ENSURE(start_s >= 0.0, "outage window starts before t=0");
    MIB_ENSURE(end_s > start_s, "outage window must have positive duration");
  }
};

// Every timed per-replica schedule in the fleet (faults, maintenance,
// router faults, brownouts, warm-up ramps) is a list of windows with
// `replica`, `start_s` and `end_s`, disjoint per replica. The three
// templates below are the one implementation of its validation, its
// point query and its edges, which the fleet loop's event calendar is
// compiled from. The loop holds each replica's state between edges, and
// the control plane each router's, and each makes the point query only
// where it applies a due edge.

/// Throws when two windows for the same replica overlap or duplicate each
/// other (such schedules double-count transitions and make the evacuation
/// accounting ambiguous). `what` names the windows and their owner in the
/// message, e.g. "fault windows for replica".
template <typename W>
void ensure_disjoint_windows(const std::vector<W>& windows,
                             const char* what = "fault windows for replica") {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      const auto& a = windows[i];
      const auto& b = windows[j];
      if (a.replica != b.replica) continue;
      MIB_ENSURE(a.end_s <= b.start_s || b.end_s <= a.start_s,
                 "overlapping " << what << " " << a.replica << ": ["
                                << a.start_s << ", " << a.end_s << ") and ["
                                << b.start_s << ", " << b.end_s << ")");
    }
  }
}

/// The window covering `replica` at time t, or nullptr.
template <typename W>
const W* window_at(const std::vector<W>& windows, int replica, double t) {
  for (const auto& w : windows) {
    if (w.replica == replica && t >= w.start_s && t < w.end_s) return &w;
  }
  return nullptr;
}

/// Every window edge (start and end) as (time, replica), in that order.
template <typename W>
std::vector<std::pair<double, int>> window_edges(
    const std::vector<W>& windows) {
  std::vector<std::pair<double, int>> edges;
  edges.reserve(2 * windows.size());
  for (const auto& w : windows) {
    edges.emplace_back(w.start_s, w.replica);
    edges.emplace_back(w.end_s, w.replica);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Immutable outage schedule with a point-in-time query.
class FaultSchedule {
 public:
  explicit FaultSchedule(std::vector<FaultWindow> windows);

  /// Whether `replica` is in service at time t.
  bool up(int replica, double t) const {
    return window_at(windows_, replica, t) == nullptr;
  }

  const std::vector<FaultWindow>& windows() const { return windows_; }

 private:
  std::vector<FaultWindow> windows_;
};

/// Stateless uniform draw in [0, 1) from a hash key: one splitmix64 step,
/// the same construction the conversation hash uses. Shared by the
/// server-side RetryPolicy jitter and the partition client-backoff jitter
/// so every jittered schedule in the fleet is reproducible from (seed,
/// request id, attempt) alone.
double jitter_uniform(std::uint64_t key);

/// Exponential-backoff retry for requests evacuated from a failed replica.
struct RetryPolicy {
  double backoff_s = 0.05;   ///< delay before the first re-route
  double multiplier = 2.0;   ///< backoff growth per subsequent retry
  int max_retries = 8;       ///< beyond this the request is reported lost
  /// Jitter fraction in [0, 1]: the delay is drawn uniformly from
  /// [(1 - jitter) * d, d] where d is the exponential backoff. 0 keeps
  /// the deterministic schedule; 1 is AWS-style full jitter. Without it a
  /// mass evacuation retries in a synchronized thundering herd that lands
  /// on the survivors as one burst.
  double jitter = 0.0;

  void validate() const {
    MIB_ENSURE(backoff_s > 0.0, "retry backoff must be > 0");
    MIB_ENSURE(multiplier >= 1.0, "retry multiplier must be >= 1");
    MIB_ENSURE(max_retries >= 0, "negative retry budget");
    MIB_ENSURE(jitter >= 0.0 && jitter <= 1.0,
               "retry jitter must lie in [0, 1]");
  }

  /// Delay applied before retry number `attempt` (1-based). `jitter_key`
  /// seeds the stateless jitter draw (hash of run seed, request id and
  /// attempt) so runs stay reproducible; it is ignored when jitter == 0.
  double delay(int attempt, std::uint64_t jitter_key = 0) const;
};

}  // namespace mib::fleet
