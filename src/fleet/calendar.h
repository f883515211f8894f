// The clocks of the fleet loop. The next pass of FleetSimulator::run
// happens at the earliest of:
//   * the event calendar: a min-heap of (time, kind, target) entries for
//     schedule edges and for timers whose state lives elsewhere (a view
//     sync, a hedge trigger, client patience, an autoscaler tick);
//   * the waiting queues: work parked until a wake time (retries, KV
//     migrations, overlap-drain handoffs, router fail-overs), one
//     WaitQueue each, and the next trace arrival, held in arrival order;
//   * the per-replica timers: each replica's step end, next heartbeat and
//     breaker deadline are its own state, and one scan of the pool per
//     pass finds the earliest of each and the replicas it falls on
//     (TimerScan).
// An independent run (see fleet/fleet.h) advances its replicas' step ends
// in windows up to the earliest of everything else; every other run gives
// each step end a pass of its own.
//
// Calendar entries pop in (time, kind, target) order. `EventKind` lists the
// kinds in the order the loop's handlers run within one pass, so entries
// due at the same time reach their handlers in handler order, then target
// order; the per-replica kinds (heartbeats, breaker deadlines, step ends)
// take their turn at their place in that order, in replica order.
//
// Nothing in the calendar or a waiting queue goes stale. A calendar entry
// is pushed only for a time that its owner never moves or cancels (a hedge
// trigger whose request has resolved still fires, and finds nothing to
// do), and an entry removed from a waiting queue is simply gone. A timer
// that can move or be cancelled (a breaker deadline that a heartbeat
// pushes back, the heartbeat of a suspended replica) is a per-replica
// timer, overwritten in place.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

namespace mib::fleet {

/// The time of an unarmed timer or an empty queue.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// What an entry wakes, in handler order (see FleetSimulator::run).
enum class EventKind : unsigned char {
  kHeartbeat,        ///< target replica emits a heartbeat (a per-replica
                     ///< timer, not a calendar entry)
  kScaleEdge,        ///< brownout or warm-up edge: reprice target replica
  kMaintenanceEdge,  ///< maintenance edge: drain or return target replica
  kFaultEdge,        ///< fault edge: crash or restart of target replica
  kBreaker,          ///< target replica's breaker deadline (a
                     ///< per-replica timer, not a calendar entry)
  kViewSync,         ///< target router's view-sync deadline
  kPlaneEdge,        ///< router fault, partition or quorum-fence edge
  kStepEnd,          ///< target replica's engine step ends (a
                     ///< per-replica timer, not a calendar entry)
  kHedge,            ///< hedge trigger of request target
  kClientRetry,      ///< client patience of request target expires
  kAutoscale,        ///< autoscaler tick
  kCount,
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kHeartbeat;
  int target = -1;  ///< replica, router or request id; -1 when none

  bool operator<(const Event& o) const {
    return std::tie(time, kind, target) < std::tie(o.time, o.kind, o.target);
  }
  bool operator>(const Event& o) const { return o < *this; }
};

class Calendar {
 public:
  void push(double time, EventKind kind, int target = -1) {
    heap_.push_back(Event{time, kind, target});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }

  /// Time of the earliest entry, or +infinity.
  double next() const { return heap_.empty() ? kInf : heap_.front().time; }

  /// Hand every entry due at or before t to `f`, in (time, kind, target)
  /// order, and remove it.
  template <typename F>
  void pop_due(double t, F&& f) {
    while (!heap_.empty() && heap_.front().time <= t) f(pop());
  }

  /// Earliest time among the entries `pred` accepts, or +infinity. Scans
  /// the whole heap; for the rare question "when can anything change".
  template <typename Pred>
  double earliest(Pred&& pred) const {
    double best = kInf;
    for (const Event& e : heap_) {
      if (e.time < best && pred(e)) best = e.time;
    }
    return best;
  }

 private:
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  std::vector<Event> heap_;
};

/// One kind of per-replica timer over the pool: the earliest time any
/// replica has armed and the replicas it falls on, in index order. Offer
/// each replica once per scan, in index order; +infinity is a timer that
/// is not armed.
struct TimerScan {
  explicit TimerScan(EventKind k) : kind(k) {}

  const EventKind kind;
  double time = kInf;
  std::vector<int> replicas;

  void clear() {
    time = kInf;
    replicas.clear();
  }

  void offer(int replica, double t) {
    if (t > time || t == kInf) return;
    if (t < time) replicas.clear();
    time = t;
    replicas.push_back(replica);
  }
};

/// Work of type T parked until a wake time, in (wake time, request id)
/// order; entries with equal keys keep the order they were parked in.
template <typename T>
class WaitQueue {
 public:
  void park(double time, int id, T item) {
    entries_.emplace(Key{time, id}, std::move(item));
  }

  /// Wake time of the first entry, or +infinity.
  double next() const {
    return entries_.empty() ? kInf : entries_.begin()->first.first;
  }

  /// Remove and return every entry due at or before t, in queue order.
  std::vector<T> take_due(double t) {
    const auto end =
        entries_.upper_bound(Key{t, std::numeric_limits<int>::max()});
    std::vector<T> due;
    for (auto it = entries_.begin(); it != end; ++it) {
      due.push_back(std::move(it->second));
    }
    entries_.erase(entries_.begin(), end);
    return due;
  }

  /// Visit every entry in queue order and remove those `drop` accepts;
  /// `drop` may move out of an entry it accepts.
  template <typename Drop>
  void erase_if(Drop&& drop) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = drop(it->second) ? entries_.erase(it) : std::next(it);
    }
  }

  template <typename Pred>
  bool any(Pred&& pred) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const auto& e) { return pred(e.second); });
  }

  bool empty() const { return entries_.empty(); }

 private:
  using Key = std::pair<double, int>;
  std::multimap<Key, T> entries_;
};

}  // namespace mib::fleet
