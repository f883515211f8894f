// The two clocks of the fleet loop. The next pass of FleetSimulator::run
// happens at the earliest of:
//   * the event calendar: a min-heap of (time, kind, target) entries for
//     timers and schedule edges whose state lives elsewhere (a breaker
//     deadline, a heartbeat, a view sync, a hedge trigger, client patience,
//     an autoscaler tick, a schedule edge);
//   * the waiting queues: work parked until a wake time (retries, KV
//     migrations, overlap-drain handoffs, router fail-overs), one
//     WaitQueue each, and the next trace arrival, held in arrival order;
// or at the earliest step end, which is on neither clock: each is its
// replica's own state. An independent run (see fleet/fleet.h) advances its
// replicas' step ends in windows up to the earlier of the two clocks;
// every other run gives each step end a pass of its own.
//
// Calendar entries pop in (time, kind, target) order. `EventKind` lists the
// kinds in the order the loop's handlers run within one pass, so entries
// due at the same time reach their handlers in handler order, then target
// order; `kStepEnd` marks where the step ends due, read off the replicas,
// take their turn.
//
// Owners never search the heap to move or cancel an entry: they push a new
// one and leave the old one behind. The loop asks its `live` predicate
// about the entry on top before it makes a pass, and an entry whose owner
// has since moved or cancelled it is dropped there, so it never produces a
// pass of its own. A waiting queue holds its entries themselves, so an
// entry removed from it is simply gone.
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

/// What an entry wakes, in handler order (see FleetSimulator::run).
enum class EventKind : unsigned char {
  kHeartbeat,        ///< target replica emits a heartbeat
  kScaleEdge,        ///< brownout or warm-up edge: reprice target replica
  kMaintenanceEdge,  ///< maintenance edge: drain or return target replica
  kFaultEdge,        ///< fault edge: crash or restart of target replica
  kBreaker,          ///< target replica's breaker deadline
  kViewSync,         ///< target router's view-sync deadline
  kPlaneEdge,        ///< router fault, partition or quorum-fence edge
  kStepEnd,          ///< target replica's engine step ends (a due kind
                     ///< only: step ends are not calendar entries)
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

  /// Time of the earliest entry `live` accepts, or +infinity. Entries it
  /// rejects are dropped on the way.
  template <typename Live>
  double next(Live&& live) {
    while (!heap_.empty() && !live(heap_.front())) pop();
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().time;
  }

  /// Hand every entry due at or before t to `f`, in (time, kind, target)
  /// order, and remove it.
  template <typename F>
  void pop_due(double t, F&& f) {
    while (!heap_.empty() && heap_.front().time <= t) f(pop());
  }

  /// Remove every entry of `kind` for `target` (rare: a suspended
  /// replica's heartbeat).
  void cancel(EventKind kind, int target) {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [&](const Event& e) {
                                 return e.kind == kind && e.target == target;
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }

  /// Earliest time among the entries `pred` accepts, or +infinity. Scans
  /// the whole heap; for the rare question "when can anything change".
  template <typename Pred>
  double earliest(Pred&& pred) const {
    double best = std::numeric_limits<double>::infinity();
    for (const Event& e : heap_) {
      if (e.time < best && pred(e)) best = e.time;
    }
    return best;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  std::vector<Event> heap_;
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
    return entries_.empty() ? std::numeric_limits<double>::infinity()
                            : entries_.begin()->first.first;
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
