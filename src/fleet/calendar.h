// Event calendar of the fleet loop: a min-heap of (time, kind, target)
// entries that decides when the next pass of FleetSimulator::run happens
// and which handlers and replicas that pass touches.
//
// Entries pop in (time, kind, target) order. `EventKind` lists the kinds
// in the order the loop's handlers run within one pass, so entries due at
// the same time reach their handlers in handler order, then target order.
//
// Owners never search the heap to move or cancel an entry: they push a new
// one and leave the old one behind. The loop asks its `live` predicate
// about the entry on top before it makes a pass, and an entry whose owner
// has since moved or cancelled it is dropped there, so it never produces a
// pass of its own.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
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
  kStepEnd,          ///< target replica's engine step ends
  kHandoff,          ///< overlap-drain cutover of request target
  kMigration,        ///< KV migration of request target lands
  kArrival,          ///< the next trace arrival
  kRetry,            ///< parked dispatch of request target is due
  kRouterFailover,   ///< request target's client fail-over lag expires
  kHedge,            ///< hedge trigger of request target
  kClientRetry,      ///< client patience of request target expires
  kAutoscale,        ///< autoscaler tick
  kCount,
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kArrival;
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

}  // namespace mib::fleet
