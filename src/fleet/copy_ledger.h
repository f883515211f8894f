// CopyLedger — the one owner of a fleet run's per-request copy accounting.
//
// A request's live copies sit anywhere in the system: replica queues and
// running batches, retry holds, stranded lists, KV migrations. Hedging and
// split-brain double dispatch are the only ways a request holds more than
// one. The ledger counts them per request, marks each request resolved
// once, holds the client-patience flags, and feeds every report counter a
// copy's life moves. Handlers call its verbs and touch no counter.
//
// A copy's life:
// - spawn: the arrival, a hedge, a client re-send after every copy
//   evaporated, or a majority-side duplicate of a partitioned request;
// - retire: the copy leaves without resolving its request, for a Retire
//   reason that names the counter it feeds;
// - resolve: a request ends once, with the copy that carried it
//   (resolve_with) or with none live (resolve: rejected at the door, or
//   lost after its last copy was orphaned).
//
// The stray rule: a copy of an already-resolved request served nobody.
// Retired for any reason but a shed or a crash release it is a cancelled
// loser, wherever it meets its end (a heal, a deadline, a drain, an
// overlap cutover, a photo-finish completion or the end of the run). A
// shed hedge stays shed, and a crash release keeps its duplicate charge.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "fleet/fleet.h"

namespace mib::fleet {

/// How a copy joins its request.
enum class Spawn {
  kArrival,       ///< the first copy, at the request's arrival
  kHedge,         ///< hedges_issued, RequestRecord::hedged
  kResend,        ///< client_resends: every copy had evaporated
  kPartitionDup,  ///< double_dispatches, RequestRecord::double_dispatched
};

/// Why a copy leaves without resolving its request, and what it feeds.
/// The duplicate charge adds the copy's served_s to duplicate_decode_s
/// when its request was double-dispatched, and is a no-op otherwise.
enum class Retire {
  /// Loser of a resolved request: the duplicate charge for a
  /// double-dispatched request, hedges_cancelled otherwise (never both).
  kCancelled,
  kDuplicate,  ///< another copy still carries the request: duplicate charge
  kShed,       ///< a waiting hedge shed for admission room: hedges_shed
  /// Fenced off the minority at a heal: fenced_requests,
  /// RequestRecord::fenced, and the duplicate charge.
  kFenced,
  /// Finished behind an asymmetric cut: orphaned_completions,
  /// lost_completion_s, RequestRecord::orphaned.
  kOrphaned,
  /// Released off a crashed replica while another copy carries the
  /// request or it already resolved: the duplicate charge.
  kCrashRelease,
};

class CopyLedger {
 public:
  /// One entry per request of `rep`, which must outlive the ledger.
  explicit CopyLedger(FleetReport& rep)
      : rep_(rep),
        copies_(rep.requests.size(), 0),
        done_(rep.requests.size(), 0),
        patience_(rep.requests.size(), 0) {}

  int copies(int id) const { return copies_[id]; }
  bool resolved(int id) const { return done_[id] != 0; }
  std::size_t resolved_total() const { return resolved_; }
  /// The request is over, or another copy carries it.
  bool redundant(int id) const { return done_[id] || copies_[id] > 1; }
  /// Some double-dispatched request is still racing: unresolved, with
  /// more than one live copy.
  bool racing() const {
    for (int id : dup_ids_) {
      if (!done_[id] && copies_[id] > 1) return true;
    }
    return false;
  }

  void spawn(int id, Spawn kind) {
    MIB_ENSURE(!done_[id],
               "request " << id << " spawned a copy after it resolved");
    ++copies_[id];
    auto& rec = rep_.requests[id];
    switch (kind) {
      case Spawn::kArrival: break;
      case Spawn::kHedge:
        ++rep_.hedges_issued;
        rec.hedged = true;
        break;
      case Spawn::kResend: ++rep_.client_resends; break;
      case Spawn::kPartitionDup:
        ++rep_.double_dispatches;
        rec.double_dispatched = true;
        dup_ids_.push_back(id);
        break;
    }
  }

  void retire(const Sequence& s, Retire why) {
    const int id = s.request_id;
    drop_copy(id);
    if (done_[id] && why != Retire::kShed && why != Retire::kCrashRelease) {
      why = Retire::kCancelled;  // the stray rule
    }
    auto& rec = rep_.requests[id];
    switch (why) {
      case Retire::kCancelled:
        if (rec.double_dispatched) {
          rep_.duplicate_decode_s += s.served_s;
        } else {
          ++rep_.hedges_cancelled;
        }
        break;
      case Retire::kFenced:
        ++rep_.fenced_requests;
        rec.fenced = true;
        [[fallthrough]];
      case Retire::kDuplicate:
      case Retire::kCrashRelease:
        if (rec.double_dispatched) rep_.duplicate_decode_s += s.served_s;
        break;
      case Retire::kShed: ++rep_.hedges_shed; break;
      case Retire::kOrphaned:
        ++rep_.orphaned_completions;
        rep_.lost_completion_s += s.served_s;
        rec.orphaned = true;
        break;
    }
  }

  /// Resolve a request that holds no live copy.
  void resolve(const Sequence& s, RequestStatus status) {
    MIB_ENSURE(copies_[s.request_id] == 0,
               "request " << s.request_id << " resolved past a live copy");
    close(s, status);
  }

  /// Resolve a request with `s`, the copy that carried it to `status`
  /// (the completing winner, the last copy expired or lost in a crash);
  /// `s` retires with it and feeds nothing else.
  void resolve_with(const Sequence& s, RequestStatus status) {
    drop_copy(s.request_id);
    close(s, status);
  }

  // Client patience: whether a kClientRetry entry is pending per request.
  bool patience_pending(int id) const { return patience_[id] != 0; }
  void arm_patience(int id) { patience_[id] = 1; }
  void clear_patience(int id) { patience_[id] = 0; }

 private:
  void drop_copy(int id) {
    MIB_ENSURE(copies_[id] > 0,
               "request " << id << " retired a copy it does not hold");
    --copies_[id];
  }

  void close(const Sequence& s, RequestStatus status) {
    const int id = s.request_id;
    MIB_ENSURE(!done_[id], "request " << id << " resolved twice");
    done_[id] = 1;
    ++resolved_;
    auto& rec = rep_.requests[id];
    rec.status = status;
    rec.arrival_s = s.arrival_s;
    rec.input_tokens = s.input_tokens;
    rec.output_tokens = s.output_tokens;
    rec.retries = s.retries;
    rec.had_prefix = s.prefix_hash != 0;
    switch (status) {
      case RequestStatus::kCompleted: ++rep_.completed; break;
      case RequestStatus::kRejected: ++rep_.rejected; break;
      case RequestStatus::kExpired: ++rep_.expired; break;
      case RequestStatus::kLost: ++rep_.lost; break;
    }
  }

  FleetReport& rep_;
  std::vector<int> copies_;
  std::vector<char> done_;
  std::vector<char> patience_;
  /// Requests ever double-dispatched, in dispatch order.
  std::vector<int> dup_ids_;
  std::size_t resolved_ = 0;
};

}  // namespace mib::fleet
