// CopyLedger: each verb's precondition, and which report counter each
// spawn kind, retire reason and resolution feeds.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fleet/copy_ledger.h"

namespace mib::fleet {
namespace {

FleetReport report(int n) {
  FleetReport rep;
  rep.requests.resize(n);
  return rep;
}

Sequence copy_of(int id, double served_s = 0.0) {
  Sequence s;
  s.request_id = id;
  s.served_s = served_s;
  return s;
}

using Moves = std::map<std::string, double>;

/// Every counter and per-request flag a ledger verb may move.
Moves counters(const FleetReport& r, int id) {
  const auto& rec = r.requests[id];
  return {
      {"completed", r.completed},
      {"rejected", r.rejected},
      {"expired", r.expired},
      {"lost", r.lost},
      {"hedges_issued", r.hedges_issued},
      {"hedges_cancelled", r.hedges_cancelled},
      {"hedges_shed", r.hedges_shed},
      {"client_resends", r.client_resends},
      {"double_dispatches", r.double_dispatches},
      {"duplicate_decode_s", r.duplicate_decode_s},
      {"fenced_requests", r.fenced_requests},
      {"orphaned_completions", r.orphaned_completions},
      {"lost_completion_s", r.lost_completion_s},
      {"rec.hedged", rec.hedged},
      {"rec.double_dispatched", rec.double_dispatched},
      {"rec.fenced", rec.fenced},
      {"rec.orphaned", rec.orphaned},
  };
}

/// The counters that changed between two snapshots, with their deltas.
Moves moved(const Moves& a, const Moves& b) {
  Moves out;
  for (const auto& [name, value] : b) {
    if (value != a.at(name)) out[name] = value - a.at(name);
  }
  return out;
}

TEST(CopyLedger, SpawningACopyOfAResolvedRequestThrows) {
  FleetReport rep = report(1);
  CopyLedger ledger(rep);
  ledger.spawn(0, Spawn::kArrival);
  ledger.resolve_with(copy_of(0), RequestStatus::kCompleted);
  for (Spawn kind : {Spawn::kArrival, Spawn::kHedge, Spawn::kResend,
                     Spawn::kPartitionDup}) {
    EXPECT_THROW(ledger.spawn(0, kind), Error);
  }
}

TEST(CopyLedger, RetiringWithNoLiveCopyThrows) {
  FleetReport rep = report(1);
  CopyLedger ledger(rep);
  EXPECT_THROW(ledger.retire(copy_of(0), Retire::kDuplicate), Error);
  EXPECT_THROW(ledger.resolve_with(copy_of(0), RequestStatus::kExpired),
               Error);
  ledger.spawn(0, Spawn::kArrival);
  ledger.retire(copy_of(0), Retire::kOrphaned);
  EXPECT_THROW(ledger.retire(copy_of(0), Retire::kOrphaned), Error);
  EXPECT_EQ(ledger.copies(0), 0);
}

TEST(CopyLedger, ResolvingTwiceThrows) {
  FleetReport rep = report(2);
  CopyLedger ledger(rep);
  ledger.resolve(copy_of(0), RequestStatus::kRejected);
  EXPECT_THROW(ledger.resolve(copy_of(0), RequestStatus::kLost), Error);
  ledger.spawn(1, Spawn::kArrival);
  ledger.spawn(1, Spawn::kHedge);
  ledger.resolve_with(copy_of(1), RequestStatus::kCompleted);
  EXPECT_THROW(ledger.resolve_with(copy_of(1), RequestStatus::kCompleted),
               Error);
  EXPECT_EQ(ledger.resolved_total(), 2u);
}

TEST(CopyLedger, ResolvingPastALiveCopyThrows) {
  FleetReport rep = report(1);
  CopyLedger ledger(rep);
  ledger.spawn(0, Spawn::kArrival);
  EXPECT_THROW(ledger.resolve(copy_of(0), RequestStatus::kLost), Error);
  EXPECT_FALSE(ledger.resolved(0));
}

TEST(CopyLedger, EachSpawnKindFeedsOnlyItsCounter) {
  const std::pair<Spawn, Moves> cases[] = {
      {Spawn::kArrival, {}},
      {Spawn::kHedge, {{"hedges_issued", 1}, {"rec.hedged", 1}}},
      {Spawn::kResend, {{"client_resends", 1}}},
      {Spawn::kPartitionDup,
       {{"double_dispatches", 1}, {"rec.double_dispatched", 1}}},
  };
  for (const auto& [kind, want] : cases) {
    FleetReport rep = report(1);
    CopyLedger ledger(rep);
    const auto before = counters(rep, 0);
    ledger.spawn(0, kind);
    EXPECT_EQ(moved(before, counters(rep, 0)), want);
    EXPECT_EQ(ledger.copies(0), 1);
  }
}

// One live request with two copies; `dup` marks it double-dispatched.
struct TwoCopies {
  FleetReport rep = report(1);
  CopyLedger ledger{rep};
  explicit TwoCopies(bool dup) {
    ledger.spawn(0, Spawn::kArrival);
    ledger.spawn(0, dup ? Spawn::kPartitionDup : Spawn::kHedge);
  }
};

TEST(CopyLedger, EachRetireReasonFeedsOnlyItsCounter) {
  constexpr double kServed = 0.25;
  struct Case {
    Retire why;
    Moves plain;  ///< a hedged request
    Moves dup;    ///< a double-dispatched request
  };
  const Moves charge = {{"duplicate_decode_s", kServed}};
  const Case cases[] = {
      {Retire::kCancelled, {{"hedges_cancelled", 1}}, charge},
      {Retire::kDuplicate, {}, charge},
      {Retire::kShed, {{"hedges_shed", 1}}, {{"hedges_shed", 1}}},
      {Retire::kFenced,
       {{"fenced_requests", 1}, {"rec.fenced", 1}},
       {{"fenced_requests", 1}, {"rec.fenced", 1},
        {"duplicate_decode_s", kServed}}},
      {Retire::kOrphaned,
       {{"orphaned_completions", 1}, {"lost_completion_s", kServed},
        {"rec.orphaned", 1}},
       {{"orphaned_completions", 1}, {"lost_completion_s", kServed},
        {"rec.orphaned", 1}}},
      {Retire::kCrashRelease, {}, charge},
  };
  for (const auto& c : cases) {
    for (bool dup : {false, true}) {
      SCOPED_TRACE(static_cast<int>(c.why) * 2 + dup);
      TwoCopies t(dup);
      const auto before = counters(t.rep, 0);
      t.ledger.retire(copy_of(0, kServed), c.why);
      EXPECT_EQ(moved(before, counters(t.rep, 0)), dup ? c.dup : c.plain);
      EXPECT_EQ(t.ledger.copies(0), 1);
      EXPECT_FALSE(t.ledger.resolved(0));
    }
  }
}

TEST(CopyLedger, AStrayIsCancelledWhateverItsReasonButShedAndCrashRelease) {
  constexpr double kServed = 0.5;
  const Moves cancelled = {{"hedges_cancelled", 1}};
  const std::pair<Retire, Moves> cases[] = {
      {Retire::kCancelled, cancelled},
      {Retire::kDuplicate, cancelled},
      {Retire::kFenced, cancelled},
      {Retire::kOrphaned, cancelled},
      {Retire::kShed, {{"hedges_shed", 1}}},
      {Retire::kCrashRelease, {}},
  };
  for (const auto& [why, want] : cases) {
    SCOPED_TRACE(static_cast<int>(why));
    TwoCopies t(false);
    t.ledger.resolve_with(copy_of(0), RequestStatus::kCompleted);
    const auto before = counters(t.rep, 0);
    t.ledger.retire(copy_of(0, kServed), why);
    EXPECT_EQ(moved(before, counters(t.rep, 0)), want);
    EXPECT_EQ(t.ledger.copies(0), 0);
  }
  // A double-dispatched stray is priced as duplicate decode instead.
  TwoCopies t(true);
  t.ledger.resolve_with(copy_of(0), RequestStatus::kCompleted);
  const auto before = counters(t.rep, 0);
  t.ledger.retire(copy_of(0, kServed), Retire::kFenced);
  EXPECT_EQ(moved(before, counters(t.rep, 0)),
            (Moves{{"duplicate_decode_s", kServed}}));
}

TEST(CopyLedger, EachResolutionFeedsOnlyItsStatusCounter) {
  const std::pair<RequestStatus, std::string> cases[] = {
      {RequestStatus::kCompleted, "completed"},
      {RequestStatus::kRejected, "rejected"},
      {RequestStatus::kExpired, "expired"},
      {RequestStatus::kLost, "lost"},
  };
  for (const auto& [status, name] : cases) {
    for (bool carried : {false, true}) {
      SCOPED_TRACE(name + (carried ? " with its copy" : " bare"));
      FleetReport rep = report(1);
      CopyLedger ledger(rep);
      Sequence s = copy_of(0);
      s.arrival_s = 1.5;
      s.input_tokens = 7;
      s.output_tokens = 3;
      s.retries = 2;
      s.prefix_hash = 9;
      if (carried) ledger.spawn(0, Spawn::kArrival);
      const auto before = counters(rep, 0);
      if (carried) {
        ledger.resolve_with(s, status);
      } else {
        ledger.resolve(s, status);
      }
      EXPECT_EQ(moved(before, counters(rep, 0)), (Moves{{name, 1}}));
      EXPECT_TRUE(ledger.resolved(0));
      EXPECT_EQ(ledger.copies(0), 0);
      EXPECT_EQ(ledger.resolved_total(), 1u);
      const auto& rec = rep.requests[0];
      EXPECT_EQ(rec.status, status);
      EXPECT_EQ(rec.arrival_s, 1.5);
      EXPECT_EQ(rec.input_tokens, 7);
      EXPECT_EQ(rec.output_tokens, 3);
      EXPECT_EQ(rec.retries, 2);
      EXPECT_TRUE(rec.had_prefix);
    }
  }
}

TEST(CopyLedger, RacingTracksUnresolvedDuplicatesWithTwoCopies) {
  FleetReport rep = report(2);
  CopyLedger ledger(rep);
  ledger.spawn(0, Spawn::kArrival);
  ledger.spawn(0, Spawn::kHedge);
  EXPECT_FALSE(ledger.racing());  // a hedge race is not a split brain
  ledger.spawn(1, Spawn::kArrival);
  ledger.spawn(1, Spawn::kPartitionDup);
  EXPECT_TRUE(ledger.racing());
  EXPECT_TRUE(ledger.redundant(1));
  ledger.retire(copy_of(1), Retire::kFenced);
  EXPECT_FALSE(ledger.racing());
  EXPECT_FALSE(ledger.redundant(1));
  ledger.resolve_with(copy_of(1), RequestStatus::kCompleted);
  EXPECT_TRUE(ledger.redundant(1));
}

}  // namespace
}  // namespace mib::fleet
