// Front-end admission control: a bounded fleet-wide queue plus per-request
// service deadlines.
//
// Arriving requests are rejected outright when the number of
// dispatched-but-not-yet-running requests across the fleet has reached
// queue_capacity (load shedding at the door beats unbounded queueing —
// a request that would wait past its SLO is better told "503" at t=0).
// A request still waiting when its deadline passes is dropped and counted
// expired; deadlines are checked at scheduling boundaries, and retries of
// evacuated requests bypass the capacity gate (they were already admitted).
#pragma once

#include "common/error.h"

namespace mib::fleet {

struct AdmissionConfig {
  /// Max queued (dispatched but not yet running) requests fleet-wide.
  int queue_capacity = 4096;
  /// Per-request deadline on starting service, measured from arrival;
  /// 0 = no deadline.
  double deadline_s = 0.0;

  void validate() const {
    MIB_ENSURE(queue_capacity >= 1, "admission queue capacity must be >= 1");
    MIB_ENSURE(deadline_s >= 0.0, "negative deadline");
  }
};

}  // namespace mib::fleet
