// Failure detection without an oracle: heartbeats, phi-accrual suspicion,
// and a per-replica circuit breaker.
//
// An oracle router would consult the fault schedule directly — omniscient
// and therefore free of detection lag, false positives and recovery probes,
// exactly the costs that dominate real incidents. Here each replica emits
// a heartbeat every heartbeat_interval_s while alive (stretched when the
// replica is degraded — a struggling node services its control plane
// late); the monitor tracks a sliding window of inter-arrival gaps and
// computes a phi-accrual suspicion level for the elapsed silence
// (exponential variant: phi(t) = (t - last_hb) / (mean_gap * ln 10), i.e.
// phi = k means "a gap this long had probability 10^-k"). When phi
// crosses the threshold the replica's circuit breaker opens: routing
// stops and stranded work is re-routed. After a cooldown the breaker goes
// half-open and sends synthetic probes every probe_interval_s; the first
// successful probe closes the circuit and traffic resumes.
//
// Consequences the fleet can now measure: detection lag (failure until
// circuit-open), false positives (a slow replica declared dead), and
// recovery lag (replica healthy but breaker still open until a probe
// lands).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/error.h"

namespace mib::fleet {

struct HealthConfig {
  /// false selects the oracle: the router sees the fault schedule.
  bool enabled = true;
  double heartbeat_interval_s = 0.02;
  /// Suspicion level that opens the circuit. phi = 3 tolerates a silence
  /// ~6.9x the mean heartbeat gap (p = 10^-3 under the exponential model).
  double phi_threshold = 3.0;
  int gap_window = 32;          ///< heartbeat gaps kept for the mean
  double open_cooldown_s = 0.25;  ///< open -> half-open after this
  double probe_interval_s = 0.1;  ///< half-open probe cadence

  void validate() const {
    MIB_ENSURE(heartbeat_interval_s > 0.0, "heartbeat interval must be > 0");
    MIB_ENSURE(phi_threshold > 0.0, "phi threshold must be > 0");
    MIB_ENSURE(gap_window >= 1, "gap window must hold at least one sample");
    MIB_ENSURE(open_cooldown_s > 0.0, "open cooldown must be > 0");
    MIB_ENSURE(probe_interval_s > 0.0, "probe interval must be > 0");
  }
};

enum class CircuitState {
  kClosed,     ///< routable; suspicion accrues on heartbeat silence
  kOpen,       ///< not routable; cooling down
  kHalfOpen,   ///< not routable; probing for recovery
  kSuspended,  ///< replica administratively out (inactive / maintenance)
};

const char* to_string(CircuitState state);

/// One breaker transition, for the report timeline and the chaos harness.
struct CircuitEvent {
  double t_s = 0.0;
  int replica = -1;
  CircuitState to = CircuitState::kClosed;
  /// Whether the replica was actually in service at the transition —
  /// lets the harness separate true detections from false positives.
  bool replica_was_up = true;
};

class HealthMonitor {
 public:
  HealthMonitor(HealthConfig cfg, int pool);

  /// A heartbeat from `replica` received at time t.
  void on_heartbeat(int replica, double t);

  /// Current suspicion level of a closed circuit at time t.
  double phi(int replica, double t) const;

  CircuitState state(int replica) const;
  bool routable(int replica) const {
    return state(replica) == CircuitState::kClosed;
  }

  /// Advance every breaker to time t. `physically_up[i]` answers the
  /// synthetic half-open probes (a ping to the replica — information the
  /// front-end obtains at probe cadence, not an oracle consulted freely).
  /// Returns replicas whose circuit opened at this step.
  std::vector<int> advance(double t, const std::vector<bool>& physically_up);
  /// Advance one breaker to time t; returns whether its circuit opened.
  /// Only a replica whose deadline() is at or before t can change.
  bool advance(int replica, double t, bool physically_up);

  /// Administrative transitions (autoscaler activation / maintenance).
  void suspend(int replica);
  void resume(int replica, double t);

  /// The replica's breaker deadline: a closed circuit's projected phi
  /// crossing, an open circuit's cooldown expiry, a half-open circuit's
  /// next probe. +infinity while suspended.
  double deadline(int replica) const;
  /// Earliest breaker deadline over the pool, clamped to t. +infinity
  /// when every replica is suspended.
  double next_event_after(double t) const;

  const std::vector<CircuitEvent>& events() const { return events_; }

 private:
  struct ReplicaHealth {
    CircuitState state = CircuitState::kSuspended;
    double last_hb_s = 0.0;
    std::deque<double> gaps;
    double gap_sum = 0.0;
    double opened_at_s = 0.0;
    double next_probe_s = 0.0;
  };

  double mean_gap(const ReplicaHealth& h) const;
  /// Absolute time at which a closed circuit's phi crosses the threshold.
  double suspect_time(const ReplicaHealth& h) const;

  HealthConfig cfg_;
  std::vector<ReplicaHealth> reps_;
  std::vector<CircuitEvent> events_;
};

/// A cluster of near-simultaneous circuit opens — the detector-side
/// signature of a correlated (rack / switch / zone) failure, as opposed to
/// independent replica crashes that open one breaker at a time.
struct SuspicionBurst {
  double start_s = 0.0;  ///< first open in the burst
  double end_s = 0.0;    ///< last open in the burst
  int size = 0;          ///< distinct replicas opened within the window
};

/// Group circuit-open events whose inter-arrival gap is <= window_s (one
/// heartbeat interval is the natural choice) and keep groups that opened at
/// least two distinct replicas. Events must be in timeline order, which is
/// how the monitor records them.
std::vector<SuspicionBurst> detect_suspicion_bursts(
    const std::vector<CircuitEvent>& events, double window_s);

}  // namespace mib::fleet
