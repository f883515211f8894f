// Arrival-time generation for serving traces.
//
// The paper's grid submits everything at t=0; serving studies need traffic
// that arrives over time. This module owns the arrival processes (Poisson
// and a diurnally-modulated Poisson) and stamps `engine::Request::arrival_s`.
// It is the only source of arrival times: ServingSimulator and the fleet
// simulator both consume the stamps and have no arrival logic of their own.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/request.h"

namespace mib::workload {

struct ArrivalConfig {
  /// Mean arrival rate (requests/s). Must be > 0.
  double rate_qps = 1.0;

  enum class Process {
    kPoisson,  ///< homogeneous Poisson: i.i.d. exponential gaps
    kDiurnal,  ///< Poisson with sinusoidally modulated instantaneous rate
  };
  Process process = Process::kPoisson;

  /// Diurnal modulation: rate(t) = rate_qps * (1 + amplitude * sin(2*pi*t /
  /// period)). Gaps are sampled against the instantaneous rate at the
  /// current time (a first-order approximation of the inhomogeneous
  /// process, adequate for load-shape studies).
  double diurnal_period_s = 600.0;
  double diurnal_amplitude = 0.5;  ///< in [0, 1)

  /// Time of the first arrival.
  double start_s = 0.0;
  std::uint64_t seed = 42;

  void validate() const;
};

/// Sample n non-decreasing arrival times (first at start_s).
std::vector<double> generate_arrivals(const ArrivalConfig& cfg, int n);

/// Stamp `arrival_s` onto a trace in order (trace order = arrival order).
void stamp_arrivals(const ArrivalConfig& cfg,
                    std::vector<engine::Request>& trace);

}  // namespace mib::workload
