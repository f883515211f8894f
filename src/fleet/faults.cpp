#include "fleet/faults.h"

#include <cmath>

#include "common/rng.h"

namespace mib::fleet {

FaultSchedule::FaultSchedule(std::vector<FaultWindow> windows)
    : windows_(std::move(windows)) {
  for (const auto& w : windows_) w.validate();
  ensure_disjoint_windows(windows_);
}

double jitter_uniform(std::uint64_t key) {
  std::uint64_t state = key + 0x9E3779B97F4A7C15ull;
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double RetryPolicy::delay(int attempt, std::uint64_t jitter_key) const {
  MIB_ENSURE(attempt >= 1, "retry attempts are 1-based");
  const double base = backoff_s * std::pow(multiplier, attempt - 1);
  if (jitter <= 0.0) return base;
  return base * (1.0 - jitter * jitter_uniform(jitter_key));
}

}  // namespace mib::fleet
