#include "fleet/health.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mib::fleet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLn10 = 2.302585092994046;
}  // namespace

const char* to_string(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kOpen: return "open";
    case CircuitState::kHalfOpen: return "half-open";
    case CircuitState::kSuspended: return "suspended";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig cfg, int pool) : cfg_(cfg) {
  cfg_.validate();
  MIB_ENSURE(pool >= 1, "health monitor needs a non-empty pool");
  reps_.resize(static_cast<std::size_t>(pool));
}

double HealthMonitor::mean_gap(const ReplicaHealth& h) const {
  if (h.gaps.empty()) return cfg_.heartbeat_interval_s;
  const double mean = h.gap_sum / static_cast<double>(h.gaps.size());
  // Never trust a mean below the configured cadence: a burst of early
  // heartbeats must not make the detector hair-triggered.
  return std::max(mean, cfg_.heartbeat_interval_s);
}

double HealthMonitor::suspect_time(const ReplicaHealth& h) const {
  return h.last_hb_s + cfg_.phi_threshold * kLn10 * mean_gap(h);
}

void HealthMonitor::on_heartbeat(int replica, double t) {
  auto& h = reps_[static_cast<std::size_t>(replica)];
  if (h.state == CircuitState::kSuspended) return;
  const double gap = t - h.last_hb_s;
  if (gap > 0.0) {
    h.gaps.push_back(gap);
    h.gap_sum += gap;
    while (static_cast<int>(h.gaps.size()) > cfg_.gap_window) {
      h.gap_sum -= h.gaps.front();
      h.gaps.pop_front();
    }
  }
  h.last_hb_s = t;
}

double HealthMonitor::phi(int replica, double t) const {
  const auto& h = reps_[static_cast<std::size_t>(replica)];
  const double silence = t - h.last_hb_s;
  if (silence <= 0.0) return 0.0;
  return silence / (mean_gap(h) * kLn10);
}

CircuitState HealthMonitor::state(int replica) const {
  return reps_[static_cast<std::size_t>(replica)].state;
}

std::vector<int> HealthMonitor::advance(
    double t, const std::vector<bool>& physically_up) {
  MIB_ENSURE(physically_up.size() == reps_.size(),
             "health probe vector does not match the pool");
  std::vector<int> opened;
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    const int replica = static_cast<int>(i);
    if (advance(replica, t, physically_up[i])) opened.push_back(replica);
  }
  return opened;
}

bool HealthMonitor::advance(int replica, double t, bool physically_up) {
  auto& h = reps_[static_cast<std::size_t>(replica)];
  bool opened = false;
  if (h.state == CircuitState::kClosed && t >= suspect_time(h)) {
    h.state = CircuitState::kOpen;
    h.opened_at_s = t;
    events_.push_back(
        CircuitEvent{t, replica, CircuitState::kOpen, physically_up});
    opened = true;
  }
  if (h.state == CircuitState::kOpen &&
      t >= h.opened_at_s + cfg_.open_cooldown_s) {
    h.state = CircuitState::kHalfOpen;
    h.next_probe_s = t;  // probe immediately, below
    events_.push_back(
        CircuitEvent{t, replica, CircuitState::kHalfOpen, physically_up});
  }
  // Probes fire at cadence until one lands; each miss reschedules. Runs
  // in the same advance as the open -> half-open transition so every
  // deadline left behind is strictly in the future.
  while (h.state == CircuitState::kHalfOpen && t >= h.next_probe_s) {
    if (physically_up) {
      resume(replica, t);
      events_.push_back(
          CircuitEvent{t, replica, CircuitState::kClosed, physically_up});
    } else {
      h.next_probe_s += cfg_.probe_interval_s;
    }
  }
  return opened;
}

void HealthMonitor::suspend(int replica) {
  auto& h = reps_[static_cast<std::size_t>(replica)];
  h.state = CircuitState::kSuspended;
  h.gaps.clear();
  h.gap_sum = 0.0;
}

void HealthMonitor::resume(int replica, double t) {
  auto& h = reps_[static_cast<std::size_t>(replica)];
  h.state = CircuitState::kClosed;
  h.gaps.clear();
  h.gap_sum = 0.0;
  h.last_hb_s = t;
}

std::vector<SuspicionBurst> detect_suspicion_bursts(
    const std::vector<CircuitEvent>& events, double window_s) {
  MIB_ENSURE(window_s > 0.0, "burst window must be > 0");
  std::vector<SuspicionBurst> bursts;
  SuspicionBurst cur;
  std::vector<int> members;
  auto flush = [&] {
    if (cur.size >= 2) bursts.push_back(cur);
    cur = SuspicionBurst{};
    members.clear();
  };
  for (const auto& e : events) {
    if (e.to != CircuitState::kOpen) continue;
    if (cur.size > 0 && e.t_s - cur.end_s > window_s) flush();
    if (cur.size == 0) cur.start_s = e.t_s;
    cur.end_s = e.t_s;
    bool seen = false;
    for (int m : members) seen = seen || m == e.replica;
    if (!seen) {
      members.push_back(e.replica);
      ++cur.size;
    }
  }
  flush();
  return bursts;
}

double HealthMonitor::deadline(int replica) const {
  const auto& h = reps_[static_cast<std::size_t>(replica)];
  switch (h.state) {
    case CircuitState::kClosed: return suspect_time(h);
    case CircuitState::kOpen: return h.opened_at_s + cfg_.open_cooldown_s;
    case CircuitState::kHalfOpen: return h.next_probe_s;
    case CircuitState::kSuspended: break;
  }
  return kInf;
}

double HealthMonitor::next_event_after(double t) const {
  double best = kInf;
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    best = std::min(best, std::max(t, deadline(static_cast<int>(i))));
  }
  return best;
}

}  // namespace mib::fleet
