#include "parallel/expert_placement.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mib::parallel {

std::vector<double> expert_probabilities(int n_experts,
                                         const RoutingModel& routing) {
  MIB_ENSURE(n_experts >= 1, "need at least one expert");
  MIB_ENSURE(routing.zipf_s >= 0.0, "negative Zipf exponent");
  std::vector<double> p(n_experts);
  double total = 0.0;
  for (int i = 0; i < n_experts; ++i) {
    p[i] = routing.uniform()
               ? 1.0
               : 1.0 / std::pow(static_cast<double>(i + 1), routing.zipf_s);
    total += p[i];
  }
  for (double& v : p) v /= total;
  return p;
}

double expected_distinct_experts(int n_experts, double assignments,
                                 const RoutingModel& routing) {
  if (assignments == 0.0) return 0.0;
  return expected_distinct_experts(
      log1m_probabilities(expert_probabilities(n_experts, routing)),
      assignments);
}

std::vector<double> log1m_probabilities(const std::vector<double>& probs) {
  std::vector<double> out;
  out.reserve(probs.size());
  for (double pi : probs) out.push_back(std::log1p(-pi));
  return out;
}

double expected_distinct_experts(const std::vector<double>& log1m_probs,
                                 double assignments) {
  MIB_ENSURE(assignments >= 0.0, "negative assignments");
  if (assignments == 0.0) return 0.0;
  double hit = 0.0;
  for (double l : log1m_probs) {
    // 1 - (1 - p)^n, computed stably via expm1/log1p.
    hit += -std::expm1(assignments * l);
  }
  return hit;
}

namespace {
/// Expected maximum of `g` (approximately) normal variables with given
/// means/stddevs: mean_max ≈ max_i mean_i + sigma_pooled * sqrt(2 ln g).
/// For the uniform case all groups share mean/sigma and this is the
/// standard extreme-value asymptotic.
double expected_max_normal(const std::vector<double>& mean,
                           const std::vector<double>& sigma) {
  const std::size_t g = mean.size();
  if (g == 1) return mean[0];
  double mu_max = mean[0];
  double sig = 0.0;
  for (std::size_t i = 0; i < g; ++i) {
    mu_max = std::max(mu_max, mean[i]);
    sig += sigma[i] * sigma[i];
  }
  sig = std::sqrt(sig / static_cast<double>(g));
  return mu_max + sig * std::sqrt(2.0 * std::log(static_cast<double>(g)));
}
}  // namespace

double expected_max_group_load_factor(int n_experts, double assignments,
                                      int groups,
                                      const RoutingModel& routing) {
  MIB_ENSURE(groups >= 1, "need at least one group");
  MIB_ENSURE(n_experts >= groups, "fewer experts than groups");
  if (groups == 1 || assignments <= 0.0) return 1.0;

  const auto p = expert_probabilities(n_experts, routing);
  const int per_group = n_experts / groups;

  std::vector<double> mean(groups, 0.0);
  std::vector<double> sigma(groups, 0.0);
  for (int gidx = 0; gidx < groups; ++gidx) {
    double pg = 0.0;
    for (int e = gidx * per_group;
         e < std::min(n_experts, (gidx + 1) * per_group); ++e) {
      pg += p[e];
    }
    mean[gidx] = assignments * pg;
    sigma[gidx] = std::sqrt(assignments * pg * (1.0 - pg));
  }

  const double mean_load = assignments / groups;
  const double emax = expected_max_normal(mean, sigma);
  // The max load can never exceed all assignments nor drop below the mean.
  const double clamped = std::clamp(emax, mean_load, assignments);
  return clamped / mean_load;
}

double expected_max_group_share(int n_experts, double assignments, int groups,
                                const RoutingModel& routing) {
  const double factor = expected_max_group_load_factor(
      n_experts, assignments, groups, routing);
  return std::clamp(factor / groups, 1.0 / groups, 1.0);
}

std::vector<int> contiguous_placement(int n_experts, int groups) {
  MIB_ENSURE(groups >= 1 && n_experts >= groups,
             "placement needs n_experts >= groups >= 1");
  const int per_group = n_experts / groups;
  std::vector<int> p(n_experts);
  for (int e = 0; e < n_experts; ++e) {
    p[e] = std::min(e / per_group, groups - 1);
  }
  return p;
}

std::vector<int> balanced_placement(const std::vector<double>& probs,
                                    int groups) {
  MIB_ENSURE(groups >= 1, "need at least one group");
  MIB_ENSURE(static_cast<int>(probs.size()) >= groups,
             "fewer experts than groups");
  std::vector<int> order(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    MIB_ENSURE(probs[i] >= 0.0, "negative expert probability");
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return probs[a] > probs[b]; });

  std::vector<double> mass(groups, 0.0);
  std::vector<int> count(groups, 0);
  const int cap = (static_cast<int>(probs.size()) + groups - 1) / groups;
  std::vector<int> placement(probs.size(), -1);
  for (int e : order) {
    // Lightest device with remaining expert slots (capacity keeps the
    // per-device weight footprint even, as real EP requires).
    int best = -1;
    for (int g = 0; g < groups; ++g) {
      if (count[g] >= cap) continue;
      if (best < 0 || mass[g] < mass[best]) best = g;
    }
    MIB_ENSURE(best >= 0, "no device with free expert slots");
    placement[e] = best;
    mass[best] += probs[e];
    ++count[best];
  }
  return placement;
}

double placement_max_mass(const std::vector<double>& probs,
                          const std::vector<int>& placement, int groups) {
  MIB_ENSURE(probs.size() == placement.size(),
             "placement size mismatch");
  std::vector<double> mass(groups, 0.0);
  for (std::size_t e = 0; e < probs.size(); ++e) {
    MIB_ENSURE(placement[e] >= 0 && placement[e] < groups,
               "placement group out of range");
    mass[placement[e]] += probs[e];
  }
  return *std::max_element(mass.begin(), mass.end());
}

double expected_max_load_factor_for_placement(
    const std::vector<double>& probs, const std::vector<int>& placement,
    int groups, double assignments) {
  MIB_ENSURE(assignments >= 0.0, "negative assignments");
  if (groups == 1 || assignments <= 0.0) return 1.0;
  std::vector<double> pg(groups, 0.0);
  for (std::size_t e = 0; e < probs.size(); ++e) pg[placement[e]] += probs[e];
  std::vector<double> mean(groups), sigma(groups);
  for (int g = 0; g < groups; ++g) {
    mean[g] = assignments * pg[g];
    sigma[g] = std::sqrt(assignments * pg[g] * (1.0 - pg[g]));
  }
  double mu_max = mean[0], sig = 0.0;
  for (int g = 0; g < groups; ++g) {
    mu_max = std::max(mu_max, mean[g]);
    sig += sigma[g] * sigma[g];
  }
  sig = std::sqrt(sig / groups);
  const double emax =
      mu_max + sig * std::sqrt(2.0 * std::log(static_cast<double>(groups)));
  const double mean_load = assignments / groups;
  return std::clamp(emax, mean_load, assignments) / mean_load;
}

}  // namespace mib::parallel
