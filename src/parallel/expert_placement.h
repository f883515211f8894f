// Routing statistics and expert-placement math.
//
// Analytic counterparts of the functional router's behavior: how many
// distinct experts a batch of routed tokens touches (drives decode weight
// traffic), and how uneven the per-device load is under expert parallelism
// (drives the EP slowest-device penalty). Both support uniform and
// Zipf-skewed token-to-expert distributions; the functional router's
// empirical counts validate these formulas in tests.
#pragma once

#include <vector>

namespace mib::parallel {

/// Token-to-expert distribution model.
struct RoutingModel {
  /// Zipf exponent of expert popularity; 0 = uniform (aux-loss-balanced).
  double zipf_s = 0.0;

  bool uniform() const { return zipf_s == 0.0; }
};

/// Per-expert selection probabilities (sums to 1, size n_experts).
std::vector<double> expert_probabilities(int n_experts,
                                         const RoutingModel& routing);

/// Expected number of distinct experts hit by `assignments` independent
/// expert draws: sum_i 1 - (1 - p_i)^n.
double expected_distinct_experts(int n_experts, double assignments,
                                 const RoutingModel& routing);

/// log1p(-p_i) of each probability: the per-expert terms of
/// expected_distinct_experts, for callers that keep them.
std::vector<double> log1m_probabilities(const std::vector<double>& probs);

/// expected_distinct_experts from kept log1m_probabilities; bit-identical
/// to the form above.
double expected_distinct_experts(const std::vector<double>& log1m_probs,
                                 double assignments);

/// Expected (max device load) / (mean device load) when `n_experts` experts
/// are partitioned contiguously across `groups` devices and `assignments`
/// draws land on them. 1.0 for a single group; >= 1 otherwise. Uses a
/// Gaussian extreme-value approximation of the multinomial group loads,
/// exact in the limits (-> 1 as assignments -> inf under uniform routing).
double expected_max_group_load_factor(int n_experts, double assignments,
                                      int groups,
                                      const RoutingModel& routing);

/// Expected fraction of all routed assignments landing on the most loaded
/// of `groups` devices (factor / groups, clamped to [1/groups, 1]).
double expected_max_group_share(int n_experts, double assignments, int groups,
                                const RoutingModel& routing);

// --- expert placement optimization ---
//
// EP assigns whole experts to devices. The naive contiguous placement
// (experts [0, E/g) on device 0, ...) concentrates a Zipf-popular head on
// one device; longest-processing-time greedy placement spreads popular
// experts across devices and provably bounds the max share.

/// placement[e] = device hosting expert e; contiguous blocks.
std::vector<int> contiguous_placement(int n_experts, int groups);

/// LPT greedy: experts sorted by popularity (desc), each assigned to the
/// currently lightest device. `probs` must be a probability vector.
std::vector<int> balanced_placement(const std::vector<double>& probs,
                                    int groups);

/// Probability mass of the heaviest device under a placement.
double placement_max_mass(const std::vector<double>& probs,
                          const std::vector<int>& placement, int groups);

/// expected_max_group_load_factor generalized to an arbitrary placement.
double expected_max_load_factor_for_placement(
    const std::vector<double>& probs, const std::vector<int>& placement,
    int groups, double assignments);

}  // namespace mib::parallel
