// Committed reference outputs. Every run re-simulates the canonical inputs
// (the workloads at kCanonicalSeed) and compares: a change that claims to
// speed the program up must leave these bit-identical. A change that means
// to alter simulated behaviour re-derives them with `perfbench --reference`
// and says so.
#pragma once

#include <cstdint>

namespace perfbench {

inline constexpr std::uint64_t kCanonicalSeed = 20250917;

/// report_digest() of the canonical `fleet_steady`, `fleet_steady_r16` and
/// `fleet_chaos` runs.
inline constexpr std::uint64_t kSteadyDigest = 0xdb45b1f356a1b64cULL;
inline constexpr std::uint64_t kSteadyR16Digest = 0x07bec85bf0b88e84ULL;
inline constexpr std::uint64_t kChaosDigest = 0xf215829ae9062122ULL;

/// Greedy tokens of the canonical `moe_functional` session.
inline constexpr int kGreedyReference[] = {
    682, 931, 574, 861, 88,  131, 472, 954, 924, 285, 954,
    592, 682, 682, 682, 982, 682, 584, 684, 723, 574, 435,
    11,  954, 574, 681, 426, 684, 954, 824, 682, 721};

}  // namespace perfbench
