// Functional MoE workload (`moe_functional`) and the kernel probes of the
// `moe` and `common` layers.
#pragma once

#include <cstdint>
#include <vector>

#include "moe/transformer.h"
#include "timing.h"

namespace perfbench {

/// Mid-size functional model: hidden 256, 4 layers, GQA (8 query / 2 KV
/// heads), 16 experts top-2 with FFN 512, vocabulary 1024.
mib::moe::TransformerConfig functional_config();

constexpr int kPromptTokens = 64;
constexpr int kNewTokens = 32;

/// The session prompt drawn from `seed`.
std::vector<int> make_prompt(std::uint64_t seed, int vocab);

/// Transformer::generate written out as its forward calls, with one span
/// per call ("Transformer::forward/prefill", ".../decode").
std::vector<int> traced_generate(const mib::moe::Transformer& model,
                                 const std::vector<int>& prompt, int max_new,
                                 SpanRecorder* spans);

/// Output check of a fused vs staged MoE layer on `tokens` random rows:
/// the two strategies must agree within 1e-5.
bool fused_matches_staged(mib::moe::MoELayer& layer, int tokens,
                          std::uint64_t seed);

/// Per-layer metrics of the functional stack: session phases (from the
/// forward spans already in `spans`, or from a few sessions run here when
/// there are none), kernel probes at prefill and decode shapes, pool
/// dispatch and the fig15 routing chunk.
void add_moe_layers(Result& out, std::uint64_t seed, SpanRecorder* spans);

/// Run `moe_functional` per the benchmark contract.
Result run_moe(const RunOptions& opts);

}  // namespace perfbench
