#include "moe_bench.h"

#include <iterator>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet_bench.h"
#include "models/zoo.h"
#include "moe/attention.h"
#include "moe/expert.h"
#include "moe/moe_layer.h"
#include "moe/router.h"
#include "reference.h"
#include "workload/activation_study.h"

namespace perfbench {

using namespace mib;

moe::TransformerConfig functional_config() {
  moe::TransformerConfig c;
  c.vocab = 1024;
  c.n_layers = 4;
  c.hidden = 256;
  c.n_heads = 8;
  c.n_kv_heads = 2;
  c.head_dim = 32;
  c.n_experts = 16;
  c.top_k = 2;
  c.expert_ffn = 512;
  return c;
}

std::vector<int> make_prompt(std::uint64_t seed, int vocab) {
  Rng rng(seed ^ 0x9f0a11ULL);
  std::vector<int> p(kPromptTokens);
  for (auto& t : p) {
    t = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(vocab)));
  }
  return p;
}

std::vector<int> traced_generate(const moe::Transformer& model,
                                 const std::vector<int>& prompt, int max_new,
                                 SpanRecorder* spans) {
  moe::Session session = model.new_session();
  std::vector<int> out;
  Tensor logits;
  {
    ScopedSpan s(spans, "Transformer::forward/prefill");
    logits = model.forward(prompt, session);
  }
  int next = moe::greedy_sample(logits.row(logits.dim(0) - 1));
  for (int i = 0; i < max_new; ++i) {
    out.push_back(next);
    if (i + 1 == max_new) break;
    {
      ScopedSpan s(spans, "Transformer::forward/decode");
      logits = model.forward({next}, session);
    }
    next = moe::greedy_sample(logits.row(0));
  }
  return out;
}

bool fused_matches_staged(moe::MoELayer& layer, int tokens, std::uint64_t seed) {
  Rng rng(seed ^ 0xf05edULL);
  const Tensor x = Tensor::randn(
      {static_cast<std::size_t>(tokens),
       static_cast<std::size_t>(layer.config().hidden)},
      rng);
  return max_abs_diff(layer.forward_fused(x), layer.forward_staged(x)) <= 1e-5f;
}

namespace {

constexpr double kProbeBudgetS = 0.4;
/// The fused-layer and dispatch probes wake ThreadPool::shared(), whose
/// parallel_for has a shutdown race that can abort the process (README,
/// "Known defect"). They, and the staged probe they are compared with,
/// run briefly.
constexpr double kPoolProbeBudgetS = 0.1;

Tensor random_rows(Rng& rng, int rows, int cols) {
  return Tensor::randn(
      {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)}, rng);
}

/// Kernel probes at one shape: `tokens` rows into the session model's
/// geometry (`expert_tokens` rows reach one expert).
void kernel_probes(Result& out, const moe::TransformerConfig& c, int tokens,
                   int expert_tokens, int cached, const char* shape,
                   std::uint64_t seed, SpanRecorder* spans) {
  Rng rng(seed ^ 0x5eed0ULL ^ static_cast<std::uint64_t>(tokens));
  const std::string sfx = std::string(".") + shape;
  const Tensor x = random_rows(rng, tokens, c.hidden);
  float sink = 0.0f;

  {
    ScopedSpan s(spans, "moe::Router::route");
    moe::Router router({c.hidden, c.n_experts, c.top_k}, rng);
    const double t = seconds_per_call(
        [&] { sink += router.route(x).front().weights.front(); }, kProbeBudgetS);
    out.add("moe.router_us" + sfx, t * 1e6, "us");
  }
  {
    ScopedSpan s(spans, "moe::Expert::forward");
    const moe::Expert expert(c.hidden, c.expert_ffn, rng);
    const Tensor xe = random_rows(rng, expert_tokens, c.hidden);
    const double t = seconds_per_call(
        [&] { sink += expert.forward(xe).at(0, 0); }, kProbeBudgetS);
    // FLOPs from tensor sizes: three [ffn, hidden] GEMVs per token row.
    const double flops = 2.0 * 3.0 * c.hidden * c.expert_ffn * expert_tokens;
    out.add("moe.expert_gflops" + sfx, flops / t * 1e-9, "GFLOP/s");
  }
  {
    ScopedSpan s(spans, "moe::Attention::forward");
    const moe::Attention attn({c.hidden, c.n_heads, c.n_kv_heads, c.head_dim}, rng);
    moe::KvState kv({c.hidden, c.n_heads, c.n_kv_heads, c.head_dim});
    if (cached > 0) attn.forward(random_rows(rng, cached, c.hidden), kv, 0);
    const double t = seconds_per_call(
        [&] {
          sink += attn.forward(x, kv, cached).at(0, 0);
          kv.truncate(cached);
        },
        kProbeBudgetS);
    out.add("moe.attention_us" + sfx, t * 1e6, "us");
  }
  {
    ScopedSpan s(spans, "matmul");
    const Tensor head = random_rows(rng, c.vocab, c.hidden);
    Tensor logits;
    const double t = seconds_per_call(
        [&] {
          matmul(x, head, logits, /*b_transposed=*/true);
          sink += logits.at(0, 0);
        },
        kProbeBudgetS);
    // FLOPs from tensor sizes: [tokens, hidden] x [hidden, vocab].
    out.add("common.matmul_gflops" + sfx,
            2.0 * tokens * c.hidden * c.vocab / t * 1e-9, "GFLOP/s");
  }
  {
    moe::MoELayer layer({c.hidden, c.expert_ffn, c.n_experts, c.top_k}, rng);
    double fused = 0.0;
    double staged = 0.0;
    {
      ScopedSpan s(spans, "MoELayer::forward_fused");
      fused = seconds_per_call([&] { sink += layer.forward_fused(x).at(0, 0); },
                               kPoolProbeBudgetS);
    }
    {
      ScopedSpan s(spans, "MoELayer::forward_staged");
      staged = seconds_per_call([&] { sink += layer.forward_staged(x).at(0, 0); },
                                kPoolProbeBudgetS);
    }
    out.add("moe.layer_fused_ms" + sfx, fused * 1e3, "ms");
    out.add("moe.layer_staged_ms" + sfx, staged * 1e3, "ms");
    out.add("moe.fused_over_staged" + sfx, fused / staged, "ratio");
  }
  keep(sink);
}

}  // namespace

void add_moe_layers(Result& out, std::uint64_t seed, SpanRecorder* spans) {
  const auto c = functional_config();
  auto prefill = spans->durations("Transformer::forward/prefill");
  auto decode = spans->durations("Transformer::forward/decode");
  if (prefill.empty()) {
    // This workload ran no sessions: run a few canonical ones here, spans
    // as in the functional workload's traced ops, and check the layers
    // they time against the committed outputs.
    moe::Transformer model(c, kCanonicalSeed);
    const auto prompt = make_prompt(kCanonicalSeed, c.vocab);
    const std::vector<int> expect(std::begin(kGreedyReference),
                                  std::end(kGreedyReference));
    for (int k = 0; k < 3; ++k) {
      ScopedSpan op(spans, "op");
      out.check(guarded([&] {
        return traced_generate(model, prompt, kNewTokens, spans) == expect;
      }));
    }
    out.check(guarded([&] {
      return fused_matches_staged(model.moe_layer(0), kPromptTokens, seed);
    }));
    out.check(guarded(
        [&] { return fused_matches_staged(model.moe_layer(0), 1, seed); }));
    prefill = spans->durations("Transformer::forward/prefill");
    decode = spans->durations("Transformer::forward/decode");
    prefill.erase(prefill.begin());  // the first session warms up
  }
  out.add("moe.prefill_ms", median(prefill) * 1e3, "ms");
  out.add("moe.decode_tok_ms", median(decode) * 1e3, "ms");

  const int per_expert = kPromptTokens * c.top_k / c.n_experts;
  kernel_probes(out, c, kPromptTokens, per_expert, 0, "prefill", seed, spans);
  kernel_probes(out, c, 1, 1, kPromptTokens, "decode", seed, spans);
  {
    ScopedSpan s(spans, "ThreadPool::parallel_for");
    ThreadPool& pool = ThreadPool::shared();
    const double t = seconds_per_call(
        [&] {
          pool.parallel_for(0, static_cast<std::size_t>(c.n_experts),
                            [](std::size_t) {});
        },
        kPoolProbeBudgetS);
    out.add("common.pool_dispatch_us", t * 1e6, "us");
  }
  {
    ScopedSpan s(spans, "ActivationStudy::run");
    workload::ActivationStudy study(models::deepseek_vl2_tiny(), {});
    const double t = seconds_per_call([&] { study.run(256); }, 1.0, 5);
    out.add("moe.router_fig15_ms", t * 1e3, "ms");
  }
}

/// Set-ups per functional run; `setup_s` is their median.
constexpr int kMoeSetUps = 5;

Result run_moe(const RunOptions& opts) {
  Result out;
  const auto cfg = functional_config();
  std::vector<double> setup_s;
  std::unique_ptr<moe::Transformer> model;
  std::vector<int> prompt;
  std::vector<int> expect;
  for (int k = 0; k < kMoeSetUps; ++k) {
    // Set-up: the benchmark's fixed weights and the prompt from the seed.
    // Fixed weights keep the routing, and with it the per-session work,
    // the same across seeds.
    model.reset();  // one model resident at a time: peak RSS is one model's
    const double t0 = now_s();
    model = std::make_unique<moe::Transformer>(cfg, kCanonicalSeed);
    prompt = make_prompt(opts.seed, cfg.vocab);
    setup_s.push_back(now_s() - t0);
  }
  // One discarded warm-up session, whose tokens every timed session must
  // reproduce.
  out.check(guarded([&] {
    moe::Session session = model->new_session();
    expect = model->generate(prompt, kNewTokens, session);
    return static_cast<int>(expect.size()) == kNewTokens;
  }));
  auto op = [&] {
    moe::Session session = model->new_session();
    return model->generate(prompt, kNewTokens, session) == expect;
  };

  if (!opts.trace) {
    add_end_to_end(out, setup_s, time_ops(opts.seconds, 20, op),
                   kPromptTokens + kNewTokens);
  } else {
    SpanRecorder spans;
    std::vector<double> plain, traced;
    const double start = now_s();
    while (plain.size() < 12 || now_s() - start < opts.seconds) {
      double t0 = now_s();
      out.check(guarded(op));
      plain.push_back(now_s() - t0);
      t0 = now_s();
      bool same = false;
      {
        ScopedSpan o(&spans, "op");
        same = traced_generate(*model, prompt, kNewTokens, &spans) == expect;
      }
      traced.push_back(now_s() - t0);
      out.check(same);
    }
    out.add("trace.overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
    add_moe_layers(out, opts.seed, &spans);
    add_fleet_layers(out, opts.seed, &spans);
    if (!opts.trace_out.empty()) out.check(spans.write_json(opts.trace_out));
  }

  // Fused and staged execution of the session model's MoE layer agree.
  out.check(guarded([&] { return fused_matches_staged(model->moe_layer(0), kPromptTokens, opts.seed); }));
  out.check(guarded([&] { return fused_matches_staged(model->moe_layer(0), 1, opts.seed); }));
  // Greedy tokens of the canonical prompt stay as committed.
  out.check(guarded([&] {
    moe::Session session = model->new_session();
    const auto tokens = model->generate(make_prompt(kCanonicalSeed, cfg.vocab),
                                        kNewTokens, session);
    return tokens == std::vector<int>(std::begin(kGreedyReference),
                                      std::end(kGreedyReference));
  }));
  return out;
}

}  // namespace perfbench
