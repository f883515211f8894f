// google-benchmark wall-clock measurements of the functional MoE building
// blocks: router, expert forward, and the fused vs staged layer paths.
// These are real CPU numbers (the only non-simulated timings in the suite)
// and demonstrate the structural fused-MoE saving on actual silicon.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/tensor.h"
#include "moe/moe_layer.h"
#include "quant/quantize.h"

namespace {

using namespace mib;

moe::MoELayerConfig layer_cfg(int experts, int top_k) {
  moe::MoELayerConfig c;
  c.hidden = 128;
  c.expert_ffn = 256;
  c.n_experts = experts;
  c.top_k = top_k;
  return c;
}

void BM_RouterTopK(benchmark::State& state) {
  Rng rng(1);
  moe::RouterConfig rc;
  rc.hidden = 128;
  rc.n_experts = static_cast<int>(state.range(0));
  rc.top_k = 2;
  moe::Router router(rc, rng);
  Rng xr(2);
  const Tensor x = Tensor::randn({64, 128}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(x));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RouterTopK)->Arg(8)->Arg(64)->Arg(128);

void BM_ExpertForward(benchmark::State& state) {
  Rng rng(3);
  moe::Expert expert(128, static_cast<int>(state.range(0)), rng);
  Rng xr(4);
  const Tensor x = Tensor::randn({32, 128}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expert.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ExpertForward)->Arg(128)->Arg(512)->Arg(1024);

void BM_MoELayerStaged(benchmark::State& state) {
  Rng rng(5);
  moe::MoELayer layer(layer_cfg(static_cast<int>(state.range(0)), 2), rng);
  Rng xr(6);
  const Tensor x = Tensor::randn({64, 128}, xr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward_staged(x));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
// Fused work runs on the shared pool, so the calling thread's CPU time
// undercounts it: both layer paths report wall-clock time.
BENCHMARK(BM_MoELayerStaged)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

void BM_MoELayerFused(benchmark::State& state) {
  Rng rng(5);
  moe::MoELayer layer(layer_cfg(static_cast<int>(state.range(0)), 2), rng);
  Rng xr(6);
  const Tensor x = Tensor::randn({64, 128}, xr);
  layer.forward_fused(x);  // warm up the shared pool
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward_fused(x));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MoELayerFused)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

void BM_QuantizeFp8(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    Tensor w = Tensor::randn({64, 1024}, rng, 0.02f);
    state.ResumeTiming();
    benchmark::DoNotOptimize(quant::fake_quantize_tensor(
        w, DType::kFP8E4M3, quant::Granularity::kPerRow));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_QuantizeFp8);

}  // namespace

BENCHMARK_MAIN();
