// The benchmark binary. One process runs one workload:
//
//   perfbench --workload <fleet_steady|fleet_steady_r16|fleet_chaos|
//                         moe_functional>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// and prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (the end-to-end metrics untraced, the
// per-layer metrics traced). `perfbench --reference` prints the canonical
// outputs that reference.h commits.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>

#include "fleet_bench.h"
#include "moe_bench.h"
#include "reference.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_steady|fleet_steady_r16|"
               "fleet_chaos|moe_functional> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
               "       perfbench --reference\n");
  return 2;
}

int print_reference() {
  using namespace perfbench;
  for (const char* w : kFleetWorkloads) {
    const auto sc = fleet_workload(w, kCanonicalSeed);
    const mib::fleet::FleetSimulator sim(sc.config);
    std::printf("%s digest 0x%016" PRIx64 "ULL\n", w,
                report_digest(sim.run(sc.trace)));
  }
  const auto cfg = functional_config();
  const mib::moe::Transformer model(cfg, kCanonicalSeed);
  auto session = model.new_session();
  std::printf("moe_functional tokens");
  for (int t : model.generate(make_prompt(kCanonicalSeed, cfg.vocab),
                              kNewTokens, session)) {
    std::printf(" %d,", t);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reference") return print_reference();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = v == "1";
    } else if (a == "--trace-out") {
      opts.trace_out = v;
    } else {
      return usage();
    }
  }
  if (opts.seconds <= 0.0) return usage();

  perfbench::Result result;
  try {
    if (std::find(std::begin(perfbench::kFleetWorkloads),
                  std::end(perfbench::kFleetWorkloads),
                  workload) != std::end(perfbench::kFleetWorkloads)) {
      result = perfbench::run_fleet(workload, opts);
    } else if (workload == "moe_functional") {
      result = perfbench::run_moe(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& n : result.notes) std::printf("%s\n", n.c_str());
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
