// mib_cli — run any scenario from the command line.
//
//   mib_cli --list
//   mib_cli --model OLMoE-1B-7B --batch 16 --in 512 --out 512
//   mib_cli --model Mixtral-8x7B --devices 4 --dtype fp8 --plan tp
//   mib_cli --model Qwen3-30B-A3B --devices 2 --plan pp --csv
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"
#include "core/scenario.h"
#include "engine/scheduler.h"
#include "models/params.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace {

using namespace mib;

void usage() {
  std::cout <<
      "mib_cli — MoE-Inference-Bench scenario runner\n"
      "  --list                 list zoo models and exit\n"
      "  --model NAME           model (default OLMoE-1B-7B)\n"
      "  --device NAME          h100 | a100 | cs3 (default h100)\n"
      "  --devices N            device count (default 1)\n"
      "  --plan KIND            tp | tp-ep | pp | pp-ep (default tp)\n"
      "  --dtype NAME           fp16 | bf16 | fp8 | int8 | int4\n"
      "  --batch N --in N --out N   workload shape\n"
      "  --images N             images per request (VLMs)\n"
      "  --no-fused-moe         disable the fused MoE kernel model\n"
      "  --csv                  emit CSV instead of a table\n"
      "serve mode (continuous-batching trace simulation):\n"
      "  --serve                serve a sampled trace instead of one batch\n"
      "  --requests N           trace size (default 64)\n"
      "  --qps X                Poisson arrivals stamped on the trace at X\n"
      "                         requests/s (default all at t=0)\n"
      "  --sjf                  shortest-job-first admission\n";
}

int require_int(const std::string& v, const std::string& flag) {
  try {
    const int x = std::stoi(v);
    MIB_ENSURE(x >= 0, flag << " must be non-negative");
    return x;
  } catch (const std::exception&) {
    throw ConfigError(flag + " expects an integer, got '" + v + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::Scenario s;
  s.batch = 16;
  s.input_tokens = s.output_tokens = 512;
  std::string plan_kind = "tp";
  bool csv = false;
  bool serve = false;
  int n_requests = 64;
  double qps = 0.0;
  bool sjf = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        MIB_ENSURE(i + 1 < argc, a << " expects a value");
        return argv[++i];
      };
      if (a == "--help" || a == "-h") {
        usage();
        return 0;
      } else if (a == "--list") {
        Table t("model zoo");
        t.set_headers({"name", "total", "active", "experts", "top-k"});
        for (const auto& m : models::all_models()) {
          t.new_row()
              .cell(m.name)
              .cell(format_param_count(models::total_params(m)))
              .cell(format_param_count(models::active_params(m)))
              .cell(m.n_experts)
              .cell(m.top_k);
        }
        t.print(std::cout);
        return 0;
      } else if (a == "--model") {
        s.model = next();
      } else if (a == "--device") {
        s.device = next();
      } else if (a == "--devices") {
        s.n_devices = require_int(next(), a);
      } else if (a == "--plan") {
        plan_kind = to_lower(next());
      } else if (a == "--dtype") {
        s.weight_dtype = dtype_from_name(to_lower(next()));
      } else if (a == "--batch") {
        s.batch = require_int(next(), a);
      } else if (a == "--in") {
        s.input_tokens = require_int(next(), a);
      } else if (a == "--out") {
        s.output_tokens = require_int(next(), a);
      } else if (a == "--images") {
        s.images_per_request = require_int(next(), a);
      } else if (a == "--no-fused-moe") {
        s.fused_moe = false;
      } else if (a == "--csv") {
        csv = true;
      } else if (a == "--serve") {
        serve = true;
      } else if (a == "--requests") {
        n_requests = require_int(next(), a);
      } else if (a == "--qps") {
        qps = std::stod(next());
      } else if (a == "--sjf") {
        sjf = true;
      } else {
        usage();
        throw ConfigError("unknown flag: " + a);
      }
    }

    if (plan_kind == "tp") {
      s.plan = parallel::tp_plan(s.n_devices);
    } else if (plan_kind == "tp-ep") {
      s.plan = parallel::tp_ep_plan(s.n_devices);
    } else if (plan_kind == "pp") {
      s.plan = parallel::pp_plan(s.n_devices);
    } else if (plan_kind == "pp-ep") {
      s.plan = parallel::pp_ep_plan(s.n_devices);
    } else {
      throw ConfigError("unknown plan kind: " + plan_kind);
    }

    if (serve) {
      engine::SchedulerConfig sc;
      sc.max_batch = 256;
      sc.policy = sjf ? engine::QueuePolicy::kShortestFirst
                      : engine::QueuePolicy::kFcfs;
      workload::TraceConfig tc;
      tc.n_requests = n_requests;
      tc.input = {32, std::max(32, s.input_tokens), 1.2};
      tc.output = {32, std::max(32, s.output_tokens), 1.2};
      auto trace = workload::generate_trace(tc);
      if (qps != 0.0) {
        workload::ArrivalConfig ac;
        ac.rate_qps = qps;
        ac.seed = 1;
        workload::stamp_arrivals(ac, trace);
      }
      const engine::ServingSimulator sim(s.engine_config(), sc);
      const auto rep = sim.run(trace);
      Table t(s.model + " serve: " + std::to_string(n_requests) +
              " requests, " + (qps > 0 ? format_fixed(qps, 1) + " qps"
                                       : std::string("all-at-once")) +
              (sjf ? ", SJF" : ", FCFS"));
      t.set_headers({"metric", "value"});
      t.new_row().cell("makespan (s)").cell(rep.makespan_s, 2);
      t.new_row().cell("throughput (tok/s)").cell(rep.throughput_tok_s, 0);
      t.new_row().cell("goodput (gen tok/s)").cell(rep.goodput_tok_s, 0);
      t.new_row().cell("p50 / p95 TTFT (s)").cell(
          format_fixed(rep.ttft_s.percentile(50), 2) + " / " +
          format_fixed(rep.ttft_s.percentile(95), 2));
      t.new_row().cell("p50 / p95 e2e (s)").cell(
          format_fixed(rep.e2e_s.percentile(50), 2) + " / " +
          format_fixed(rep.e2e_s.percentile(95), 2));
      t.new_row().cell("mean running batch").cell(rep.mean_running_batch, 1);
      t.new_row().cell("preemptions").cell(rep.preemptions);
      if (csv) {
        t.print_csv(std::cout);
      } else {
        t.print(std::cout);
      }
      return 0;
    }

    const auto m = s.run();
    Table t(s.model + " on " + std::to_string(s.n_devices) + "x " +
            s.device + " [" + s.plan.label() + ", " +
            dtype_name(s.weight_dtype) + "]");
    t.set_headers({"metric", "value"});
    t.new_row().cell("batch / in / out").cell(
        std::to_string(s.batch) + " / " + std::to_string(s.input_tokens) +
        " / " + std::to_string(s.output_tokens));
    t.new_row().cell("TTFT (ms)").cell(to_ms(m.ttft_s), 2);
    t.new_row().cell("ITL (ms)").cell(to_ms(m.itl_s), 3);
    t.new_row().cell("end-to-end (s)").cell(m.e2e_s, 3);
    t.new_row().cell("throughput (tok/s)").cell(m.throughput_tok_s, 0);
    t.new_row().cell("samples/s").cell(m.samples_per_s, 3);
    t.new_row().cell("memory/device (GiB)").cell(to_gib(m.memory.total()), 2);
    t.new_row().cell("KV waves").cell(m.waves);
    if (csv) {
      t.print_csv(std::cout);
    } else {
      t.print(std::cout);
    }
    return 0;
  } catch (const mib::OutOfMemoryError& e) {
    std::cerr << "OOM: " << e.what() << "\n";
    return 2;
  } catch (const mib::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
