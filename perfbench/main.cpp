// perfbench -- the toolkit's repository benchmark.
//
//   perfbench --workload <atpg_rand1k|bist_rand20k|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints "context ..." and "metric <name> <value> <unit>" lines, then one
// JSON line {"correct","attempted","failed","metrics"} with every metric
// the workload measured. Exit 0 when every output check passed, 1 when one
// failed, 2 on a usage error or a build that must not report numbers.
// perfbench/run.py builds this binary and filters the metrics to the set
// BENCHMARK.json names.
#include <cstdio>
#include <exception>
#include <string>

#include "harness.h"
#include "obs/obs.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <atpg_rand1k|bist_rand20k|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

// Numbers from an instrumented or unoptimised build say nothing about the
// program as shipped.
const char* unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimised build";
#else
  return nullptr;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        args.trace = v == "1";
      } else if (a == "--out-dir") {
        args.out_dir = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s\n",
                 why);
    return 2;
  }

  // Metrics on, as a dft_tool or serve user gets them.
  dft::obs::set_enabled(true);
  perfbench::Report report;
  perfbench::note_host_context(report);
  report.note("workload", args.workload);
  report.note("seed", std::to_string(args.seed));
  report.note("seconds", std::to_string(args.seconds));
  report.note("trace", args.trace ? "1" : "0");
  try {
    if (args.workload == "atpg_rand1k") {
      perfbench::run_atpg_workload(args, report);
    } else if (args.workload == "bist_rand20k") {
      perfbench::run_bist_workload(args, report);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_workload(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
