// EQ1 -- Eq. (1): T = K * N^3 test generation / fault simulation scaling.
//
// Measures wall-clock time of (a) the full ATPG flow (random + PODEM +
// compaction) and (b) fault simulation alone, on random circuits of growing
// gate count, and fits the log-log slope. The paper argues the combined
// exponent is ~3 (footnote: "other analyses have used the value 2") and
// that fault simulation alone scales ~N^2.
//
// `--threads N` additionally runs the fault-simulation workload on N
// workers of the PPSFP engine, ParallelFaultSimulator(nl, N) (0 = hardware
// concurrency), and reports the speedup over one worker;
// the constant K shrinks with cores, the exponent does not.
// `--json <file>` writes the dft-obs-report document with every section
// time ("bench.atpg.<gates>", ...), the engine phase timers, and the
// fitted exponents as values.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "bench_util.h"
#include "circuits/random_circuit.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"

using namespace dft;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, 1);
  if (args.status >= 0) return args.status;
  const int threads = args.threads;
  const bool threaded = threads != 1;

  std::printf("Eq. (1) -- T = K*N^e scaling of ATPG and fault simulation\n\n");
  if (threaded) {
    std::printf("  %6s  %8s  %10s  %12s  %12s  %8s  %10s\n", "gates", "faults",
                "atpg_s", "faultsim_s", "fsim_mt_s", "speedup", "coverage");
  } else {
    std::printf("  %6s  %8s  %10s  %12s  %10s\n", "gates", "faults",
                "atpg_s", "faultsim_s", "coverage");
  }

  std::vector<double> sizes, t_atpg, t_fsim;
  for (const int gates : {100, 200, 400, 800}) {
    RandomCircuitSpec spec;
    spec.num_inputs = 24;
    spec.num_outputs = 16;
    spec.num_gates = gates;
    spec.max_fanin = 4;
    spec.seed = 1234 + static_cast<std::uint64_t>(gates);
    const Netlist nl = make_random_combinational(spec);
    const auto faults = collapse_faults(nl).representatives;
    const std::string tag = std::to_string(gates);

    AtpgOptions opt;
    opt.random_patterns = 256;
    opt.backtrack_limit = 400;
    opt.threads = threads;
    double atpg_s = 0;
    const AtpgRun run = bench::timed("atpg." + tag, &atpg_s,
                                     [&] { return run_atpg(nl, faults, opt); });

    // Fault simulation alone: 256 random patterns, no dropping (the paper's
    // "3001 good machine simulations" picture).
    std::mt19937_64 rng(9);
    std::vector<SourceVector> pats;
    for (int i = 0; i < 256; ++i) pats.push_back(random_source_vector(nl, rng));
    ParallelFaultSimulator fsim(nl);
    double fsim_s = 0;
    const auto r1 =
        bench::timed("fault_sim." + tag, &fsim_s,
                     [&] { return fsim.run(pats, faults, false); });

    sizes.push_back(gates);
    t_atpg.push_back(std::max(1e-6, atpg_s));
    t_fsim.push_back(std::max(1e-6, fsim_s));
    bench::report_value("coverage." + tag, run.fault_coverage());
    if (threaded) {
      ParallelFaultSimulator tsim(nl, threads);
      double mt_s = 0;
      const auto rt =
          bench::timed("fault_sim_mt." + tag, &mt_s,
                       [&] { return tsim.run(pats, faults, false); });
      if (rt.first_detected_by != r1.first_detected_by) {
        std::fprintf(stderr, "ERROR: threaded result diverged at %d gates\n",
                     gates);
        return 1;
      }
      const double tm = std::max(1e-6, mt_s);
      std::printf("  %6d  %8zu  %10.4f  %12.4f  %12.4f  %7.2fx  %9.1f%%\n",
                  gates, faults.size(), t_atpg.back(), t_fsim.back(), tm,
                  t_fsim.back() / tm, 100 * run.fault_coverage());
    } else {
      std::printf("  %6d  %8zu  %10.4f  %12.4f  %9.1f%%\n", gates,
                  faults.size(), t_atpg.back(), t_fsim.back(),
                  100 * run.fault_coverage());
    }
  }

  const double e_atpg = bench::fit_slope(sizes, t_atpg);
  const double e_fsim = bench::fit_slope(sizes, t_fsim);
  bench::report_value("exponent.atpg", e_atpg);
  bench::report_value("exponent.fault_sim", e_fsim);
  std::printf("\n  fitted exponents (log-log slope):\n");
  std::printf("    ATPG + fault sim : %.2f   (paper: ~3, some analyses ~2)\n",
              e_atpg);
  std::printf("    fault sim alone  : %.2f   (paper: ~2)\n", e_fsim);
  std::printf(
      "\n  shape check: superlinear growth in both; small increases in gate\n"
      "  count yield quickly increasing run times.\n");
  if (!bench::emit_report(args, "bench_eq01_scaling",
                          {{"sizes", "100,200,400,800"},
                           {"patterns", "256"}})) {
    return 1;
  }
  return 0;
}
