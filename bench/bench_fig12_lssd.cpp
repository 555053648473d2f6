// FIG9-12 -- LSSD (Sec. IV-A).
//
// The headline claim: scan reduces the sequential test-generation problem
// to the combinational one. We compare fault coverage of a sequential
// machine tested (a) with random input sequences applied to its pins only
// (no scan), against (b) full LSSD scan with combinational ATPG patterns
// applied through the chains -- plus the overhead and serialization cost.
#include <cstdio>
#include <random>

#include "atpg/engine.h"
#include "circuits/random_circuit.h"
#include "fault/fault_sim.h"
#include "netlist/stats.h"
#include "scan/scan_insert.h"
#include "scan/scan_ops.h"
#include "sim/seq_sim.h"

using namespace dft;

namespace {

// No-scan testing: drive PIs with random sequences, observe POs only, over
// `cycles` clocks; a fault is caught when some PO differs from the good
// machine at some cycle.
double sequential_random_coverage(const Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  int sequences, int cycles,
                                  std::uint64_t seed) {
  int caught = 0;
  SeqSim good(nl);
  SeqSim bad(good);  // shares good's compiled program
  for (const Fault& f : faults) {
    std::mt19937_64 rng(seed);
    bad.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
    bool det = false;
    for (int s = 0; s < sequences && !det; ++s) {
      good.reset(Logic::X);
      bad.reset(Logic::X);
      for (int t = 0; t < cycles && !det; ++t) {
        std::vector<Logic> in(nl.inputs().size());
        for (auto& v : in) v = to_logic((rng() & 1) != 0);
        good.set_inputs(in);
        bad.set_inputs(in);
        good.evaluate();
        bad.evaluate();
        const auto a = good.output_values();
        const auto b = bad.output_values();
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (is_binary(a[i]) && is_binary(b[i]) && a[i] != b[i]) det = true;
        }
        good.clock();
        bad.clock();
      }
    }
    caught += det;
  }
  return static_cast<double>(caught) / static_cast<double>(faults.size());
}

}  // namespace

int main() {
  std::printf("Figs. 9-12 -- LSSD: scan turns sequential ATPG combinational\n\n");
  std::printf("  %6s  %6s  %10s  %10s  %10s  %9s  %9s\n", "flops", "gates",
              "noscan_cov", "lssd_cov", "lssd_tcov", "overhead", "cyc/pat");

  for (int flops : {8, 16, 32}) {
    RandomSeqSpec spec;
    spec.num_flops = flops;
    spec.num_inputs = 8;
    spec.num_outputs = 6;
    spec.gates_per_cone = 14;
    spec.seed = 100 + static_cast<std::uint64_t>(flops);

    // (a) no scan: the fault universe of the plain machine.
    const Netlist plain = make_random_sequential(spec);
    const auto faults_plain = collapse_faults(plain).representatives;
    const double cov_noscan =
        sequential_random_coverage(plain, faults_plain, 8, 32, 7);

    // (b) LSSD: insert scan, run combinational ATPG, apply via chains.
    Netlist scanned = make_random_sequential(spec);
    const ScanInsertionResult ins = insert_scan(scanned, ScanStyle::Lssd);
    const auto faults_scan = collapse_faults(scanned).representatives;
    AtpgOptions opt;
    opt.backtrack_limit = 50000;
    const AtpgRun run = run_atpg(scanned, faults_scan, opt);

    // Serialization cost of applying that test set through the chain.
    ScanTester tester(scanned, ins.chains);
    SeqSim sim(scanned);
    sim.reset(Logic::X);
    for (const auto& t : run.tests) tester.apply(sim, t);
    const double cyc_per_pat =
        run.tests.empty() ? 0.0
                          : static_cast<double>(tester.stats().clock_cycles) /
                                static_cast<double>(run.tests.size());

    std::printf("  %6d  %6d  %9.1f%%  %9.1f%%  %9.1f%%  %8.1f%%  %9.1f\n",
                flops, compute_stats(plain).combinational_gates,
                100 * cov_noscan, 100 * run.fault_coverage(),
                100 * run.test_coverage(), 100 * ins.overhead_fraction(),
                cyc_per_pat);
  }
  std::printf(
      "\n  shape: LSSD coverage ~ complete (test coverage 100%% of\n"
      "  non-redundant faults) while pin-only sequential random testing\n"
      "  stalls; gate overhead sits in the paper's 4-20%% band for\n"
      "  logic-dominated designs; the price is ~2L+1 clocks per pattern\n"
      "  (the serialization the paper concedes).\n");
  return 0;
}
