// STATIC PRUNE -- the dft::sta pre-pass as an ATPG accelerator, measured.
//
// Runs the full run_atpg flow twice per circuit -- static_prune off, then
// on -- and reports the share of collapsed faults the implication engine
// proves untestable before any search, plus the end-to-end wall-clock
// both ways. The pre-pass is sound by construction (a pruned fault is one
// an unbounded PODEM would prove Redundant), so the two runs must agree
// bit-for-bit on the detected count and the test set, and every fault the
// search proves redundant must also be redundant with the pre-pass on; the
// bench fails loudly if they ever diverge. Under a capped backtrack limit
// the pre-pass additionally *improves* the classification: redundant
// faults the capped search gives up on (aborted) come back proven.
//
// The payoff is concentrated where ATPG hurts most: redundant faults are
// exactly the ones PODEM burns its whole backtrack budget on before
// giving up, so every pruned fault converts a worst-case search into a
// table lookup. Random combinational circuits make good subjects -- the
// generator's reconvergent sampling leaves ~30% of collapsed faults
// statically untestable on the 2k-gate circuit.
//
// A deliberately low backtrack limit keeps the baseline tractable: the
// abort-vs-redundant split changes with the limit, but the on/off
// equivalence and the pruned share do not.
//
// --smoke runs a reduced configuration (one ~800-gate circuit, fewer
// random patterns) sized for CI; the default run covers the ALU and the
// 2k-gate circuit; --large adds the 20k-gate circuit (tens of minutes for
// the no-prune leg). --json <file> writes the dft-obs-report document
// either way, with "bench.sta_prune.<circuit>.*" values (among them
// sta_build_s, one stand-alone analyzer build) and the engine's own sta.*
// counters.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "bench_util.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sta/sta.h"

using namespace dft;

namespace {

// One circuit through run_atpg with the pre-pass off and on. Returns false
// when the two runs disagree (they must not).
bool run_circuit(const Netlist& nl, const std::string& tag,
                 int random_patterns) {
  const CollapseResult col = collapse_faults(nl);

  AtpgOptions opt;
  opt.random_patterns = random_patterns;
  // Low abort budget: keeps the no-prune baseline tractable (redundant
  // faults otherwise each burn the full default budget before aborting).
  opt.backtrack_limit = 100;
  opt.seed = 1;

  opt.static_prune = false;
  double t_off = 0;
  const AtpgRun off = bench::timed("sta_prune." + tag + ".atpg_off", &t_off,
                                   [&] { return run_atpg(nl, col.representatives, opt); });

  opt.static_prune = true;
  double t_on = 0;
  const AtpgRun on = bench::timed("sta_prune." + tag + ".atpg_on", &t_on,
                                  [&] { return run_atpg(nl, col.representatives, opt); });

  // The analyzer build on its own: the fixed cost the pre-pass pays
  // before it prunes anything.
  double t_sta = 0;
  bench::timed("sta_prune." + tag + ".sta_build", &t_sta,
               [&] { (void)sta::StaticAnalyzer(nl); });

  const double share =
      on.num_faults == 0
          ? 0.0
          : static_cast<double>(on.statically_pruned) / on.num_faults;
  const double speedup = t_off / std::max(1e-9, t_on);
  std::printf("  %-8s %6d faults  pruned %5d (%5.1f%%)   off %8.3fs   "
              "on %8.3fs   -> %5.2fx\n",
              tag.c_str(), on.num_faults, on.statically_pruned, 100.0 * share,
              t_off, t_on, speedup);

  // Soundness: identical tests and detections, and the search-proven
  // redundant set is contained in the pre-pass run's redundant set (under a
  // capped backtrack limit the pre-pass proves strictly more -- faults the
  // capped search aborted on).
  std::vector<Fault> r_off = off.redundant, r_on = on.redundant;
  std::sort(r_off.begin(), r_off.end());
  std::sort(r_on.begin(), r_on.end());
  const bool contained =
      std::includes(r_on.begin(), r_on.end(), r_off.begin(), r_off.end());
  if (off.detected != on.detected || off.tests.size() != on.tests.size() ||
      !contained) {
    std::fprintf(stderr,
                 "FAIL %s: pre-pass changed the result (detected %d vs %d, "
                 "tests %zu vs %zu, redundant-set containment %s)\n",
                 tag.c_str(), off.detected, on.detected, off.tests.size(),
                 on.tests.size(), contained ? "ok" : "VIOLATED");
    return false;
  }
  std::printf("           detected %d (identical off/on), redundant "
              "%zu -> %zu, aborted %zu -> %zu, coverage %.4f\n",
              on.detected, off.redundant.size(), on.redundant.size(),
              off.aborted.size(), on.aborted.size(), on.fault_coverage());
  std::printf("           analyzer build %.3fs\n", t_sta);

  bench::report_value("sta_prune." + tag + ".pruned_share", share);
  bench::report_value("sta_prune." + tag + ".speedup", speedup);
  bench::report_value("sta_prune." + tag + ".sta_build_s", t_sta);
  bench::report_value("sta_prune." + tag + ".detected",
                      static_cast<double>(on.detected));
  return true;
}

Netlist make_rand(int inputs, int outputs, int gates, std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.num_inputs = inputs;
  spec.num_outputs = outputs;
  spec.num_gates = gates;
  spec.max_fanin = 4;
  spec.seed = seed;
  return make_random_combinational(spec);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke / --large before the shared parser sees the list.
  bool smoke = false, large = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (i > 0 && std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args = bench::parse_args(
      static_cast<int>(rest.size()), rest.data(), /*default_threads=*/1);
  if (args.status >= 0) return args.status;

  std::printf("Static-prune pre-pass -- run_atpg with dft::sta off vs on%s\n\n",
              smoke ? " (smoke)" : "");

  bool ok = true;
  if (smoke) {
    ok = run_circuit(make_rand(32, 16, 800, 5), "rand800", 256);
  } else {
    ok = run_circuit(make_sn74181(), "sn74181", 256) && ok;
    ok = run_circuit(make_rand(40, 24, 2000, 99), "rand2k", 2048) && ok;
    if (large) {
      std::printf("  (rand20k: the no-prune leg takes tens of minutes)\n");
      ok = run_circuit(make_rand(64, 48, 20000, 1234), "rand20k", 2048) && ok;
    }
  }
  if (!ok) return 1;

  std::printf("\n  expected shape: identical detected counts and test sets\n"
              "  both ways, with the redundant set only growing (aborted\n"
              "  faults come back proven); the pruned share tracks the\n"
              "  circuit's redundancy (~0 on the hand-designed ALU, ~30%% on\n"
              "  the random networks) and the speedup tracks the share of\n"
              "  search time the aborted redundant faults were consuming.\n");
  if (!bench::emit_report(args, "bench_sta_prune",
                          {{"smoke", smoke ? "1" : "0"}})) {
    return 1;
  }
  return 0;
}
