// EVENT KERNEL -- compiled-netlist event-driven fault simulation, measured.
//
// The PPSFP block loop runs one propagation kernel: a levelized selective
// trace over the CompiledNetlist that schedules only fanouts of gates whose
// pattern word actually changed, stops when the difference frontier dies,
// and restores only touched gates. This bench measures the PPSFP engine on
// one worker against --threads workers, across thread counts and across
// pattern-word widths.
//
// Circuits: the bundled SN74181 ALU plus two random combinational
// networks (~2k and ~20k gates). Each runs single-threaded and with
// --threads workers, without fault dropping so every row does identical
// logical work, and the detection vectors are checked equal.
//
// Timing methodology: engine construction (CompiledNetlist compilation,
// ThreadPool spin-up) happens before the timed region, and every engine
// gets one untimed 64-pattern warmup run first, so one-time costs --
// compilation, pool start, allocator pools -- never land in a timed row.
// Full (non-smoke) rows are the minimum of two timed runs, and the gated
// smoke row (rand2k) the minimum of five. The kernel's obs counters (events
// scheduled, gates evaluated, frontier-death depth histogram) are printed
// per circuit, and full mode adds a 1/2/4/8-thread scaling table.
//
// Regression gate: in full mode the largest circuit's threaded run must
// not be slower than its single-threaded run (the multi-threaded scaling
// inversion this bench once recorded); the bench exits nonzero if it is,
// and the committed BENCH_fault_sim.json is checked the same way by ctest.
//
// --smoke runs a reduced configuration (no 20k-gate circuit, fewer
// patterns) sized for CI; --json <file> writes the dft-obs-report
// document either way, with per-section "bench.event_kernel.*" timers
// and "bench.event_kernel.<circuit>.event_{1t,mt}_s" values.
//
// Both modes also time the scalar four-valued CombSim good machine on the
// 20k-gate circuit (1024 LFSR patterns, one pass each, as a BIST signature
// runs it) and report "bench.comb_sim.rand20k.ns_per_gate_eval".
//
// The lane-choice ablation grades with fault dropping, as every toolkit
// caller does, on the 64-bit lane, the widest lane and the DFT_SIMD=auto
// engine (64-bit head, widest-lane tail): rand2k at 64, 2048 and 8192
// patterns and rand20k at 1024, on 1 and 4 threads (smoke: rand2k at 2048
// on 1 thread). ctest gates the committed full run's rand20k row.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "lfsr/lfsr.h"
#include "obs/obs.h"
#include "sim/comb_sim.h"
#include "sim/simd.h"

using namespace dft;

namespace {

// Snapshot of the event kernel's obs counters, for per-circuit deltas.
struct EventCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t death[16] = {};

  static EventCounters read() {
    obs::Registry& reg = obs::Registry::global();
    EventCounters c;
    c.scheduled = reg.counter("fault_sim.event.events_scheduled").value();
    c.evaluated = reg.counter("fault_sim.event.gates_evaluated").value();
    for (int d = 0; d < 16; ++d) {
      char name[48];
      std::snprintf(name, sizeof(name), "fault_sim.event.death_depth.%02d%s",
                    d, d == 15 ? "_plus" : "");
      c.death[d] = reg.counter(name).value();
    }
    return c;
  }
};

// `reps` timed runs of `eng` (after the caller's warmup), without fault
// dropping unless `drop` is set; returns the minimum wall time and leaves
// the (deterministic) result in *out.
template <typename Engine>
double timed_min(Engine& eng, const std::string& section,
                 const std::vector<SourceVector>& pats,
                 const std::vector<Fault>& faults, int reps,
                 FaultSimResult* out, bool drop = false) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    double t = 0;
    *out = bench::timed(section, &t,
                        [&] { return eng.run(pats, faults, drop); });
    best = std::min(best, t);
  }
  return best;
}

struct CircuitTimes {
  double t_1t = 0;
  double t_mt = 0;
  bool ok = false;
};

// One circuit at 1 and N threads (plus, when `scaling` is set, at
// 1/2/4/8 threads). All detection vectors are checked equal before any
// time is reported.
CircuitTimes run_circuit(const Netlist& nl, const std::string& tag,
                         int threads, int num_patterns, int reps,
                         bool scaling) {
  CircuitTimes out;
  const CollapseResult col = collapse_faults(nl);
  std::mt19937_64 rng(7);
  std::vector<SourceVector> pats;
  pats.reserve(static_cast<std::size_t>(num_patterns));
  for (int i = 0; i < num_patterns; ++i) {
    pats.push_back(random_source_vector(nl, rng));
  }
  std::printf("  %s: %zu gates (depth %d), %zu collapsed faults, %d "
              "patterns\n",
              tag.c_str(), nl.topo_order().size(), nl.depth(),
              col.representatives.size(), num_patterns);

  // Construction -- CompiledNetlist compilation, ThreadPool spin-up --
  // stays outside every timed region.
  ParallelFaultSimulator evt(nl, 1);
  ParallelFaultSimulator evt_mt(nl, threads);

  // Untimed warmup: one 64-pattern block through both engines warms the
  // allocator, so the timed rows measure steady-state simulation only.
  const std::vector<SourceVector> warm(
      pats.begin(),
      pats.begin() + std::min<std::size_t>(64, pats.size()));
  (void)evt.run(warm, col.representatives, false);
  (void)evt_mt.run(warm, col.representatives, false);

  FaultSimResult re, rem;
  const EventCounters before = EventCounters::read();
  const double t_evt = timed_min(evt, "event_kernel." + tag + ".event_1t",
                                 pats, col.representatives, reps, &re);
  const EventCounters after = EventCounters::read();
  const double t_evt_mt =
      timed_min(evt_mt, "event_kernel." + tag + ".event_mt", pats,
                col.representatives, reps, &rem);

  if (rem.first_detected_by != re.first_detected_by) {
    std::fprintf(stderr, "FAIL %s: x%d detections diverge from x1\n",
                 tag.c_str(), evt_mt.threads());
    return out;
  }

  out.t_1t = t_evt;
  out.t_mt = t_evt_mt;
  out.ok = true;
  std::printf("      event x1  %8.3fs   event x%-2d %8.3fs   -> %5.2fx  "
              "(%d detected)\n",
              t_evt, evt_mt.threads(), t_evt_mt,
              t_evt / std::max(1e-9, t_evt_mt), re.num_detected);
  // "_s" suffix keeps the value names distinct from the timers of the same
  // rows (one obs name cannot be both kinds).
  bench::report_value("event_kernel." + tag + ".event_1t_s", t_evt);
  bench::report_value("event_kernel." + tag + ".event_mt_s", t_evt_mt);

  if (scaling) {
    // Event-kernel thread scaling through the engine production callers
    // get; a pool wider than the host's cores runs on that many workers.
    std::printf("      event scaling:");
    for (const int t : {1, 2, 4, 8}) {
      ParallelFaultSimulator e(nl, t);
      (void)e.run(warm, col.representatives, false);
      FaultSimResult r;
      // ".wall" suffix keeps the timer name distinct from the reported
      // value of the same row (one obs name cannot be both kinds).
      const double sec = timed_min(
          e, "event_kernel." + tag + ".scale_t" + std::to_string(t) + ".wall",
          pats, col.representatives, reps, &r);
      if (r.first_detected_by != re.first_detected_by) {
        std::fprintf(stderr, "FAIL %s: x%d detections diverge\n", tag.c_str(),
                     t);
        out.ok = false;
        return out;
      }
      std::printf("  x%d %7.3fs", t, sec);
      bench::report_value(
          "event_kernel." + tag + ".scale_t" + std::to_string(t), sec);
    }
    std::printf("\n");
  }

  if (obs::enabled()) {
    std::printf("      events scheduled %llu, gates evaluated %llu\n",
                static_cast<unsigned long long>(after.scheduled -
                                                before.scheduled),
                static_cast<unsigned long long>(after.evaluated -
                                                before.evaluated));
    std::printf("      frontier death depth:");
    for (int d = 0; d < 16; ++d) {
      const std::uint64_t n = after.death[d] - before.death[d];
      if (n == 0) continue;
      std::printf(" %d%s:%llu", d, d == 15 ? "+" : "",
                  static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
  return out;
}

// Pattern-word width ablation: the same block of patterns through the
// event kernel, single-threaded, once per lane (64-bit scalar baseline
// first, widest last). Every lane's first_detected_by vector is checked
// bit-identical against the baseline before any ratio is reported. With
// `all_lanes` false (smoke) only the baseline and the widest lane run.
// Returns the widest-vs-64-bit speedup, or a negative value on divergence.
double width_ablation(const Netlist& nl, const std::string& tag,
                      int num_patterns, int reps, bool all_lanes) {
  const CollapseResult col = collapse_faults(nl);
  std::mt19937_64 rng(7);
  std::vector<SourceVector> pats;
  pats.reserve(static_cast<std::size_t>(num_patterns));
  for (int i = 0; i < num_patterns; ++i) {
    pats.push_back(random_source_vector(nl, rng));
  }

  std::vector<simd::Lane> lanes = simd::available_lanes();
  if (!all_lanes && lanes.size() > 2) {
    // available_lanes() is Off-first, widest-last.
    lanes = {lanes.front(), lanes.back()};
  }
  std::printf("  %s width ablation: %d patterns, event kernel, 1 thread\n",
              tag.c_str(), num_patterns);

  double t_off = 0, t_wide = 0;
  simd::Lane widest = simd::Lane::Off;
  FaultSimResult ref;
  bool have_ref = false;
  for (const simd::Lane lane : lanes) {
    const auto eng = make_fault_sim_engine(nl, 1, FaultSimKernel::Event,
                                           lane);
    // Untimed warmup of one full word, as in run_circuit: allocator pools
    // stay out of the timed rows.
    const std::vector<SourceVector> warm(
        pats.begin(),
        pats.begin() + std::min<std::size_t>(
                           static_cast<std::size_t>(eng->pattern_word_bits()),
                           pats.size()));
    (void)eng->run(warm, col.representatives, false);
    const std::string lt(simd::lane_tag(lane));
    FaultSimResult r;
    const double sec =
        timed_min(*eng, "event_kernel." + tag + ".width." + lt + ".wall",
                  pats, col.representatives, reps, &r);
    if (!have_ref) {
      ref = r;
      have_ref = true;
      t_off = sec;
    } else if (r.first_detected_by != ref.first_detected_by) {
      std::fprintf(stderr,
                   "FAIL %s: lane %s detections diverge from 64-bit\n",
                   tag.c_str(), lt.c_str());
      return -1.0;
    }
    t_wide = sec;
    widest = lane;
    std::printf("      %-8s %4d bits  %8.3fs   %5.2fx vs 64-bit\n",
                std::string(simd::lane_name(lane)).c_str(),
                simd::lane_bits(lane), sec, t_off / std::max(1e-9, sec));
    bench::report_value("event_kernel." + tag + ".width." + lt, sec);
  }
  const double ratio = t_off / std::max(1e-9, t_wide);
  std::printf("      widest lane (%s) vs 64-bit scalar: %.2fx "
              "(target >= 1.7x)\n",
              std::string(simd::lane_name(widest)).c_str(), ratio);
  bench::report_value("event_kernel." + tag + ".wide_speedup_1t", ratio);
  return ratio;
}

// The DFT_SIMD=auto engine, whatever DFT_SIMD says in this process: the
// factory reads the policy when it builds the engine.
std::unique_ptr<FaultSimEngine> make_auto_engine(const Netlist& nl,
                                                 int threads) {
  const char* cur = std::getenv("DFT_SIMD");
  const std::string saved = cur != nullptr ? cur : "";
  setenv("DFT_SIMD", "auto", 1);
  auto eng = make_fault_sim_engine(nl, threads);
  if (cur != nullptr) {
    setenv("DFT_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("DFT_SIMD");
  }
  return eng;
}

// Lane choice with fault dropping, the way every toolkit caller grades: the
// 64-bit lane, the widest lane this host offers, and the auto engine (a
// 64-bit head over the first 64 patterns, the widest lane for the faults it
// leaves), at each of `patterns` and each of `threads`. Every engine gets
// one untimed run of the full pattern set first, so the auto engine's
// wide tail is built outside the timed rows, and every result is checked
// against the 64-bit one. Reports
// "event_kernel.<tag>.drop_p<N>.t<T>.{x1,widest,auto}"; returns false on
// divergence.
bool drop_ablation(const Netlist& nl, const std::string& tag,
                     const std::vector<int>& patterns,
                     const std::vector<int>& threads, int reps) {
  const CollapseResult col = collapse_faults(nl);
  const simd::Lane widest = simd::available_lanes().back();
  std::printf("  %s lane choice with dropping (widest lane %s):\n",
              tag.c_str(), std::string(simd::lane_name(widest)).c_str());
  for (const int n : patterns) {
    std::mt19937_64 rng(7);
    std::vector<SourceVector> pats;
    pats.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pats.push_back(random_source_vector(nl, rng));
    for (const int t : threads) {
      const std::string row =
          tag + ".drop_p" + std::to_string(n) + ".t" + std::to_string(t);
      struct Column {
        const char* name;
        std::unique_ptr<FaultSimEngine> eng;
        double sec = 0;
      };
      Column cols[] = {
          {"x1",
           make_fault_sim_engine(nl, t, FaultSimKernel::Event,
                                 simd::Lane::Off)},
          {"widest", make_fault_sim_engine(nl, t, FaultSimKernel::Event,
                                           widest)},
          {"auto", make_auto_engine(nl, t)}};
      FaultSimResult ref;
      for (Column& c : cols) {
        (void)c.eng->run(pats, col.representatives, true);
        FaultSimResult r;
        c.sec = timed_min(*c.eng, "event_kernel." + row + "." + c.name +
                                      ".wall",
                          pats, col.representatives, reps, &r, true);
        if (&c == &cols[0]) {
          ref = r;
        } else if (r.first_detected_by != ref.first_detected_by) {
          std::fprintf(stderr, "FAIL %s: %s detections diverge from x1\n",
                       row.c_str(), c.name);
          return false;
        }
        bench::report_value("event_kernel." + row + "." + c.name, c.sec);
      }
      std::printf("      %5d patterns x%d  64-bit %8.4fs  widest %8.4fs  "
                  "auto %8.4fs  (auto %.2fx vs widest)\n",
                  n, t, cols[0].sec, cols[1].sec, cols[2].sec,
                  cols[1].sec / std::max(1e-9, cols[2].sec));
    }
  }
  return true;
}

// The scalar four-valued good machine alone, driven as a BIST signature
// drives it: one CombSim pass per pattern of a 24-bit LFSR, 1024 patterns.
// Reports the minimum over `reps` runs as the cost of one gate evaluation.
void comb_sim_row(const Netlist& nl, const std::string& tag, int reps) {
  Lfsr prpg = Lfsr::maximal(24, 0x5eed);
  std::vector<SourceVector> pats(1024, SourceVector(source_count(nl)));
  for (SourceVector& v : pats) {
    for (Logic& bit : v) bit = to_logic(prpg.step());
  }
  CombSim sim(nl);
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    double t = 0;
    bench::timed("comb_sim." + tag, &t, [&] {
      for (const SourceVector& v : pats) {
        std::size_t k = 0;
        for (GateId g : nl.inputs()) sim.set_value(g, v[k++]);
        for (GateId g : nl.storage()) sim.set_value(g, v[k++]);
        sim.evaluate();
      }
    });
    best = std::min(best, t);
  }
  const double ns = best * 1e9 / (static_cast<double>(pats.size()) *
                                  static_cast<double>(nl.topo_order().size()));
  std::printf("      comb_sim: %zu LFSR patterns, %.2f ns per gate "
              "evaluation\n",
              pats.size(), ns);
  bench::report_value("comb_sim." + tag + ".ns_per_gate_eval", ns);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before the shared parser sees the argument list.
  bool smoke = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args = bench::parse_args(
      static_cast<int>(rest.size()), rest.data(), /*default_threads=*/0);
  if (args.status >= 0) return args.status;
  const int reps = smoke ? 1 : 2;

  std::printf("Event-kernel fault simulation -- threads and word widths%s\n\n",
              smoke ? " (smoke)" : "");

  CircuitTimes largest;
  std::string largest_tag;
  {
    const Netlist alu = make_sn74181();
    const CircuitTimes c = run_circuit(alu, "sn74181", args.threads,
                                       smoke ? 128 : 256, reps, !smoke);
    if (!c.ok) return 1;
  }
  {
    RandomCircuitSpec spec;
    spec.num_inputs = 40;
    spec.num_outputs = 24;
    spec.num_gates = 2000;
    spec.max_fanin = 4;
    spec.seed = 99;
    const Netlist nl = make_random_combinational(spec);
    // The schema check gates this row's threaded/single-threaded ratio, so
    // smoke takes its minimum over five runs: one 64-pattern run lasts
    // about 8 ms, and a single stall on a shared host would decide it.
    const CircuitTimes c = run_circuit(nl, "rand2k", args.threads,
                                       smoke ? 64 : 256, smoke ? 5 : reps,
                                       !smoke);
    if (!c.ok) return 1;
    largest = c;
    largest_tag = "rand2k";
  }
  if (!smoke) {
    RandomCircuitSpec spec;
    spec.num_inputs = 64;
    spec.num_outputs = 48;
    spec.num_gates = 20000;
    spec.max_fanin = 4;
    spec.seed = 1234;
    const Netlist nl = make_random_combinational(spec);
    const CircuitTimes c =
        run_circuit(nl, "rand20k", args.threads, 256, reps, true);
    if (!c.ok) return 1;
    largest = c;
    largest_tag = "rand20k";
  }

  // Pattern-word width ablation: every lane this host offers on the
  // 20k-gate circuit (full mode adds rand2k), 512 patterns so even the
  // widest word runs full. Smoke compares just the 64-bit baseline against
  // the widest lane -- enough for the headline ratio.
  std::printf("\n");
  double wide_ratio;
  {
    if (!smoke) {
      RandomCircuitSpec spec;
      spec.num_inputs = 40;
      spec.num_outputs = 24;
      spec.num_gates = 2000;
      spec.max_fanin = 4;
      spec.seed = 99;
      const Netlist nl = make_random_combinational(spec);
      if (width_ablation(nl, "rand2k", 512, reps, true) < 0) return 1;
    }
    RandomCircuitSpec spec;
    spec.num_inputs = 64;
    spec.num_outputs = 48;
    spec.num_gates = 20000;
    spec.max_fanin = 4;
    spec.seed = 1234;
    const Netlist nl = make_random_combinational(spec);
    wide_ratio = width_ablation(nl, "rand20k", 512, reps, !smoke);
    if (wide_ratio < 0) return 1;
    comb_sim_row(nl, "rand20k", reps);
  }

  // Lane choice with dropping: short and long runs on rand2k, the BIST
  // grading run on rand20k; smoke keeps one rand2k row.
  std::printf("\n");
  {
    RandomCircuitSpec spec;
    spec.num_inputs = 40;
    spec.num_outputs = 24;
    spec.num_gates = 2000;
    spec.max_fanin = 4;
    spec.seed = 99;
    const Netlist nl = make_random_combinational(spec);
    const std::vector<int> patterns =
        smoke ? std::vector<int>{2048} : std::vector<int>{64, 2048, 8192};
    const std::vector<int> threads =
        smoke ? std::vector<int>{1} : std::vector<int>{1, 4};
    if (!drop_ablation(nl, "rand2k", patterns, threads, reps)) return 1;
  }
  if (!smoke) {
    RandomCircuitSpec spec;
    spec.num_inputs = 64;
    spec.num_outputs = 48;
    spec.num_gates = 20000;
    spec.max_fanin = 4;
    spec.seed = 1234;
    const Netlist nl = make_random_combinational(spec);
    if (!drop_ablation(nl, "rand20k", {1024}, {1, 4}, reps)) return 1;
  }

  std::printf("\n  expected shape: threads never slower than one thread\n"
              "  on the large circuits, the widest pattern word at\n"
              "  least matching the 64-bit scalar without dropping, and\n"
              "  auto never slower than the widest lane with dropping.\n");
  if (!bench::emit_report(args, "bench_event_kernel",
                          {{"smoke", smoke ? "1" : "0"}})) {
    return 1;
  }
  // The inversion gate: blocks in order with every worker stealing stem
  // regions, the threaded run must never be slower than the single-threaded
  // one on the largest circuit.
  // Smoke rows are micro-second scale and too noisy to gate here; ctest
  // gates the fresh smoke artifact at a noise tolerance and the committed
  // full-run artifact exactly.
  if (!smoke && largest.t_mt > largest.t_1t) {
    std::fprintf(stderr,
                 "FAIL %s: x%d run %.3fs slower than x1 %.3fs (MT scaling "
                 "inversion)\n",
                 largest_tag.c_str(), args.threads, largest.t_mt,
                 largest.t_1t);
    return 1;
  }
  // Width self-gate: a full run fails if the widest pattern word cannot at
  // least match the 64-bit scalar on the largest circuit -- the whole point
  // of the wide lanes. Smoke rows only print the ratio (micro-run noise).
  if (!smoke && wide_ratio < 1.0) {
    std::fprintf(stderr,
                 "FAIL rand20k: widest lane %.3fx vs 64-bit scalar -- wide "
                 "word slower than the classic path\n",
                 wide_ratio);
    return 1;
  }
  return 0;
}
