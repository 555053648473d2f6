// bist_rand20k: what `dft_tool bist` does, on a random 20000-gate circuit
// (64 PI / 48 PO, fan-in <= 4): 1024 patterns from a maximal 24-bit LFSR,
// a CombSim good-machine signature, then grading of every collapsed fault
// with dropping on four workers at the auto-resolved SIMD lane.
//
// Chosen because there is no search at all and grading is almost all the
// time: a fault-kernel or scheduler change moves it, a PODEM change must
// not. At the 512-bit lane 1024 patterns make only two blocks, so the
// threaded engine takes its fault-chunk decomposition here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/threaded_fault_sim.h"
#include "harness.h"
#include "lfsr/lfsr.h"
#include "obs/obs.h"
#include "sim/comb_sim.h"
#include "sim/parallel_sim.h"

namespace perfbench {
namespace {

constexpr int kPatterns = 1024;
constexpr int kWorkers = 4;
constexpr int kOverheadRounds = 3;

// The toolkit's built-in rand20k circuit. It is fixed, like the ATPG
// workload's; the workload seed picks the LFSR start state.
dft::RandomCircuitSpec circuit_spec() {
  dft::RandomCircuitSpec spec;
  spec.num_inputs = 64;
  spec.num_outputs = 48;
  spec.num_gates = 20000;
  spec.max_fanin = 4;
  spec.seed = 1234;
  return spec;
}

// A nonzero 24-bit LFSR start state drawn from the workload seed.
std::uint64_t lfsr_seed(std::uint64_t seed) {
  return ((seed * 0x9e3779b97f4a7c15ull) >> 40) | 1;
}

struct Circuit {
  dft::Netlist nl;
  std::vector<dft::Fault> faults;
};

// Circuit generation, .bench parse and fault collapse.
std::unique_ptr<Circuit> set_up(SpanLog* log) {
  Scoped root(log, "setup", -1, "setup");
  auto c = std::make_unique<Circuit>();
  c->nl = random_circuit_from_bench(circuit_spec(), log, root.id(),
                                    "setup");
  Scoped s(log, "fault.collapse", root.id(), "setup");
  c->faults = dft::collapse_faults(c->nl).representatives;
  return c;
}

std::vector<dft::SourceVector> prpg_patterns(const dft::Netlist& nl,
                                             std::uint64_t seed) {
  dft::Lfsr prpg = dft::Lfsr::maximal(24, lfsr_seed(seed));
  std::vector<dft::SourceVector> tests;
  tests.reserve(kPatterns);
  for (int p = 0; p < kPatterns; ++p) {
    dft::SourceVector v(dft::source_count(nl));
    for (dft::Logic& bit : v) bit = dft::to_logic(prpg.step());
    tests.push_back(std::move(v));
  }
  return tests;
}

struct Session {
  std::uint64_t signature = 0;
  dft::FaultSimResult result;
  double wall = 0;
  double grade_wall = 0;
  double grade_cpu = 0;
};

// One BIST session as a user runs it: PRPG, signature, a fresh grading
// engine, grading.
Session bist_session(const Circuit& c, std::uint64_t seed, SpanLog* log,
                     const std::string& run_id) {
  Session s;
  const double t0 = now_s();
  Scoped root(log, "bist.run", -1, run_id);
  const int r = root.id();
  std::vector<dft::SourceVector> tests;
  {
    Scoped span(log, "lfsr.prpg", r, run_id);
    tests = prpg_patterns(c.nl, seed);
  }
  {
    Scoped span(log, "sim.signature", r, run_id);
    dft::CombSim sim(c.nl);
    dft::SignatureAnalyzer sa(32);
    for (const dft::SourceVector& v : tests) {
      std::size_t k = 0;
      for (dft::GateId g : c.nl.inputs()) sim.set_value(g, v[k++]);
      for (dft::GateId g : c.nl.storage()) sim.set_value(g, v[k++]);
      sim.evaluate();
      for (dft::GateId po : c.nl.outputs()) {
        sa.shift(sim.value(po) == dft::Logic::One);
      }
    }
    s.signature = sa.signature();
  }
  std::unique_ptr<dft::FaultSimEngine> engine;
  {
    Scoped span(log, "netlist.compile", r, run_id);
    engine = dft::make_fault_sim_engine(c.nl, kWorkers);
  }
  {
    Scoped span(log, "fault.grade", r, run_id);
    const double w = now_s();
    const double cpu = cpu_s();
    s.result = engine->run(tests, c.faults, true);
    s.grade_cpu = cpu_s() - cpu;
    s.grade_wall = now_s() - w;
  }
  root.finish();
  s.wall = now_s() - t0;
  return s;
}

// The reference: the same patterns through the 64-bit ParallelSim for the
// signature, and a single-worker 64-bit engine for the grading.
Session reference_session(const Circuit& c, std::uint64_t seed) {
  Session s;
  const std::vector<dft::SourceVector> tests = prpg_patterns(c.nl, seed);
  dft::ParallelSim sim(c.nl);
  dft::SignatureAnalyzer sa(32);
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
    std::size_t k = 0;
    const auto pack = [&](dft::GateId g) {
      std::uint64_t w = 0;
      for (std::size_t p = 0; p < count; ++p) {
        if (tests[base + p][k] == dft::Logic::One) w |= std::uint64_t{1} << p;
      }
      sim.set_word(g, w);
      ++k;
    };
    for (dft::GateId g : c.nl.inputs()) pack(g);
    for (dft::GateId g : c.nl.storage()) pack(g);
    sim.evaluate();
    for (std::size_t p = 0; p < count; ++p) {
      for (dft::GateId po : c.nl.outputs()) {
        sa.shift(((sim.word(po) >> p) & 1) != 0);
      }
    }
  }
  s.signature = sa.signature();
  const auto engine = dft::make_fault_sim_engine(
      c.nl, 1, dft::FaultSimKernel::Event, dft::simd::Lane::Off);
  s.result = engine->run(tests, c.faults, true);
  return s;
}

void traced_run(const Args& args, Report& report) {
  SpanLog setup_log;
  const std::unique_ptr<Circuit> c = set_up(&setup_log);
  report.metric("netlist.parse_s", setup_log.self_total("netlist.parse"), "s");
  report.metric("netlist.parse_calls",
                static_cast<double>(setup_log.count("netlist.parse")), "count");
  report.metric("fault.collapse_s", setup_log.self_total("fault.collapse"),
                "s");

  // The process's first session runs cold (page faults, pool start-up) and
  // would skew every comparison below; it is not measured.
  bist_session(*c, args.seed, nullptr, "");
  dft::obs::Registry& reg = dft::obs::Registry::global();
  reg.reset();
  const Session shipped = bist_session(*c, args.seed, nullptr, "");
  for (const char* name :
       {"sim.comb.gate_evals", "fault_sim.event.gates_evaluated",
        "fault_sim.event.events_scheduled", "fault_sim.ppsfp.faults_simulated",
        "fault_sim.ppsfp.faults_dropped",
        "fault_sim.threaded.decomposition.sequential",
        "fault_sim.threaded.decomposition.pattern_block",
        "fault_sim.threaded.decomposition.fault_chunk"}) {
    report.metric(name, static_cast<double>(counter(name)), "count");
  }

  SpanLog log;
  const Session traced = bist_session(*c, args.seed, &log, "traced");
  report.check(traced.signature == shipped.signature &&
                   traced.result.first_detected_by ==
                       shipped.result.first_detected_by,
               "traced BIST session differs from the untraced one");
  // Overheads from medians of interleaved sessions: one session pair alone
  // is within run-to-run noise.
  std::vector<double> on{shipped.wall}, spanned{traced.wall}, off;
  for (int i = 0; i < kOverheadRounds; ++i) {
    if (i > 0) {
      on.push_back(bist_session(*c, args.seed, nullptr, "").wall);
      SpanLog scratch;
      spanned.push_back(bist_session(*c, args.seed, &scratch, "").wall);
    }
    dft::obs::set_enabled(false);
    off.push_back(bist_session(*c, args.seed, nullptr, "").wall);
    dft::obs::set_enabled(true);
  }

  const double layer_total =
      log.self_total("lfsr.prpg") + log.self_total("sim.signature") +
      log.self_total("netlist.compile") + log.self_total("fault.grade");
  report.metric("lfsr.prpg_s", log.self_total("lfsr.prpg"), "s");
  report.metric("sim.signature_s", log.self_total("sim.signature"), "s");
  report.metric("netlist.compile_s", log.self_total("netlist.compile"), "s");
  report.metric("fault.grade_s", log.self_total("fault.grade"), "s");
  report.metric("fault.grade_cpu_util",
                traced.grade_cpu / (traced.grade_wall * kWorkers), "ratio");
  report.metric("trace.wall_s", traced.wall, "s");
  report.metric("trace.attributed_share", layer_total / traced.wall, "ratio");
  report.metric("trace.overhead_share", median(spanned) / median(on) - 1,
                "ratio");
  report.metric("obs.overhead_share", median(on) / median(off) - 1, "ratio");
  report.check(layer_total / traced.wall >= 0.9,
               "layer self times cover less than 90% of the traced wall");
  report.attempted = 1;
  report.failed = report.correct() ? 0 : 1;
  log.write_json(args.out_dir + "/spans-bist_rand20k-" +
                 std::to_string(args.seed) + ".json");
}

}  // namespace

void run_bist_workload(const Args& args, Report& report) {
  report.note("fault_sim_workers", std::to_string(kWorkers));
  report.note("patterns", std::to_string(kPatterns));
  report.note("circuit", "random 20000 gates, 64 PI / 48 PO, fan-in <= 4");
  if (args.trace) {
    traced_run(args, report);
    return;
  }

  std::unique_ptr<Circuit> c;
  std::vector<double> setups, walls;
  std::vector<Session> sessions;
  const double start = now_s();
  // A set-up precedes every session, so set-up is timed across the whole
  // window, not in one burst.
  while (walls.size() < 2 || now_s() + median(walls) <= start + args.seconds) {
    const double t = now_s();
    c = set_up(nullptr);
    setups.push_back(now_s() - t);
    sessions.push_back(bist_session(*c, args.seed, nullptr, ""));
    walls.push_back(sessions.back().wall);
  }
  const double rss = peak_rss_mb();

  // Output checks, outside every timed region.
  const Session& first = sessions.front();
  bool repeatable = true;
  for (const Session& s : sessions) {
    repeatable &= s.signature == first.signature &&
                  s.result.first_detected_by == first.result.first_detected_by;
  }
  report.check(repeatable, "BIST sessions differ between repetitions");
  const Session ref = reference_session(*c, args.seed);
  report.check(ref.signature == first.signature,
               "signature differs from the 64-bit ParallelSim reference");
  report.check(ref.result.first_detected_by == first.result.first_detected_by,
               "first_detected_by differs from the 64-bit single-worker "
               "reference");

  report.attempted = sessions.size();
  report.failed = report.correct() ? 0 : sessions.size();
  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", rss, "MiB");
  report.metric("fault_coverage_pct", 100.0 * first.result.coverage(), "%");
  report.metric("fail_share", report.correct() ? 0.0 : 1.0, "ratio");
  report.metric("runs", static_cast<double>(walls.size()), "count");
}

}  // namespace perfbench
