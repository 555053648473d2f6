// atpg_rand1k: run_atpg on a random 1000-gate combinational circuit
// (40 PI / 24 PO, fan-in <= 4) at backtrack limit 100, static prune on,
// four fault-simulation workers.
//
// Chosen because PODEM dominates it and fault simulation hardly shows: a
// change to the search moves it, a change to the fault kernel should not.
// At 2000 gates one run takes ~26 s, too long to repeat within a run.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "atpg/compact.h"
#include "atpg/engine.h"
#include "atpg/podem.h"
#include "atpg/random_tpg.h"
#include "fault/fault.h"
#include "fault/threaded_fault_sim.h"
#include "harness.h"
#include "obs/obs.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"
#include "sta/sta.h"

namespace perfbench {
namespace {

constexpr int kFaultSimWorkers = 4;
constexpr int kBacktrackLimit = 100;
constexpr int kSetupsPerRun = 25;
constexpr int kOverheadRounds = 3;

// The circuit is fixed; the workload seed drives ATPG's random streams.
// Across generator seeds one run takes anywhere from 3.5 s to 8.9 s, a
// spread no bound could hold, so the seed does not pick the circuit.
dft::RandomCircuitSpec circuit_spec() {
  dft::RandomCircuitSpec spec;
  spec.num_inputs = 40;
  spec.num_outputs = 24;
  spec.num_gates = 1000;
  spec.max_fanin = 4;
  spec.seed = 1;
  return spec;
}

dft::AtpgOptions atpg_options(std::uint64_t seed) {
  dft::AtpgOptions o;
  o.backtrack_limit = kBacktrackLimit;
  o.static_prune = true;
  o.threads = kFaultSimWorkers;
  o.seed = seed;
  return o;
}

struct Circuit {
  dft::Netlist nl;
  std::vector<dft::Fault> faults;
};

// Circuit generation, .bench parse, fault collapse and the PODEM engine's
// construction (which computes SCOAP).
std::unique_ptr<Circuit> set_up(SpanLog* log) {
  Scoped root(log, "setup", -1, "setup");
  auto c = std::make_unique<Circuit>();
  c->nl = random_circuit_from_bench(circuit_spec(), log, root.id(),
                                    "setup");
  {
    Scoped s(log, "fault.collapse", root.id(), "setup");
    c->faults = dft::collapse_faults(c->nl).representatives;
  }
  Scoped s(log, "measure.scoap", root.id(), "setup");
  const dft::Podem warm(c->nl, kBacktrackLimit);
  return c;
}

bool same_run(const dft::AtpgRun& a, const dft::AtpgRun& b) {
  return a.tests == b.tests && a.redundant == b.redundant &&
         a.aborted == b.aborted && a.remaining == b.remaining &&
         a.status == b.status && a.num_faults == b.num_faults &&
         a.detected == b.detected &&
         a.random_phase_detected == b.random_phase_detected &&
         a.deterministic_detected == b.deterministic_detected &&
         a.total_backtracks == b.total_backtracks &&
         a.total_decisions == b.total_decisions &&
         a.total_implications == b.total_implications &&
         a.statically_pruned == b.statically_pruned;
}

struct ReplayStats {
  std::size_t crossdrop_calls = 0;
  std::size_t crossdrop_faults = 0;  // faults simulated by cross-drops
  std::size_t crossdrop_hits = 0;    // of those, detected
  std::size_t cubes_in = 0;
  double wall = 0;
};

// run_atpg replayed through its public layer calls with the same options
// and seeds, one span per call: sta prune, random TPG, PODEM per fault, the
// one-pattern cross-drop sims at the 64-bit lane, compaction, final sim.
// Its outcome must equal run_atpg's; the caller checks that.
dft::AtpgRun replay(const Circuit& c, const dft::AtpgOptions& o, SpanLog* log,
                    const std::string& run_id, ReplayStats& st) {
  Scoped root(log, "atpg.run", -1, run_id);
  const int r = root.id();
  const dft::Netlist& nl = c.nl;
  const std::vector<dft::Fault>& faults = c.faults;
  const std::size_t n = faults.size();
  std::mt19937_64 rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  dft::AtpgRun run;
  run.num_faults = static_cast<int>(n);
  run.backtrack_limit = o.backtrack_limit;

  std::vector<char> closed(n, 0);
  std::vector<std::size_t> redundant_idx, aborted_idx;
  {
    std::unique_ptr<dft::sta::StaticAnalyzer> analyzer;
    {
      Scoped s(log, "sta.build", r, run_id);
      analyzer = std::make_unique<dft::sta::StaticAnalyzer>(nl);
    }
    Scoped s(log, "sta.query", r, run_id);
    for (std::size_t fi = 0; fi < n; ++fi) {
      if (analyzer->untestable(faults[fi])) {
        redundant_idx.push_back(fi);
        closed[fi] = 1;
        ++run.statically_pruned;
      }
    }
  }

  dft::RandomTpgResult rres;
  {
    Scoped s(log, "atpg.random_tpg", r, run_id);
    dft::RandomTpgOptions ropt;
    ropt.max_patterns = o.random_patterns;
    ropt.stall_blocks = o.random_stall_blocks;
    ropt.adaptive = o.adaptive_random;
    ropt.seed = o.seed;
    ropt.threads = o.threads;
    ropt.engine = o.engine;
    rres = dft::random_tpg(nl, faults, ropt);
  }
  std::vector<char> detected = rres.detected;
  run.random_phase_detected = rres.num_detected;

  std::unique_ptr<dft::Podem> podem;
  {
    Scoped s(log, "measure.scoap", r, run_id);
    podem = std::make_unique<dft::Podem>(nl, o.backtrack_limit);
  }
  std::unique_ptr<dft::FaultSimEngine> fsim;
  {
    Scoped s(log, "netlist.compile", r, run_id);
    fsim = dft::make_fault_sim_engine(nl, o.engine,
                                      dft::resolve_thread_count(o.threads),
                                      dft::simd::Lane::Off);
  }
  std::vector<dft::SourceVector> cubes;
  for (std::size_t fi = 0; fi < n; ++fi) {
    if (detected[fi] || closed[fi]) continue;
    dft::AtpgOutcome out;
    {
      Scoped s(log, "atpg.podem", r, run_id);
      out = podem->generate(faults[fi]);
    }
    run.total_backtracks += out.backtracks;
    run.total_decisions += out.decisions;
    run.total_implications += out.implications;
    if (out.status == dft::AtpgStatus::Redundant) {
      redundant_idx.push_back(fi);
      closed[fi] = 1;
      continue;
    }
    if (out.status == dft::AtpgStatus::Aborted) {
      aborted_idx.push_back(fi);
      closed[fi] = 1;
      continue;
    }
    detected[fi] = 1;
    ++run.deterministic_detected;
    cubes.push_back(out.pattern);
    dft::SourceVector filled = out.pattern;
    dft::random_fill(filled, rng);
    std::vector<dft::Fault> rest;
    std::vector<std::size_t> rest_idx;
    for (std::size_t fj = fi + 1; fj < n; ++fj) {
      if (!detected[fj] && !closed[fj]) {
        rest.push_back(faults[fj]);
        rest_idx.push_back(fj);
      }
    }
    if (rest.empty()) continue;
    dft::FaultSimResult sim;
    {
      Scoped s(log, "fault.crossdrop", r, run_id);
      sim = fsim->run({filled}, rest, true, nullptr);
    }
    ++st.crossdrop_calls;
    st.crossdrop_faults += rest.size();
    for (std::size_t k = 0; k < rest.size(); ++k) {
      if (sim.first_detected_by[k] >= 0) {
        detected[rest_idx[k]] = 1;
        ++run.deterministic_detected;
        ++st.crossdrop_hits;
      }
    }
  }
  std::sort(redundant_idx.begin(), redundant_idx.end());
  std::sort(aborted_idx.begin(), aborted_idx.end());
  for (std::size_t i : redundant_idx) run.redundant.push_back(faults[i]);
  for (std::size_t i : aborted_idx) run.aborted.push_back(faults[i]);

  {
    Scoped s(log, "atpg.compact", r, run_id);
    st.cubes_in = cubes.size();
    cubes = dft::merge_compatible(std::move(cubes));
    run.tests = rres.kept_patterns;
    for (auto& cube : cubes) {
      dft::random_fill(cube, rng);
      run.tests.push_back(std::move(cube));
    }
    if (!run.tests.empty()) {
      run.tests = dft::drop_redundant_patterns(nl, faults, run.tests);
    }
  }
  {
    Scoped s(log, "fault.final_sim", r, run_id);
    run.detected = fsim->run(run.tests, faults).num_detected;
  }
  run.status = run.aborted.empty() ? dft::guard::RunStatus::Completed
                                   : dft::guard::RunStatus::Degraded;
  root.finish();
  st.wall = log->duration(r);
  return run;
}

double phase_s(const std::map<std::string, dft::obs::Registry::TimerStats>& t,
               const std::string& name) {
  const auto it = t.find("phase." + name);
  return it == t.end() ? 0.0 : 1e-6 * static_cast<double>(it->second.total_us);
}

void traced_run(const Args& args, Report& report) {
  SpanLog setup_log;
  const std::unique_ptr<Circuit> c = set_up(&setup_log);
  report.metric("netlist.parse_s", setup_log.self_total("netlist.parse"), "s");
  report.metric("netlist.parse_calls",
                static_cast<double>(setup_log.count("netlist.parse")), "count");
  report.metric("fault.collapse_s", setup_log.self_total("fault.collapse"),
                "s");

  // As shipped, untraced: the registry's counters and phase timers.
  const dft::AtpgOptions opt = atpg_options(args.seed);
  // The process's first run runs cold and would skew the comparisons
  // below; it is not measured.
  dft::run_atpg(c->nl, c->faults, opt);
  dft::obs::Registry& reg = dft::obs::Registry::global();
  reg.reset();
  double t = now_s();
  const dft::AtpgRun shipped = dft::run_atpg(c->nl, c->faults, opt);
  const double untraced_wall = now_s() - t;
  const auto timers = reg.timers();
  const double calls = static_cast<double>(counter("podem.calls"));
  const double implications = static_cast<double>(counter("podem.implications"));
  const double found = static_cast<double>(counter("podem.tests_found"));
  const double redundant = static_cast<double>(counter("podem.redundant"));
  const double tried = static_cast<double>(counter("random_tpg.patterns_tried"));
  const double kept = static_cast<double>(counter("random_tpg.patterns_kept"));
  const double pruned = static_cast<double>(counter("sta.faults_pruned"));
  for (const char* name :
       {"podem.calls", "podem.decisions", "podem.backtracks",
        "podem.implications", "podem.tests_found", "podem.redundant",
        "podem.aborted", "random_tpg.patterns_tried",
        "random_tpg.patterns_kept", "sta.faults_pruned",
        "sta.implications_learned"}) {
    report.metric(name, static_cast<double>(counter(name)), "count");
  }

  SpanLog log;
  ReplayStats st;
  const dft::AtpgRun replayed = replay(*c, opt, &log, "replay", st);
  report.check(same_run(replayed, shipped),
               "traced ATPG replay differs from run_atpg");

  // Phase totals against the registry's own phase timers, as shares of
  // each run's wall time (the two runs are separate, so absolute times
  // differ by run-to-run noise).
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double podem_s = log.self_total("atpg.podem");
  const double crossdrop_s = log.self_total("fault.crossdrop");
  const std::vector<std::pair<double, double>> phases = {
      {share(log.self_total("sta.build") + log.self_total("sta.query"),
             st.wall),
       share(phase_s(timers, "atpg.sta_prune"), untraced_wall)},
      {share(log.self_total("atpg.random_tpg"), st.wall),
       share(phase_s(timers, "atpg.random"), untraced_wall)},
      {share(podem_s + crossdrop_s, st.wall),
       share(phase_s(timers, "atpg.deterministic"), untraced_wall)},
      {share(log.self_total("atpg.compact"), st.wall),
       share(phase_s(timers, "atpg.compact"), untraced_wall)},
      {share(log.self_total("fault.final_sim"), st.wall),
       share(phase_s(timers, "atpg.final_sim"), untraced_wall)},
  };
  for (const auto& [replay_share, registry_share] : phases) {
    report.check(std::abs(replay_share - registry_share) <= 0.1,
                 "replay phase share disagrees with the phase.atpg.* timers");
  }

  // Overheads from medians of interleaved runs: one pair alone is within
  // run-to-run noise. Spans against none; the same replay with obs off.
  std::vector<double> plain{untraced_wall}, spanned{st.wall}, off;
  for (int i = 0; i < kOverheadRounds; ++i) {
    SpanLog scratch;
    ReplayStats rs;
    if (i > 0) {
      t = now_s();
      dft::run_atpg(c->nl, c->faults, opt);
      plain.push_back(now_s() - t);
      replay(*c, opt, &scratch, "", rs);
      spanned.push_back(rs.wall);
    }
    dft::obs::set_enabled(false);
    SpanLog off_log;
    replay(*c, opt, &off_log, "", rs);
    off.push_back(rs.wall);
    dft::obs::set_enabled(true);
  }

  const double layer_total =
      log.self_total("sta.build") + log.self_total("sta.query") +
      log.self_total("atpg.random_tpg") + log.self_total("measure.scoap") +
      log.self_total("netlist.compile") + podem_s + crossdrop_s +
      log.self_total("atpg.compact") + log.self_total("fault.final_sim");
  report.metric("sta.build_s", log.self_total("sta.build"), "s");
  report.metric("sta.query_s", log.self_total("sta.query"), "s");
  report.metric("sta.prune_share", share(pruned, c->faults.size()), "ratio");
  report.metric("atpg.random_tpg_s", log.self_total("atpg.random_tpg"), "s");
  report.metric("random_tpg.keep_share", share(kept, tried), "ratio");
  report.metric("measure.scoap_s", log.self_total("measure.scoap"), "s");
  report.metric("netlist.compile_s", log.self_total("netlist.compile"), "s");
  report.metric("atpg.podem_s", podem_s, "s");
  report.metric("podem.implications_per_s", share(implications, podem_s),
                "1/s");
  report.metric("podem.resolved_share", share(found + redundant, calls),
                "ratio");
  report.metric("fault.crossdrop_s", crossdrop_s, "s");
  report.metric("fault.crossdrop_calls",
                static_cast<double>(st.crossdrop_calls), "count");
  report.metric("fault.crossdrop_yield",
                share(static_cast<double>(st.crossdrop_hits),
                      static_cast<double>(st.crossdrop_faults)),
                "ratio");
  report.metric("atpg.compact_s", log.self_total("atpg.compact"), "s");
  report.metric("compact.cubes_in", static_cast<double>(st.cubes_in), "count");
  report.metric("compact.tests_out", static_cast<double>(shipped.tests.size()),
                "count");
  report.metric("fault.final_sim_s", log.self_total("fault.final_sim"), "s");
  report.metric("trace.wall_s", st.wall, "s");
  report.metric("trace.attributed_share", share(layer_total, st.wall),
                "ratio");
  report.metric("trace.overhead_share", median(spanned) / median(plain) - 1,
                "ratio");
  report.metric("obs.overhead_share", median(spanned) / median(off) - 1,
                "ratio");
  report.check(share(layer_total, st.wall) >= 0.9,
               "layer self times cover less than 90% of the traced wall");
  report.attempted = 1;
  report.failed = report.correct() ? 0 : 1;
  log.write_json(args.out_dir + "/spans-atpg_rand1k-" +
                 std::to_string(args.seed) + ".json");
}

}  // namespace

void run_atpg_workload(const Args& args, Report& report) {
  report.note("fault_sim_workers", std::to_string(kFaultSimWorkers));
  report.note("backtrack_limit", std::to_string(kBacktrackLimit));
  report.note("circuit", "random 1000 gates, 40 PI / 24 PO, fan-in <= 4");
  if (args.trace) {
    traced_run(args, report);
    return;
  }

  const dft::AtpgOptions opt = atpg_options(args.seed);
  dft::obs::Registry::global().reset();
  std::unique_ptr<Circuit> c;
  std::vector<double> setups, walls;
  std::vector<dft::AtpgRun> runs;
  const double start = now_s();
  // At least two runs, so that repeatability is checked; more while the
  // next one still fits in the measured window. A batch of set-ups precedes
  // every run, so set-up is timed across the whole window, not in one burst.
  while (walls.size() < 2 || now_s() + median(walls) <= start + args.seconds) {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const double t = now_s();
      c = set_up(nullptr);
      setups.push_back(now_s() - t);
    }
    const double t = now_s();
    runs.push_back(dft::run_atpg(c->nl, c->faults, opt));
    walls.push_back(now_s() - t);
  }
  const double rss = peak_rss_mb();
  const double podem_calls =
      static_cast<double>(counter("podem.calls")) / walls.size();

  // Output checks, outside every timed region.
  const dft::AtpgRun& run = runs.front();
  bool repeatable = true;
  for (const dft::AtpgRun& other : runs) repeatable &= same_run(run, other);
  report.check(repeatable, "AtpgRun differs between repetitions");
  report.check(run.status == dft::guard::RunStatus::Completed ||
                   run.status == dft::guard::RunStatus::Degraded,
               "ATPG run did not finish");
  // The serial engine re-grades every fault not proven redundant; proven
  // redundant faults (most of the undetected ones, each simulated against
  // every test) go to the fast engine instead, where they must stay
  // undetected. Grading them serially would take ~25 s.
  std::vector<dft::Fault> open_faults;
  for (const dft::Fault& f : c->faults) {
    if (!std::binary_search(run.redundant.begin(), run.redundant.end(), f)) {
      open_faults.push_back(f);
    }
  }
  dft::SerialFaultSimulator serial(c->nl);
  report.check(serial.run(run.tests, open_faults).num_detected == run.detected,
               "serial re-grade of the final tests disagrees with "
               "AtpgRun::detected");
  report.check(dft::make_fault_sim_engine(c->nl, 1)
                       ->run(run.tests, run.redundant)
                       .num_detected == 0,
               "a fault proven redundant is detected by the final tests");

  report.attempted = runs.size();
  report.failed = report.correct() ? 0 : runs.size();
  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", rss, "MiB");
  report.metric("fault_coverage_pct", 100.0 * run.fault_coverage(), "%");
  report.metric("test_count", static_cast<double>(run.tests.size()),
                "vectors");
  report.metric("fail_share",
                podem_calls > 0 ? run.aborted.size() / podem_calls : 0.0,
                "ratio");
  report.metric("runs", static_cast<double>(walls.size()), "count");
}

}  // namespace perfbench
