#include "atpg/engine.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "atpg/compact.h"
#include "atpg/d_algorithm.h"
#include "atpg/random_tpg.h"
#include "fault/threaded_fault_sim.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"
#include "sta/sta.h"

namespace dft {

namespace {

// Every knob is checked up front so a bad configuration fails with one
// clear message instead of surfacing as a hung loop or a truncated run.
void validate_atpg_options(const AtpgOptions& o) {
  std::string bad;
  auto reject = [&bad](const std::string& what) {
    bad += bad.empty() ? what : ", " + what;
  };
  if (o.random_patterns < 0) {
    reject("random_patterns=" + std::to_string(o.random_patterns) +
           " (must be >= 0)");
  }
  if (o.random_stall_blocks < 0) {
    reject("random_stall_blocks=" + std::to_string(o.random_stall_blocks) +
           " (must be >= 0)");
  }
  if (o.backtrack_limit < 0) {
    reject("backtrack_limit=" + std::to_string(o.backtrack_limit) +
           " (must be >= 0)");
  }
  if (o.threads < 0) {
    reject("threads=" + std::to_string(o.threads) +
           " (must be >= 0; 0 = hardware concurrency)");
  }
  if (o.retry_rounds < 0) {
    reject("retry_rounds=" + std::to_string(o.retry_rounds) +
           " (must be >= 0)");
  }
  if (o.retry_backtrack_multiplier < 1) {
    reject("retry_backtrack_multiplier=" +
           std::to_string(o.retry_backtrack_multiplier) + " (must be >= 1)");
  }
  if (!bad.empty()) {
    throw std::invalid_argument("invalid AtpgOptions: " + bad);
  }
}

// Shared engine core behind run_atpg and resume_atpg. A fresh run passes
// empty carry-over state and runs the random phase; a resume passes the
// rebuilt detected census, the partial's tests as seeds, and the carried
// redundant/aborted classifications (by index into `faults`).
AtpgRun run_atpg_impl(const Netlist& nl, const std::vector<Fault>& faults,
                      const AtpgOptions& options, bool run_random_phase,
                      std::vector<char> detected,
                      std::vector<SourceVector> seed_tests,
                      std::vector<std::size_t> redundant_idx,
                      std::vector<std::size_t> aborted_pool) {
  obs::TraceSpan atpg_span("atpg", "atpg");
  const auto t0 = std::chrono::steady_clock::now();
  AtpgRun run;
  run.num_faults = static_cast<int>(faults.size());
  run.backtrack_limit = options.backtrack_limit;
  std::mt19937_64 rng(options.seed ^ 0x9e3779b97f4a7c15ull);

  const bool guarded = options.budget.limited();
  const guard::Budget* bptr = guarded ? &options.budget : nullptr;
  guard::RunStatus istatus = guard::RunStatus::Completed;

  detected.resize(faults.size(), 0);
  std::vector<SourceVector> random_tests = std::move(seed_tests);
  if (!run_random_phase) {
    // Resume: the seed tests play the random phase's role in the stats.
    run.random_phase_detected = static_cast<int>(
        std::count(detected.begin(), detected.end(), static_cast<char>(1)));
  }

  // closed[i]: fault i is classified (redundant or aborted) and must not be
  // re-attempted or cross-dropped against.
  std::vector<char> closed(faults.size(), 0);
  for (std::size_t i : redundant_idx) closed[i] = 1;
  for (std::size_t i : aborted_pool) closed[i] = 1;

  // Phase 0: static pruning (dft::sta). Faults whose untestability follows
  // from structure alone are classified redundant without search -- the
  // "analyze, don't enumerate" leverage the survey argues for. Soundness
  // makes the ordering free: a statically untestable fault is undetectable
  // by any pattern and would come back Redundant from PODEM, so every
  // downstream phase sees the same world it would have discovered itself.
  // On budget expiry the partial prune is kept (any subset is still sound)
  // and the later phases notice the expired budget at their own polls.
  if (options.static_prune) {
    obs::Phase prune_phase("atpg.sta_prune");
    try {
      sta::StaOptions sopt;
      sopt.budget = options.budget;
      const sta::StaticAnalyzer analyzer(nl, sopt);
      int since_poll = 0;
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (detected[fi] || closed[fi]) continue;
        if (guarded && ++since_poll >= 256) {
          since_poll = 0;
          if (options.budget.poll() != guard::RunStatus::Completed) break;
        }
        if (obs::ProgressSink::global().active()) {
          obs::Progress prog;
          prog.phase = "atpg.sta_prune";
          prog.items_done = fi + 1;
          prog.items_total = faults.size();
          prog.budget_remaining_ms = options.budget.remaining_ms();
          obs::ProgressSink::global().maybe_emit(prog);
        }
        if (analyzer.untestable(faults[fi])) {
          redundant_idx.push_back(fi);
          closed[fi] = 1;
          ++run.statically_pruned;
        }
      }
    } catch (const std::runtime_error&) {
      // Combinational cycle: no static analysis; the fault simulator will
      // report the cycle exactly as an un-pruned run would.
    }
    if (obs::enabled()) {
      obs::Registry::global()
          .counter("sta.faults_pruned")
          .add(static_cast<std::uint64_t>(run.statically_pruned));
    }
  }

  // Phase 1: (weighted) random patterns with fault dropping.
  if (run_random_phase && options.random_patterns > 0) {
    obs::Phase phase("atpg.random");
    RandomTpgOptions ropt;
    ropt.max_patterns = options.random_patterns;
    ropt.stall_blocks = options.random_stall_blocks;
    ropt.adaptive = options.adaptive_random;
    ropt.seed = options.seed;
    ropt.threads = options.threads;
    ropt.engine = options.engine;
    ropt.budget = options.budget;
    const RandomTpgResult rres = random_tpg(nl, faults, ropt);
    detected = rres.detected;
    run.random_phase_detected = rres.num_detected;
    random_tests = rres.kept_patterns;
    if (rres.status != guard::RunStatus::Completed) istatus = rres.status;
  }

  // Phase 2: deterministic PODEM on the remainder, with cross-dropping --
  // each new cube is fault-simulated (random-filled) against the remaining
  // undetected faults.
  Podem podem(nl, options.backtrack_limit);
  if (guarded) podem.set_budget(&options.budget);
  // Cross-drop sims are one pattern at a time, so a wide lane would burn
  // 4-8x the work per evaluation for one useful bit; pin the classic 64-bit
  // word (detections are lane-invariant, so results are identical).
  const auto fsim =
      make_fault_sim_engine(nl, options.engine,
                            resolve_thread_count(options.threads),
                            simd::Lane::Off);
  std::vector<SourceVector> cubes;
  {
    obs::Phase deterministic_phase("atpg.deterministic");
    for (std::size_t fi = 0;
         fi < faults.size() && options.deterministic_phase; ++fi) {
      if (detected[fi] || closed[fi]) continue;
      if (istatus != guard::RunStatus::Completed) break;
      const AtpgOutcome out = podem.generate(faults[fi]);
      run.total_backtracks += out.backtracks;
      run.total_decisions += out.decisions;
      run.total_implications += out.implications;
      if (out.run_status != guard::RunStatus::Completed) {
        // The budget cut the search short: the fault was NOT proven hard,
        // so it stays open (-> remaining) rather than becoming aborted.
        istatus = out.run_status;
        break;
      }
      switch (out.status) {
        case AtpgStatus::Redundant:
          redundant_idx.push_back(fi);
          closed[fi] = 1;
          continue;
        case AtpgStatus::Aborted:
          aborted_pool.push_back(fi);
          closed[fi] = 1;
          continue;
        case AtpgStatus::TestFound:
          break;
      }
      detected[fi] = 1;
      ++run.deterministic_detected;
      cubes.push_back(out.pattern);

      SourceVector filled = out.pattern;
      random_fill(filled, rng);
      std::vector<Fault> rest;
      std::vector<std::size_t> rest_idx;
      for (std::size_t fj = fi + 1; fj < faults.size(); ++fj) {
        if (!detected[fj] && !closed[fj]) {
          rest.push_back(faults[fj]);
          rest_idx.push_back(fj);
        }
      }
      if (!rest.empty()) {
        const FaultSimResult s = fsim->run({filled}, rest, true, bptr);
        for (std::size_t k = 0; k < rest.size(); ++k) {
          if (s.first_detected_by[k] >= 0) {
            detected[rest_idx[k]] = 1;
            ++run.deterministic_detected;
          }
        }
        if (s.status != guard::RunStatus::Completed) istatus = s.status;
      }
      // Between-fault poll: PODEM only polls every 32 implications, so a
      // run of easy faults would otherwise never notice the deadline.
      if (guarded && istatus == guard::RunStatus::Completed) {
        const guard::RunStatus st = options.budget.poll();
        if (st != guard::RunStatus::Completed) istatus = st;
      }
      if (obs::ProgressSink::global().active()) {
        // Run-level progress: cumulative coverage across the random and
        // deterministic phases (cross-drops included), so the curve a
        // consumer plots from this phase continues the random one.
        obs::Progress prog;
        prog.phase = "atpg.deterministic";
        prog.coverage_pct =
            faults.empty()
                ? 100.0
                : 100.0 *
                      static_cast<double>(run.random_phase_detected +
                                          run.deterministic_detected) /
                      static_cast<double>(faults.size());
        prog.patterns = random_tests.size() + cubes.size();
        prog.decisions =
            static_cast<std::uint64_t>(run.total_decisions +
                                       run.total_backtracks);
        prog.items_done = fi + 1;
        prog.items_total = faults.size();
        prog.budget_remaining_ms = options.budget.remaining_ms();
        obs::ProgressSink::global().maybe_emit(prog);
      }
    }
  }

  // Phase 2b: retry ladder for aborted faults -- escalating backtrack
  // limits, then the D-algorithm as an independent prover. An abort is a
  // budget decision, not a property of the fault; before classifying, spend
  // a bigger budget and a structurally different search on it.
  if (options.retry_aborted && options.deterministic_phase &&
      !aborted_pool.empty() && istatus == guard::RunStatus::Completed) {
    obs::Phase retry_phase("atpg.retry");
    std::vector<std::size_t> pool = std::move(aborted_pool);
    aborted_pool.clear();
    for (std::size_t i : pool) closed[i] = 0;  // open for cross-dropping

    auto retry_pass = [&](auto&& generate, std::vector<std::size_t> in) {
      std::vector<std::size_t> still;
      for (std::size_t fi : in) {
        if (detected[fi]) {
          ++run.retry_rescued;  // cross-dropped by an earlier rescue
          continue;
        }
        if (istatus != guard::RunStatus::Completed) {
          still.push_back(fi);
          continue;
        }
        ++run.retry_attempts;
        const AtpgOutcome out = generate(faults[fi]);
        run.total_backtracks += out.backtracks;
        run.total_decisions += out.decisions;
        run.total_implications += out.implications;
        if (out.run_status != guard::RunStatus::Completed) {
          istatus = out.run_status;
          still.push_back(fi);
          continue;
        }
        if (out.status == AtpgStatus::Redundant) {
          redundant_idx.push_back(fi);
          closed[fi] = 1;
          ++run.retry_rescued;
          continue;
        }
        if (out.status == AtpgStatus::Aborted) {
          still.push_back(fi);
          continue;
        }
        detected[fi] = 1;
        ++run.retry_rescued;
        cubes.push_back(out.pattern);
        SourceVector filled = out.pattern;
        random_fill(filled, rng);
        std::vector<Fault> rest;
        std::vector<std::size_t> rest_idx;
        for (std::size_t fj = 0; fj < faults.size(); ++fj) {
          if (!detected[fj] && !closed[fj] && fj != fi) {
            rest.push_back(faults[fj]);
            rest_idx.push_back(fj);
          }
        }
        if (!rest.empty()) {
          const FaultSimResult s = fsim->run({filled}, rest, true, bptr);
          for (std::size_t k = 0; k < rest.size(); ++k) {
            if (s.first_detected_by[k] >= 0) detected[rest_idx[k]] = 1;
          }
          if (s.status != guard::RunStatus::Completed) istatus = s.status;
        }
        if (guarded && istatus == guard::RunStatus::Completed) {
          const guard::RunStatus st = options.budget.poll();
          if (st != guard::RunStatus::Completed) istatus = st;
        }
        if (obs::ProgressSink::global().active()) {
          // Retried faults are few and each retry is an expensive search,
          // so an exact recount of the census per event is in the noise.
          obs::Progress prog;
          prog.phase = "atpg.retry";
          prog.coverage_pct =
              faults.empty()
                  ? 100.0
                  : 100.0 *
                        static_cast<double>(std::count(
                            detected.begin(), detected.end(),
                            static_cast<char>(1))) /
                        static_cast<double>(faults.size());
          prog.decisions =
              static_cast<std::uint64_t>(run.total_decisions +
                                         run.total_backtracks);
          prog.items_done = static_cast<std::uint64_t>(run.retry_attempts);
          prog.budget_remaining_ms = options.budget.remaining_ms();
          obs::ProgressSink::global().maybe_emit(prog);
        }
      }
      return still;
    };

    long long limit = options.backtrack_limit;
    for (int round = 0; round < options.retry_rounds && !pool.empty() &&
                        istatus == guard::RunStatus::Completed;
         ++round) {
      limit = std::min<long long>(
          limit * options.retry_backtrack_multiplier, 1000000000LL);
      Podem retry_podem(nl, static_cast<int>(limit));
      if (guarded) retry_podem.set_budget(&options.budget);
      pool = retry_pass(
          [&](const Fault& f) { return retry_podem.generate(f); },
          std::move(pool));
    }
    if (!pool.empty() && options.retry_dalg_fallback &&
        istatus == guard::RunStatus::Completed) {
      try {
        DAlgorithm dalg(nl, static_cast<int>(limit));
        if (guarded) dalg.set_budget(&options.budget);
        pool = retry_pass([&](const Fault& f) { return dalg.generate(f); },
                          std::move(pool));
      } catch (const std::invalid_argument&) {
        // The circuit uses primitives the D-algorithm rejects (MUX,
        // tristate, bus); PODEM escalation was the whole ladder.
      }
    }
    // A fault detected after its own pass (by a later rescue's cross-drop)
    // can linger in the pool; it is rescued, not aborted.
    for (std::size_t i : pool) {
      if (detected[i]) {
        ++run.retry_rescued;
      } else {
        aborted_pool.push_back(i);
        closed[i] = 1;
      }
    }
  }

  // Classification order is by fault index either way; the retry ladder
  // appends out of order, so sort (a no-op for unretried runs).
  std::sort(redundant_idx.begin(), redundant_idx.end());
  std::sort(aborted_pool.begin(), aborted_pool.end());
  for (std::size_t i : redundant_idx) run.redundant.push_back(faults[i]);
  for (std::size_t i : aborted_pool) run.aborted.push_back(faults[i]);

  if (guard::interrupted(istatus)) {
    // Partial finalize: no compaction pass (it re-simulates) and no
    // verification sim. The tests generated so far are returned as-is and
    // the detected census is the dropping bookkeeping, which final
    // verification would only confirm.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detected[i] && !closed[i]) run.remaining.push_back(faults[i]);
    }
    run.tests = std::move(random_tests);
    for (auto& c : cubes) {
      random_fill(c, rng);
      run.tests.push_back(std::move(c));
    }
    run.detected = static_cast<int>(
        std::count(detected.begin(), detected.end(), static_cast<char>(1)));
    run.status = istatus;
  } else {
    // Phase 3: compaction and final verification fault simulation.
    {
      obs::Phase compact_phase("atpg.compact");
      if (options.compact) cubes = merge_compatible(std::move(cubes));
      run.tests = std::move(random_tests);
      for (auto& c : cubes) {
        random_fill(c, rng);
        run.tests.push_back(std::move(c));
      }
      if (options.compact && !run.tests.empty()) {
        run.tests = drop_redundant_patterns(nl, faults, run.tests);
      }
    }
    obs::Phase final_sim_phase("atpg.final_sim");
    // The verification sim is the one run whose first_detected_by is exact
    // for the final test set, so it both streams progress under its own
    // phase label and yields the report's coverage-vs-pattern curve. The
    // cross-drop sub-runs above kept the default (empty) phase and stayed
    // silent.
    fsim->set_progress_phase("atpg.final_sim");
    const FaultSimResult final_sim = fsim->run(run.tests, faults);
    fsim->set_progress_phase({});
    run.detected = final_sim.num_detected;
    if (obs::enabled()) {
      record_coverage_curve("atpg.coverage_curve",
                            final_sim.first_detected_by, run.tests.size());
    }
    run.status = run.aborted.empty() ? guard::RunStatus::Completed
                                     : guard::RunStatus::Degraded;
  }

  run.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("atpg.retry.attempts")
        .add(static_cast<std::uint64_t>(run.retry_attempts));
    reg.counter("atpg.retry.rescued")
        .add(static_cast<std::uint64_t>(run.retry_rescued));
    reg.value("atpg.elapsed_ms").set(static_cast<double>(run.elapsed_ms));
    reg.gauge("atpg.status_code").set(static_cast<std::int64_t>(run.status));
    // ATPG owns the run's final coverage: on an interrupted run the last
    // engine to record it was a cross-drop sub-simulation over a handful
    // of faults, so the report would otherwise carry that sub-run's ratio.
    reg.value("fault_sim.coverage.final_pct")
        .set(100.0 * run.fault_coverage());
  }
  return run;
}

}  // namespace

AtpgRun run_atpg(const Netlist& nl, const std::vector<Fault>& faults,
                 const AtpgOptions& options) {
  validate_atpg_options(options);
  return run_atpg_impl(nl, faults, options, /*run_random_phase=*/true,
                       std::vector<char>(faults.size(), 0), {}, {}, {});
}

AtpgRun resume_atpg(const Netlist& nl, const std::vector<Fault>& faults,
                    const AtpgRun& partial, const AtpgOptions& options) {
  validate_atpg_options(options);

  // Rebuild the detected census: re-simulate the partial's tests against
  // the full fault list (cheap next to the search the partial already
  // paid for, and self-verifying -- no trust in the partial's flags).
  std::vector<char> detected(faults.size(), 0);
  if (!partial.tests.empty()) {
    const auto fsim = make_fault_sim_engine(
        nl, options.engine, resolve_thread_count(options.threads));
    const FaultSimResult s = fsim->run(partial.tests, faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      detected[i] = s.first_detected_by[i] >= 0 ? 1 : 0;
    }
  }

  // Carry classifications over, matched by fault identity -- the caller's
  // fault list need not be in the original order.
  std::unordered_map<Fault, std::size_t, FaultHash> index;
  index.reserve(faults.size() * 2);
  for (std::size_t i = 0; i < faults.size(); ++i) index.emplace(faults[i], i);
  std::vector<std::size_t> redundant_idx;
  std::vector<std::size_t> aborted_pool;
  for (const Fault& f : partial.redundant) {
    const auto it = index.find(f);
    if (it != index.end()) redundant_idx.push_back(it->second);
  }
  for (const Fault& f : partial.aborted) {
    const auto it = index.find(f);
    if (it != index.end() && !detected[it->second]) {
      aborted_pool.push_back(it->second);
    }
  }

  return run_atpg_impl(nl, faults, options, /*run_random_phase=*/false,
                       std::move(detected), partial.tests,
                       std::move(redundant_idx), std::move(aborted_pool));
}

}  // namespace dft
