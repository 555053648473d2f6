// Top-level ATPG flow: random phase -> deterministic PODEM phase ->
// retry ladder for aborted faults -> compaction -> final fault simulation.
//
// This is the complete test generation system the survey assumes a
// structured (scan) design enables: combinational ATPG over primary inputs
// and scan flip-flops, with exact redundancy identification. Every phase
// cooperates with an optional guard::Budget: a deadline (or cancellation)
// mid-phase yields a valid partial AtpgRun -- the tests generated so far,
// the faults not yet processed, and an interrupted status -- which
// resume_atpg can later pick up and finish.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "guard/guard.h"
#include "netlist/netlist.h"

namespace dft {

struct AtpgOptions {
  int random_patterns = 2048;
  int random_stall_blocks = 4;
  bool adaptive_random = true;
  bool deterministic_phase = true;  // run PODEM on the random-phase remainder
  int backtrack_limit = 20000;
  bool compact = true;
  // Static-analysis pre-pass (dft::sta): classify statically-provable
  // untestable faults as redundant before any search. Sound by
  // construction -- a pruned fault is exactly one an unbounded PODEM would
  // prove Redundant -- so the final detected/redundant classification and
  // the test set are bit-identical with the pre-pass on or off; only the
  // search statistics (decisions, backtracks) shrink.
  bool static_prune = true;
  std::uint64_t seed = 1;
  // Fault-simulation workers for grading/dropping (1 = single-threaded,
  // 0 = hardware concurrency). The result is identical at any value.
  int threads = 1;
  // Fault-simulation engine ("serial", "deductive", "event"; "" =
  // the factory default, event). Every engine yields identical results;
  // this is a speed/ablation knob, echoed into the obs run report.
  std::string engine;
  // Cooperative budget shared by every phase (random grading, PODEM search,
  // retries). Default-constructed = unlimited: no polling, results
  // bit-identical to an unguarded run.
  guard::Budget budget;
  // Graceful degradation for aborted faults: retry with an escalating
  // backtrack limit (limit *= retry_backtrack_multiplier per round, up to
  // retry_rounds rounds), then hand survivors to the D-algorithm as an
  // independent prover (skipped automatically on circuits it rejects).
  // Faults still unresolved are classified aborted, exactly as before.
  bool retry_aborted = false;
  int retry_rounds = 2;
  int retry_backtrack_multiplier = 4;
  bool retry_dalg_fallback = true;
};

struct AtpgRun {
  // Final binary test set.
  std::vector<SourceVector> tests;
  std::vector<Fault> redundant;
  std::vector<Fault> aborted;
  // Faults the run never finished processing (only non-empty when a budget
  // or cancellation interrupted the run): not detected, not proven
  // redundant, not classified aborted. resume_atpg picks these up.
  std::vector<Fault> remaining;

  // Completed for a full run with no aborts; Degraded when aborted faults
  // remain after any retries; DeadlineExpired / Cancelled when a budget cut
  // the run short (tests/detected are then a valid partial).
  guard::RunStatus status = guard::RunStatus::Completed;
  long long elapsed_ms = 0;
  // Retry-ladder accounting (zero unless AtpgOptions::retry_aborted).
  int retry_attempts = 0;
  int retry_rescued = 0;  // previously-aborted faults proven or tested
  // Faults classified redundant by the dft::sta pre-pass without search
  // (zero when AtpgOptions::static_prune is off; a subset of `redundant`).
  int statically_pruned = 0;

  int num_faults = 0;
  int detected = 0;
  int random_phase_detected = 0;
  int deterministic_detected = 0;
  long long total_backtracks = 0;
  // The limit the aborted faults gave up at (echo of
  // AtpgOptions::backtrack_limit): an abort is a budget decision, not a
  // property of the fault, so the report must say what the budget was.
  int backtrack_limit = 0;
  long long total_decisions = 0;
  long long total_implications = 0;

  // detected / all faults.
  double fault_coverage() const {
    return num_faults == 0 ? 1.0
                           : static_cast<double>(detected) / num_faults;
  }
  // detected / (all - proven redundant): 100% means "complete" in the
  // test-verification sense of Sec. I.
  double test_coverage() const {
    const int testable = num_faults - static_cast<int>(redundant.size());
    return testable <= 0 ? 1.0 : static_cast<double>(detected) / testable;
  }
};

AtpgRun run_atpg(const Netlist& nl, const std::vector<Fault>& faults,
                 const AtpgOptions& options = {});

// Continues an interrupted run: `partial` is the AtpgRun an expired budget
// returned, `faults` the SAME full fault list given to run_atpg. The
// partial's tests are re-simulated to rebuild the detected set (the random
// phase is not repeated), its redundant/aborted classifications carry over,
// and the deterministic phase resumes on everything still open -- under
// options.budget, so a resume can itself be budgeted and resumed again.
AtpgRun resume_atpg(const Netlist& nl, const std::vector<Fault>& faults,
                    const AtpgRun& partial, const AtpgOptions& options = {});

}  // namespace dft
