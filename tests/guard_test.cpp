// Tests for dft::guard and its integration across the engines: budget
// primitives (deadlines, ceilings, cancellation), partial-result contracts
// in fault simulation / random TPG / ATPG / BIST, the run_atpg retry ladder,
// resume_atpg, and the up-front options validation. The load-bearing
// property throughout: an unlimited budget leaves every engine bit-identical
// to an unguarded run.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "atpg/random_tpg.h"
#include "bist/bilbo.h"
#include "bist/syndrome.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "guard/guard.h"

namespace dft {
namespace {

// Engine/thread configurations the factory accepts (serial and deductive
// are single-machine; only event can be partitioned across workers).
struct EngineConfig {
  const char* engine;
  int threads;
};
constexpr EngineConfig kEngineConfigs[] = {
    {"serial", 1}, {"deductive", 1}, {"event", 1}, {"event", 4},
};

std::shared_ptr<guard::CancelToken> cancelled_token() {
  auto token = std::make_shared<guard::CancelToken>();
  token->cancel();
  return token;
}

Netlist make_mid_circuit() {
  RandomCircuitSpec spec;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.num_gates = 2000;
  spec.max_fanin = 4;
  spec.seed = 7;
  return make_random_combinational(spec);
}

// --- Budget / CancelToken primitives ---------------------------------------

TEST(GuardBudget, DefaultIsUnlimitedAndFree) {
  const guard::Budget b;
  EXPECT_FALSE(b.limited());
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
  EXPECT_EQ(b.elapsed_ms(), 0);
  b.charge_decisions(1000);  // no-ops, not ceilings
  b.charge_patterns(1000);
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
}

TEST(GuardBudget, ZeroDeadlineExpiresImmediately) {
  const guard::Budget b = guard::Budget::deadline_ms(0);
  EXPECT_TRUE(b.limited());
  EXPECT_EQ(b.poll(), guard::RunStatus::DeadlineExpired);
  EXPECT_EQ(b.poll(), guard::RunStatus::DeadlineExpired);  // sticky
  EXPECT_GE(b.elapsed_ms(), 0);
}

TEST(GuardBudget, DecisionCeiling) {
  guard::Budget b;
  b.set_decision_limit(10);
  b.charge_decisions(9);
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
  b.charge_decisions(1);
  EXPECT_EQ(b.poll(), guard::RunStatus::DeadlineExpired);
}

TEST(GuardBudget, PatternCeiling) {
  guard::Budget b;
  b.set_pattern_limit(64);
  b.charge_patterns(63);
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
  b.charge_patterns(1);
  EXPECT_EQ(b.poll(), guard::RunStatus::DeadlineExpired);
}

TEST(GuardBudget, CopiesShareState) {
  guard::Budget a;
  a.set_decision_limit(5);
  const guard::Budget b = a;  // shares the tally
  b.charge_decisions(5);
  EXPECT_EQ(a.poll(), guard::RunStatus::DeadlineExpired);
}

TEST(GuardBudget, CancellationWinsOverDeadline) {
  guard::Budget b = guard::Budget::deadline_ms(0);
  b.set_cancel_token(cancelled_token());
  EXPECT_EQ(b.poll(), guard::RunStatus::Cancelled);
}

TEST(GuardBudget, TokenIsStickyUntilReset) {
  auto token = std::make_shared<guard::CancelToken>();
  guard::Budget b;
  b.set_cancel_token(token);
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
  token->cancel();
  EXPECT_EQ(b.poll(), guard::RunStatus::Cancelled);
  EXPECT_EQ(b.poll(), guard::RunStatus::Cancelled);
  token->reset();
  EXPECT_EQ(b.poll(), guard::RunStatus::Completed);
}

TEST(GuardStatus, WorstOrderingAndHelpers) {
  using guard::RunStatus;
  EXPECT_EQ(guard::worst(RunStatus::Completed, RunStatus::Degraded),
            RunStatus::Degraded);
  EXPECT_EQ(guard::worst(RunStatus::DeadlineExpired, RunStatus::Degraded),
            RunStatus::DeadlineExpired);
  EXPECT_EQ(guard::worst(RunStatus::Cancelled, RunStatus::DeadlineExpired),
            RunStatus::Cancelled);
  EXPECT_FALSE(guard::interrupted(RunStatus::Completed));
  EXPECT_FALSE(guard::interrupted(RunStatus::Degraded));
  EXPECT_TRUE(guard::interrupted(RunStatus::DeadlineExpired));
  EXPECT_TRUE(guard::interrupted(RunStatus::Cancelled));
  EXPECT_EQ(guard::to_string(RunStatus::Completed), "completed");
  EXPECT_EQ(guard::to_string(RunStatus::Degraded), "degraded");
  EXPECT_EQ(guard::to_string(RunStatus::DeadlineExpired), "deadline-expired");
  EXPECT_EQ(guard::to_string(RunStatus::Cancelled), "cancelled");
}

// --- Fault-simulation engines ----------------------------------------------

TEST(GuardFaultSim, CancelledBudgetYieldsPartialOnEveryEngine) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions ropt;
  ropt.max_patterns = 256;
  const auto patterns = random_tpg(nl, faults, ropt).kept_patterns;
  ASSERT_FALSE(patterns.empty());

  for (const auto& [engine, threads] : kEngineConfigs) {
    guard::Budget b;
    b.set_cancel_token(cancelled_token());
    const auto fsim = make_fault_sim_engine(nl, engine, threads);
    const FaultSimResult r = fsim->run(patterns, faults, true, &b);
    EXPECT_EQ(r.status, guard::RunStatus::Cancelled)
        << engine << " threads=" << threads;
    // The partial contract: full-size vector, unvisited entries -1.
    EXPECT_EQ(r.first_detected_by.size(), faults.size());
  }
}

TEST(GuardFaultSim, UnlimitedBudgetIsBitIdenticalToNone) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions ropt;
  ropt.max_patterns = 256;
  const auto patterns = random_tpg(nl, faults, ropt).kept_patterns;

  const guard::Budget unlimited;
  for (const auto& [engine, threads] : kEngineConfigs) {
    const auto fsim = make_fault_sim_engine(nl, engine, threads);
    const FaultSimResult bare = fsim->run(patterns, faults);
    const FaultSimResult guarded =
        fsim->run(patterns, faults, true, &unlimited);
    EXPECT_EQ(bare.first_detected_by, guarded.first_detected_by)
        << engine << " threads=" << threads;
    EXPECT_EQ(bare.num_detected, guarded.num_detected);
    EXPECT_EQ(guarded.status, guard::RunStatus::Completed);
  }
}

// --- Random TPG -------------------------------------------------------------

TEST(GuardRandomTpg, PatternCeilingStopsAfterOneBlock) {
  const Netlist nl = make_mid_circuit();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = 4096;
  // Decisions advance per classic 64-pattern sub-block even when a wide
  // SIMD lane grades several sub-blocks per pass, so the ceiling expires
  // after exactly one sub-block at every lane width.
  opt.budget.set_pattern_limit(64);
  const RandomTpgResult res = random_tpg(nl, faults, opt);
  EXPECT_EQ(res.status, guard::RunStatus::DeadlineExpired);
  EXPECT_EQ(res.patterns_tried, 64);
  // Polls come after the block is merged: the partial is not empty-handed.
  EXPECT_GT(res.num_detected, 0);
  EXPECT_FALSE(res.kept_patterns.empty());
}

TEST(GuardRandomTpg, OptionsValidatedUpFront) {
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = -1;
  EXPECT_THROW(random_tpg(nl, faults, opt), std::invalid_argument);

  RandomTpgOptions wopt;
  wopt.weights.assign(source_count(nl), 1.5);  // probabilities outside [0,1]
  EXPECT_THROW(random_tpg(nl, faults, wopt), std::invalid_argument);
}

// --- run_atpg / resume_atpg -------------------------------------------------

TEST(GuardAtpg, OptionsValidatedWithOneAggregateError) {
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.random_patterns = -5;
  opt.backtrack_limit = -1;
  try {
    run_atpg(nl, faults, opt);
    FAIL() << "invalid options must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // One message names every bad knob, not just the first.
    EXPECT_NE(msg.find("random_patterns"), std::string::npos) << msg;
    EXPECT_NE(msg.find("backtrack_limit"), std::string::npos) << msg;
  }
}

TEST(GuardAtpg, PatternCeilingYieldsValidPartial) {
  const Netlist nl = make_mid_circuit();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.budget.set_pattern_limit(64);  // expires inside the random phase
  const AtpgRun run = run_atpg(nl, faults, opt);
  EXPECT_EQ(run.status, guard::RunStatus::DeadlineExpired);
  EXPECT_FALSE(run.tests.empty());
  EXPECT_GT(run.detected, 0);
  EXPECT_FALSE(run.remaining.empty());
  // Every fault is accounted for exactly once.
  EXPECT_EQ(static_cast<std::size_t>(run.detected) + run.redundant.size() +
                run.aborted.size() + run.remaining.size(),
            faults.size());
  EXPECT_GE(run.elapsed_ms, 0);
}

TEST(GuardAtpg, ZeroDeadlineYieldsValidPartial) {
  const Netlist nl = make_mid_circuit();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.budget.set_deadline_ms(0);
  const AtpgRun run = run_atpg(nl, faults, opt);
  EXPECT_EQ(run.status, guard::RunStatus::DeadlineExpired);
  // Progress guarantee: polls happen after work, never before the first
  // unit, so even an already-expired deadline returns real tests.
  EXPECT_FALSE(run.tests.empty());
  EXPECT_GT(run.detected, 0);
  EXPECT_EQ(static_cast<std::size_t>(run.detected) + run.redundant.size() +
                run.aborted.size() + run.remaining.size(),
            faults.size());
}

TEST(GuardAtpg, CancellationYieldsValidPartial) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.budget.set_cancel_token(cancelled_token());
  const AtpgRun run = run_atpg(nl, faults, opt);
  EXPECT_EQ(run.status, guard::RunStatus::Cancelled);
  EXPECT_FALSE(run.tests.empty());
  EXPECT_EQ(static_cast<std::size_t>(run.detected) + run.redundant.size() +
                run.aborted.size() + run.remaining.size(),
            faults.size());
}

TEST(GuardAtpg, ResumeFinishesAnInterruptedRun) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 100000;

  AtpgOptions cut = opt;
  cut.budget.set_deadline_ms(0);
  const AtpgRun partial = run_atpg(nl, faults, cut);
  ASSERT_TRUE(guard::interrupted(partial.status));
  ASSERT_FALSE(partial.remaining.empty());

  const AtpgRun resumed = resume_atpg(nl, faults, partial, opt);
  const AtpgRun straight = run_atpg(nl, faults, opt);
  EXPECT_EQ(resumed.status, straight.status);
  EXPECT_TRUE(resumed.remaining.empty());
  EXPECT_EQ(resumed.detected, straight.detected);
  EXPECT_EQ(resumed.redundant.size(), straight.redundant.size());
  EXPECT_EQ(resumed.aborted.size(), straight.aborted.size());
}

TEST(GuardAtpg, ResumeIsItselfResumable) {
  const Netlist nl = make_mid_circuit();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions cut;
  cut.budget.set_pattern_limit(64);
  const AtpgRun first = run_atpg(nl, faults, cut);
  ASSERT_TRUE(guard::interrupted(first.status));

  // Resuming under a fresh zero deadline interrupts again; the second
  // partial must still account for every fault.
  AtpgOptions cut2;
  cut2.budget.set_deadline_ms(0);
  const AtpgRun second = resume_atpg(nl, faults, first, cut2);
  EXPECT_TRUE(guard::interrupted(second.status));
  EXPECT_EQ(static_cast<std::size_t>(second.detected) +
                second.redundant.size() + second.aborted.size() +
                second.remaining.size(),
            faults.size());
  EXPECT_GE(second.detected, first.detected);
}

TEST(GuardAtpg, UnbudgetedRunsIdenticalAcrossEnginesAndThreads) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions base;
  base.backtrack_limit = 100000;
  const AtpgRun ref = run_atpg(nl, faults, base);
  EXPECT_EQ(ref.status, guard::RunStatus::Completed);
  EXPECT_TRUE(ref.remaining.empty());

  for (const auto& [engine, threads] : kEngineConfigs) {
    AtpgOptions opt = base;
    opt.engine = engine;
    opt.threads = threads;
    const AtpgRun run = run_atpg(nl, faults, opt);
    EXPECT_EQ(run.tests, ref.tests) << engine << " threads=" << threads;
    EXPECT_EQ(run.detected, ref.detected);
    EXPECT_EQ(run.redundant, ref.redundant);
    EXPECT_EQ(run.aborted, ref.aborted);
    EXPECT_EQ(run.status, ref.status);
  }
}

TEST(GuardAtpg, RetryLadderRescuesAbortedFaults) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;

  // A backtrack limit of 1 starves PODEM into aborting the hard faults.
  AtpgOptions starve;
  starve.backtrack_limit = 1;
  const AtpgRun base = run_atpg(nl, faults, starve);
  ASSERT_FALSE(base.aborted.empty());
  EXPECT_EQ(base.status, guard::RunStatus::Degraded);
  EXPECT_EQ(base.retry_attempts, 0);

  AtpgOptions retry = starve;
  retry.retry_aborted = true;
  const AtpgRun run = run_atpg(nl, faults, retry);
  EXPECT_GE(run.retry_attempts, 1);
  EXPECT_GE(run.retry_rescued, 1);
  EXPECT_LT(run.aborted.size(), base.aborted.size());
  EXPECT_GE(run.detected + static_cast<int>(run.redundant.size()),
            base.detected + static_cast<int>(base.redundant.size()));
  if (run.aborted.empty()) {
    EXPECT_EQ(run.status, guard::RunStatus::Completed);
  } else {
    EXPECT_EQ(run.status, guard::RunStatus::Degraded);
  }
}

TEST(GuardAtpg, RetryOffLeavesClassificationUntouched) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 1;
  const AtpgRun a = run_atpg(nl, faults, opt);
  const AtpgRun b = run_atpg(nl, faults, opt);
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.redundant, b.redundant);
}

// --- BIST -------------------------------------------------------------------

TEST(GuardBist, SignatureGradingStopsOnCancelledBudget) {
  RandomCircuitSpec spec;
  spec.num_inputs = 9;
  spec.num_outputs = 5;
  spec.num_gates = 80;
  spec.max_fanin = 4;
  spec.seed = 11;
  const Netlist cln1 = make_ripple_adder(4);
  const Netlist cln2 = [&] {
    RandomCircuitSpec s = spec;
    s.num_inputs = 5;
    s.num_outputs = 9;
    return make_random_combinational(s);
  }();
  BilboBist bist(cln1, cln2);
  const auto faults = collapse_faults(cln1).representatives;
  ASSERT_GT(faults.size(), 1u);

  guard::Budget b;
  b.set_cancel_token(cancelled_token());
  const auto partial = bist.signature_coverage_run(1, faults, 64, 1, &b);
  EXPECT_EQ(partial.status, guard::RunStatus::Cancelled);
  EXPECT_GE(partial.graded, 1);  // poll comes after the first session
  EXPECT_LT(partial.graded, partial.total);

  // Unbudgeted grading matches the plain double-valued API exactly.
  const auto full = bist.signature_coverage_run(1, faults, 64, 1);
  EXPECT_EQ(full.status, guard::RunStatus::Completed);
  EXPECT_EQ(full.graded, full.total);
  EXPECT_DOUBLE_EQ(full.coverage(), bist.signature_coverage(1, faults, 64));
}

TEST(GuardBist, SyndromeAnalysisStopsOnCancelledBudget) {
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  ASSERT_GT(faults.size(), 1u);

  guard::Budget b;
  b.set_cancel_token(cancelled_token());
  const SyndromeAnalysis partial =
      analyze_syndrome_testability(nl, faults, 1, &b);
  EXPECT_EQ(partial.status, guard::RunStatus::Cancelled);
  EXPECT_GE(partial.graded, 1);
  EXPECT_LT(partial.graded, partial.total_faults);

  const SyndromeAnalysis full = analyze_syndrome_testability(nl, faults);
  EXPECT_EQ(full.status, guard::RunStatus::Completed);
  EXPECT_EQ(full.graded, full.total_faults);

  // Thread count changes nothing on a completed analysis.
  const SyndromeAnalysis full4 = analyze_syndrome_testability(nl, faults, 4);
  EXPECT_EQ(full4.syndrome_testable, full.syndrome_testable);
  EXPECT_EQ(full4.untestable, full.untestable);
}

}  // namespace
}  // namespace dft
