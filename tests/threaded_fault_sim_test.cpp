// Threaded fault simulation: determinism against the other engines at
// several thread counts, the ThreadPool primitive itself, and regression
// tests for the engine-contract fixes (hoisted pattern validation, the
// serial drop_detected flag, weighted-random weight checking).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "atpg/random_tpg.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/deductive.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "guard/guard.h"
#include "obs/obs.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"

namespace dft {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_GE(resolve_thread_count(-3), 1);
}

TEST(ThreadPool, RunsEveryJobAndIsReusable) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100 * (round + 1));
  }
}

TEST(ThreadPool, WaitWithNoJobsReturns) {
  ThreadPool pool(2);
  pool.wait();
  pool.wait();
}

TEST(ThreadPool, FirstTaskExceptionRethrownFromWait) {
  ThreadPool pool(4);
  pool.submit([] { throw std::runtime_error("task failed"); });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // The error is drained: the pool stays usable and wait() is clean again.
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsSurfaces) {
  ThreadPool pool(2);
  // Every task throws; the workers must swallow the rest, finish the queue,
  // and deliver exactly one error at the next wait().
  for (int i = 0; i < 16; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  pool.wait();  // nothing pending, nothing left to rethrow
}

TEST(ThreadPool, ParallelForChunksCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for_chunks(pool, hits.size(),
                      [&hits](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForChunksHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  parallel_for_chunks(pool, 3,
                      [&total](std::size_t, std::size_t begin, std::size_t end) {
                        total.fetch_add(static_cast<int>(end - begin));
                      });
  EXPECT_EQ(total.load(), 3);
  parallel_for_chunks(pool, 0,
                      [](std::size_t, std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForChunksPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for_chunks(pool, 64,
                          [](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 0) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool survives a throwing body.
  std::atomic<int> count{0};
  parallel_for_chunks(pool, 10,
                      [&count](std::size_t, std::size_t begin, std::size_t end) {
                        count.fetch_add(static_cast<int>(end - begin));
                      });
  EXPECT_EQ(count.load(), 10);
}

// --- Differential: all four engines, several thread counts ----------------

class AllEnginesAgree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllEnginesAgree, IdenticalDetectionOnRandomCombinational) {
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_gates = 90;
  spec.max_fanin = 4;
  spec.seed = GetParam();
  const Netlist nl = make_random_combinational(spec);
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(GetParam() * 17 + 3);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 96; ++i) pats.push_back(random_source_vector(nl, rng));

  SerialFaultSimulator serial(nl);
  ParallelFaultSimulator parallel(nl);
  DeductiveFaultSimulator deductive(nl);
  const auto ref = parallel.run(pats, faults);
  const auto rs = serial.run(pats, faults);
  const auto rd = deductive.run(pats, faults);
  ASSERT_EQ(ref.num_detected, rs.num_detected);
  ASSERT_EQ(ref.num_detected, rd.num_detected);
  ASSERT_EQ(ref.first_detected_by, rs.first_detected_by);
  ASSERT_EQ(ref.first_detected_by, rd.first_detected_by);

  for (int threads : {1, 2, 8}) {
    ThreadedFaultSimulator tsim(nl, threads);
    ASSERT_EQ(tsim.threads(), threads);
    const auto rt = tsim.run(pats, faults);
    ASSERT_EQ(ref.num_detected, rt.num_detected) << threads << " threads";
    ASSERT_EQ(ref.first_detected_by, rt.first_detected_by)
        << threads << " threads";
    // drop_detected is a hint, never a semantic change.
    const auto rt_nodrop = tsim.run(pats, faults, /*drop_detected=*/false);
    ASSERT_EQ(ref.first_detected_by, rt_nodrop.first_detected_by)
        << threads << " threads, no dropping";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllEnginesAgree,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(ThreadedFaultSim, MatchesPpsfpOnSequentialCaptureModel) {
  RandomSeqSpec spec;
  spec.seed = 5;
  const Netlist nl = make_random_sequential(spec);
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(99);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 70; ++i) pats.push_back(random_source_vector(nl, rng));
  ParallelFaultSimulator psim(nl);
  const auto ref = psim.run(pats, faults);
  for (int threads : {2, 5}) {
    ThreadedFaultSimulator tsim(nl, threads);
    const auto rt = tsim.run(pats, faults);
    EXPECT_EQ(ref.num_detected, rt.num_detected);
    EXPECT_EQ(ref.first_detected_by, rt.first_detected_by);
  }
}

TEST(ThreadedFaultSim, MoreWorkersThanFaults) {
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(7);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 20; ++i) pats.push_back(random_source_vector(nl, rng));
  ParallelFaultSimulator psim(nl);
  const auto ref = psim.run(pats, faults);
  ThreadedFaultSimulator tsim(nl, static_cast<int>(faults.size()) + 13);
  const auto rt = tsim.run(pats, faults);
  EXPECT_EQ(ref.first_detected_by, rt.first_detected_by);
  // Empty fault list and empty pattern list are fine too.
  EXPECT_EQ(tsim.run(pats, {}).num_detected, 0);
  EXPECT_EQ(tsim.run({}, faults).num_detected, 0);
}

TEST(ThreadedFaultSim, ForwardsObservationPoints) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(3);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 128; ++i) pats.push_back(random_source_vector(nl, rng));
  // Observe only the first two primary outputs.
  const std::vector<GateId> observed(nl.outputs().begin(),
                                     nl.outputs().begin() + 2);
  ParallelFaultSimulator psim(nl);
  psim.set_observation_points(observed);
  const auto ref = psim.run(pats, faults);

  ThreadedFaultSimulator tsim(nl, 3);
  tsim.set_observation_points(observed);
  EXPECT_EQ(ref.first_detected_by, tsim.run(pats, faults).first_detected_by);

  // And back to the full-scan view.
  psim.reset_observation_points();
  tsim.reset_observation_points();
  const auto full = psim.run(pats, faults);
  EXPECT_GE(full.num_detected, ref.num_detected);
  EXPECT_EQ(full.first_detected_by, tsim.run(pats, faults).first_detected_by);
}

TEST(ThreadedFaultSim, FactorySelectsEngineByThreadCount) {
  const Netlist nl = make_c17();
  const auto one = make_fault_sim_engine(nl, 1);
  const auto four = make_fault_sim_engine(nl, 4);
  EXPECT_EQ(one->name(), "event");
  EXPECT_EQ(four->name(), "threaded-event");
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(1);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 30; ++i) pats.push_back(random_source_vector(nl, rng));
  const auto r1 = one->run(pats, faults);
  const auto r4 = four->run(pats, faults);
  EXPECT_EQ(r1.first_detected_by, r4.first_detected_by);
}

// --- Every thread count agrees at every word width ------------------------

// The many-block input of the width tests: two-plus 512-bit words with a
// ragged tail, so every width sees a full block, a block boundary, and a
// partial block.
struct ManyBlockInput {
  Netlist nl;
  std::vector<Fault> faults;
  std::vector<SourceVector> pats;
};

ManyBlockInput many_block_input() {
  RandomCircuitSpec spec;
  spec.num_inputs = 11;
  spec.num_outputs = 7;
  spec.num_gates = 120;
  spec.max_fanin = 4;
  spec.seed = 4242;
  ManyBlockInput in{make_random_combinational(spec), {}, {}};
  in.faults = enumerate_faults(in.nl);
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 512 + 512 + 77; ++i) {
    in.pats.push_back(random_source_vector(in.nl, rng));
  }
  return in;
}

// Detections are keyed by global PATTERN index at every width, so each
// thread count gives the deductive oracle's answer on every backend.
// Exercised by type (the factory picks one lane per host).
template <typename EB>
void check_thread_counts_for_backend(const char* tag) {
  SCOPED_TRACE(tag);
  const ManyBlockInput in = many_block_input();
  DeductiveFaultSimulator ref_engine(in.nl);
  const auto ref = ref_engine.run(in.pats, in.faults);
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    BasicThreadedFaultSimulator<EB> tsim(in.nl, threads);
    const auto r = tsim.run(in.pats, in.faults);
    ASSERT_EQ(ref.num_detected, r.num_detected);
    ASSERT_EQ(ref.first_detected_by, r.first_detected_by);
    ASSERT_EQ(ref.first_detected_by,
              tsim.run(in.pats, in.faults, /*drop_detected=*/false)
                  .first_detected_by);
  }
}

TEST(ThreadedFaultSim, ThreadCountsAgreeAtEveryWidth) {
  check_thread_counts_for_backend<ScalarEval<std::uint64_t>>("scalar_x1");
  check_thread_counts_for_backend<ScalarEval<PatternWord<4>>>("scalar_x4");
  check_thread_counts_for_backend<ScalarEval<PatternWord<8>>>("scalar_x8");
#if DFT_SIMD_X86
  if (simd::host_supports(simd::Lane::Avx2)) {
    check_thread_counts_for_backend<Avx2Eval>("avx2_x4");
  }
  if (simd::host_supports(simd::Lane::Avx512)) {
    check_thread_counts_for_backend<Avx512Eval>("avx512_x8");
  }
#endif
}

// --- Work counts do not depend on the thread count ------------------------

// The obs work counters one run adds.
struct WorkCounts {
  std::uint64_t gates = 0;
  std::uint64_t events = 0;
  std::uint64_t faults = 0;
  std::uint64_t blocks = 0;

  static WorkCounts read() {
    obs::Registry& reg = obs::Registry::global();
    return {reg.counter("fault_sim.event.gates_evaluated").value(),
            reg.counter("fault_sim.event.events_scheduled").value(),
            reg.counter("fault_sim.ppsfp.faults_simulated").value(),
            reg.counter("fault_sim.ppsfp.pattern_blocks").value()};
  }
  WorkCounts operator-(const WorkCounts& o) const {
    return {gates - o.gates, events - o.events, faults - o.faults,
            blocks - o.blocks};
  }
};

template <typename Engine>
WorkCounts counted_run(Engine& eng, const ManyBlockInput& in, bool drop) {
  const WorkCounts before = WorkCounts::read();
  (void)eng.run(in.pats, in.faults, drop);
  return WorkCounts::read() - before;
}

// Blocks run in order and every fault is simulated by one worker per
// block, so the threaded engine does the single machine's work: the same
// faults simulated (cross-block drops included), gates evaluated, events
// scheduled, and pattern blocks counted once each.
template <typename EB>
void check_work_counts_for_backend(const char* tag) {
  SCOPED_TRACE(tag);
  obs::set_enabled(true);
  const ManyBlockInput in = many_block_input();
  BasicParallelFaultSimulator<EB> single(in.nl);
  for (bool drop : {true, false}) {
    SCOPED_TRACE(drop ? "dropping" : "no dropping");
    const WorkCounts ref = counted_run(single, in, drop);
    ASSERT_GT(ref.gates, 0u);
    const std::size_t bits = BasicParallelFaultSimulator<EB>::Traits::kBits;
    ASSERT_EQ(ref.blocks, (in.pats.size() + bits - 1) / bits);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      BasicThreadedFaultSimulator<EB> tsim(in.nl, threads);
      const WorkCounts got = counted_run(tsim, in, drop);
      EXPECT_EQ(got.gates, ref.gates);
      EXPECT_EQ(got.events, ref.events);
      EXPECT_EQ(got.faults, ref.faults);
      EXPECT_EQ(got.blocks, ref.blocks);
    }
  }
}

TEST(ThreadedFaultSim, WorkCountsDoNotDependOnThreadCount) {
  check_work_counts_for_backend<ScalarEval<std::uint64_t>>("scalar_x1");
  check_work_counts_for_backend<ScalarEval<PatternWord<4>>>("scalar_x4");
  check_work_counts_for_backend<ScalarEval<PatternWord<8>>>("scalar_x8");
#if DFT_SIMD_X86
  if (simd::host_supports(simd::Lane::Avx2)) {
    check_work_counts_for_backend<Avx2Eval>("avx2_x4");
  }
  if (simd::host_supports(simd::Lane::Avx512)) {
    check_work_counts_for_backend<Avx512Eval>("avx512_x8");
  }
#endif
}

// --- Budget expiry yields a clean-prefix partial at every thread count ----

TEST(ThreadedFaultSim, BudgetPartialIsACleanPrefixAtEveryThreadCount) {
  // Well above 2^18 patterns x faults, so no thread count runs it on the
  // cheap: 512 patterns (eight 64-pattern blocks) against ~2k faults.
  RandomCircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.max_fanin = 4;
  spec.seed = 12;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(12);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 512; ++i) pats.push_back(random_source_vector(nl, rng));
  ASSERT_GT(static_cast<std::uint64_t>(pats.size()) * faults.size(),
            std::uint64_t{1} << 18);

  ParallelFaultSimulator single(nl);
  const auto full = single.run(pats, faults);
  SerialFaultSimulator oracle(nl);
  // A limit of 100 is crossed by the second block's charge, so the run
  // stops after the 128-pattern prefix.
  constexpr int kPrefix = 128;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    guard::Budget budget;
    budget.set_pattern_limit(100);
    ThreadedFaultSimulator tsim(nl, threads);
    const auto r = tsim.run(pats, faults, /*drop_detected=*/true, &budget);
    EXPECT_EQ(r.status, guard::RunStatus::DeadlineExpired);
    EXPECT_TRUE(guard::interrupted(r.status));
    ASSERT_EQ(r.first_detected_by.size(), faults.size());
    int recorded = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const int want = full.first_detected_by[i] < kPrefix
                           ? full.first_detected_by[i]
                           : -1;
      const int p = r.first_detected_by[i];
      ASSERT_EQ(p, want) << "fault " << i;
      if (p < 0) continue;
      ++recorded;
      EXPECT_TRUE(oracle.detects(pats[static_cast<std::size_t>(p)],
                                 faults[i]))
          << "fault " << i << " claims pattern " << p;
    }
    EXPECT_GT(recorded, 0);
    EXPECT_EQ(recorded, r.num_detected);
    // The engine stays usable: an unbudgeted rerun completes exactly.
    const auto again = tsim.run(pats, faults);
    EXPECT_EQ(again.status, guard::RunStatus::Completed);
    EXPECT_EQ(again.first_detected_by, full.first_detected_by);
  }
}

// --- Regression: validation is hoisted before any state mutation ----------

TEST(PatternValidation, MalformedPatternMidBlockLeavesEngineIntact) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(42);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 10; ++i) pats.push_back(random_source_vector(nl, rng));
  ParallelFaultSimulator psim(nl);
  const auto good = psim.run(pats, faults);

  // Width mismatch in the middle of the first 64-pattern block: the run
  // must throw before any set_word, leaving the engine reusable with
  // unchanged results.
  auto bad = pats;
  bad[5].pop_back();
  EXPECT_THROW(psim.run(bad, faults), std::invalid_argument);
  auto after = psim.run(pats, faults);
  EXPECT_EQ(good.first_detected_by, after.first_detected_by);

  // Same for an X entry mid-block.
  bad = pats;
  bad[7][2] = Logic::X;
  EXPECT_THROW(psim.run(bad, faults), std::invalid_argument);
  after = psim.run(pats, faults);
  EXPECT_EQ(good.first_detected_by, after.first_detected_by);

  // The threaded engine validates before dispatching to any worker.
  ThreadedFaultSimulator tsim(nl, 2);
  EXPECT_THROW(tsim.run(bad, faults), std::invalid_argument);
  EXPECT_EQ(good.first_detected_by, tsim.run(pats, faults).first_detected_by);

  // Serial accepts X (it simulates 4-valued) but still checks widths.
  SerialFaultSimulator ssim(nl);
  bad = pats;
  bad[3].push_back(Logic::Zero);
  EXPECT_THROW(ssim.run(bad, faults), std::invalid_argument);
}

// --- Regression: SerialFaultSimulator honors drop_detected ----------------

TEST(SerialFaultSim, DropDetectedIsAPureHint) {
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 5;
  spec.num_gates = 60;
  spec.seed = 77;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(77);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 30; ++i) pats.push_back(random_source_vector(nl, rng));
  SerialFaultSimulator ssim(nl);
  const auto dropped = ssim.run(pats, faults, /*drop_detected=*/true);
  const auto kept = ssim.run(pats, faults, /*drop_detected=*/false);
  EXPECT_EQ(dropped.num_detected, kept.num_detected);
  EXPECT_EQ(dropped.first_detected_by, kept.first_detected_by);
}

// --- Regression: weighted-random weights are size-checked -----------------

TEST(RandomTpg, RejectsWrongSizedWeights) {
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = 128;
  opt.weights = {0.5, 0.5};  // c17 has 5 sources
  EXPECT_THROW(random_tpg(nl, faults, opt), std::invalid_argument);

  opt.weights.assign(source_count(nl), 0.5);
  EXPECT_NO_THROW(random_tpg(nl, faults, opt));
  opt.weights.clear();
  EXPECT_NO_THROW(random_tpg(nl, faults, opt));
}

// --- End-to-end determinism: random TPG at several thread counts ----------

TEST(RandomTpg, ThreadCountDoesNotChangeTheResult) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = 512;
  opt.seed = 9;
  opt.threads = 1;
  const auto r1 = random_tpg(nl, faults, opt);
  opt.threads = 4;
  const auto r4 = random_tpg(nl, faults, opt);
  EXPECT_EQ(r1.num_detected, r4.num_detected);
  EXPECT_EQ(r1.patterns_tried, r4.patterns_tried);
  EXPECT_EQ(r1.detected, r4.detected);
  ASSERT_EQ(r1.kept_patterns.size(), r4.kept_patterns.size());
  for (std::size_t i = 0; i < r1.kept_patterns.size(); ++i) {
    EXPECT_EQ(r1.kept_patterns[i], r4.kept_patterns[i]) << "pattern " << i;
  }
}

}  // namespace
}  // namespace dft
