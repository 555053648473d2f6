// Multi-worker fault simulation: determinism of the PPSFP engine against
// the other engines at several thread counts, its stem regions against an
// independent two-valued oracle on DAGs of every gate kind, its thread and
// observation-point contracts, the ThreadPool primitive itself, and regression
// tests for the engine-contract fixes (hoisted pattern validation, the
// serial drop_detected flag, weighted-random weight checking).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/random_tpg.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/deductive.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "guard/guard.h"
#include "netlist/compiled.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "serve/cache.h"
#include "sim/eval.h"
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
    ParallelFaultSimulator tsim(nl, threads);
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
    ParallelFaultSimulator tsim(nl, threads);
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
  ParallelFaultSimulator tsim(nl, static_cast<int>(faults.size()) + 13);
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

  ParallelFaultSimulator tsim(nl, 3);
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
  // One engine at every thread count: the factory passes the count through
  // and the name does not change with it.
  const Netlist nl = make_c17();
  const auto one =
      make_fault_sim_engine(nl, 1, FaultSimKernel::Event, simd::Lane::Off);
  const auto four =
      make_fault_sim_engine(nl, 4, FaultSimKernel::Event, simd::Lane::Off);
  EXPECT_EQ(one->name(), "event");
  EXPECT_EQ(four->name(), "event");
  const auto* p1 = dynamic_cast<const ParallelFaultSimulator*>(one.get());
  const auto* p4 = dynamic_cast<const ParallelFaultSimulator*>(four.get());
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p4, nullptr);
  EXPECT_EQ(p1->threads(), 1);
  EXPECT_EQ(p4->threads(), 4);
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(1);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 30; ++i) pats.push_back(random_source_vector(nl, rng));
  const auto r1 = one->run(pats, faults);
  const auto r4 = four->run(pats, faults);
  EXPECT_EQ(r1.first_detected_by, r4.first_detected_by);
}

// A rejected observation-point update leaves the engine as it was: every
// id is checked before any is written, and the workers share one set.
TEST(ThreadedFaultSim, RejectedObservationUpdateLeavesEngineUnchanged) {
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
  for (int i = 0; i < 256; ++i) pats.push_back(random_source_vector(nl, rng));
  const std::vector<GateId> bad = {nl.outputs().front(),
                                   static_cast<GateId>(nl.size() + 5)};
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ParallelFaultSimulator sim(nl, threads);
    const auto before = sim.run(pats, faults);
    EXPECT_THROW(sim.set_observation_points(bad), std::out_of_range);
    for (int rep = 0; rep < 3; ++rep) {
      const auto after = sim.run(pats, faults);
      EXPECT_EQ(after.num_detected, before.num_detected);
      EXPECT_EQ(after.first_detected_by, before.first_detected_by);
    }
  }
}

#if defined(__linux__)
// OS threads of this process, counted from /proc/self/task; -1 when the
// directory cannot be read.
int task_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++n;
  }
  return n;
}

// task_count() once it reads `want`, or the last count after 5 s. The
// kernel removes a thread's /proc/self/task entry after it has woken the
// joiner, so a count taken just after a pool joins its threads may still
// see some of them.
int task_count_reaching(int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int n = task_count();
  while (n != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = task_count();
  }
  return n;
}

// A thread that idles until destroyed. Starting one before a base count
// makes a thread sanitizer start its own background thread first, and it
// is not joined before the count, so no just-joined thread inflates it.
struct IdleThread {
  IdleThread() = default;
  IdleThread(const IdleThread&) = delete;
  IdleThread& operator=(const IdleThread&) = delete;
  ~IdleThread() {
    stop.set_value();
    thread.join();
  }

  std::promise<void> stop;
  std::thread thread{[done = stop.get_future()] { done.wait(); }};
};
#endif

// The caller is worker 0, so the pool starts one OS thread fewer than the
// requested worker count, and none at one worker.
TEST(ThreadedFaultSim, PoolStartsOneThreadFewerThanWorkers) {
#if defined(__linux__)
  const Netlist nl = make_c17();
  const IdleThread idle;
  const int base = task_count();
  if (base < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ParallelFaultSimulator sim(nl, threads);
    EXPECT_EQ(sim.threads(), threads);
    EXPECT_EQ(task_count_reaching(base + threads - 1) - base, threads - 1);
  }
  EXPECT_EQ(task_count_reaching(base), base);
#else
  GTEST_SKIP() << "counts threads through /proc/self/task (Linux only)";
#endif
}

// --- Stem regions against an independent two-valued oracle ---------------

// A random DAG over every gate kind the PPSFP engine evaluates: inputs,
// constants, storage outputs whose D pins close loops through late nets,
// basic gates, Mux, wide Xor/Xnor, gates reading one net on two pins,
// and (with `buses`) Tristate gates resolved by a Bus.
Netlist make_region_dag(std::uint64_t seed, bool buses) {
  using G = GateType;
  const G kTypes[] = {G::Buf, G::Not, G::And, G::Nand, G::Or,
                      G::Nor, G::Xor, G::Xnor, G::Mux};
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  Netlist nl("region_dag");
  std::vector<GateId> nets;
  for (std::size_t i = 0, n = 6 + pick(6); i < n; ++i) {
    nets.push_back(nl.add_input());
  }
  nets.push_back(nl.add_gate(G::Const0, {}));
  nets.push_back(nl.add_gate(G::Const1, {}));
  std::vector<GateId> ffs;
  for (std::size_t i = 0, n = pick(4); i < n; ++i) {
    ffs.push_back(nl.add_gate(G::Dff, {nets[0]}));
    nets.push_back(ffs.back());
  }
  for (std::size_t i = 0, gates = 60 + pick(60); i < gates; ++i) {
    if (buses && pick(8) == 0) {
      std::vector<GateId> tristates;
      for (std::size_t d = 0, k = 1 + pick(3); d < k; ++d) {
        tristates.push_back(nl.add_gate(
            G::Tristate, {nets[pick(nets.size())], nets[pick(nets.size())]}));
      }
      nets.push_back(nl.add_gate(G::Bus, tristates));
      continue;
    }
    const G t = kTypes[pick(std::size(kTypes))];
    const FaninArity arity = fanin_arity(t);
    std::size_t n = static_cast<std::size_t>(arity.max);
    if (arity.max < 0) {
      const bool wide = (t == G::Xor || t == G::Xnor) && pick(4) == 0;
      n = wide ? 6 + pick(10) : 1 + pick(4);
    }
    std::vector<GateId> fin;
    for (std::size_t k = 0; k < n; ++k) fin.push_back(nets[pick(nets.size())]);
    if (n >= 2 && pick(5) == 0) fin[1] = fin[0];  // one net, two pins
    nets.push_back(nl.add_gate(t, fin));
  }
  for (GateId ff : ffs) {
    nl.set_fanin(ff, kStoragePinD, nets[nets.size() - 1 - pick(20)]);
  }
  for (std::size_t i = 0, n = 3 + pick(5); i < n; ++i) {
    nl.add_output(nets[nets.size() - 1 - pick(30)]);
  }
  return nl;
}

// The full-scan observation set: primary outputs and storage D nets.
std::vector<GateId> full_scan_view(const Netlist& nl) {
  std::vector<GateId> obs(nl.outputs());
  for (GateId ff : nl.storage()) obs.push_back(nl.fanin(ff)[kStoragePinD]);
  return obs;
}

// Two-valued single-fault reference for the PPSFP model: per fault and
// 64-pattern block the whole netlist is re-evaluated in topological order
// with the fault injected (detail::eval_word_impl over gathered fanin
// words, the same pull-down bus model), and a pattern detects the fault
// when an observed gate differs from the good machine. A storage D-pin fault is detected where its D net is
// observed and differs from the stuck value. No event wheel, no regions.
std::vector<int> two_valued_first_detections(
    const Netlist& nl, const std::vector<SourceVector>& pats,
    const std::vector<Fault>& faults, const std::vector<GateId>& observed) {
  std::vector<char> obs(nl.size(), 0);
  for (GateId g : observed) obs[g] = 1;
  std::vector<GateId> sources(nl.inputs());
  sources.insert(sources.end(), nl.storage().begin(), nl.storage().end());
  std::vector<int> first(faults.size(), -1);
  std::vector<std::uint64_t> good(nl.size()), bad(nl.size()), in;
  const auto evaluate = [&](std::vector<std::uint64_t>& w, const Fault* f) {
    const std::uint64_t forced = f != nullptr && f->sa1 ? ~0ull : 0;
    if (f != nullptr && f->pin < 0) w[f->gate] = forced;  // a source site
    for (GateId g : nl.topo_order()) {
      const auto& fin = nl.fanin(g);
      in.clear();
      for (std::size_t p = 0; p < fin.size(); ++p) {
        const bool site = f != nullptr && f->gate == g &&
                          f->pin == static_cast<int>(p);
        in.push_back(site ? forced : w[fin[p]]);
      }
      w[g] = detail::eval_word_impl(nl.type(g), in.size(),
                                    [&](std::size_t i) { return in[i]; });
      if (f != nullptr && f->gate == g && f->pin < 0) w[g] = forced;
    }
  };
  for (std::size_t base = 0; base < pats.size(); base += 64) {
    const std::size_t cnt = std::min<std::size_t>(64, pats.size() - base);
    const std::uint64_t valid = cnt == 64 ? ~0ull : (1ull << cnt) - 1;
    std::fill(good.begin(), good.end(), 0);
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.type(g) == GateType::Const1) good[g] = ~0ull;
    }
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (std::size_t b = 0; b < cnt; ++b) {
        if (pats[base + b][s] == Logic::One) good[sources[s]] |= 1ull << b;
      }
    }
    evaluate(good, nullptr);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (first[fi] >= 0) continue;
      const Fault& f = faults[fi];
      std::uint64_t det = 0;
      if (is_storage(nl.type(f.gate)) && f.pin == kStoragePinD) {
        const GateId din = nl.fanin(f.gate)[kStoragePinD];
        if (obs[din]) det = good[din] ^ (f.sa1 ? ~0ull : 0);
      } else {
        bad = good;
        evaluate(bad, &f);
        for (GateId g = 0; g < nl.size(); ++g) {
          if (obs[g]) det |= bad[g] ^ good[g];
        }
      }
      det &= valid;
      if (det != 0) first[fi] = static_cast<int>(base) + std::countr_zero(det);
    }
  }
  return first;
}

std::vector<SourceVector> patterns_for(const Netlist& nl, std::size_t n,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<SourceVector> pats;
  for (std::size_t i = 0; i < n; ++i) {
    pats.push_back(random_source_vector(nl, rng));
  }
  return pats;
}

// Every lane this host runs, at 1, 2, 4 and 8 threads, with and without
// dropping, against `want`.
void expect_every_engine_gives(const Netlist& nl,
                               const std::vector<SourceVector>& pats,
                               const std::vector<Fault>& faults,
                               const std::vector<int>& want) {
  for (const simd::Lane lane : simd::available_lanes()) {
    SCOPED_TRACE("lane " + std::string(simd::lane_name(lane)));
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto eng =
          make_fault_sim_engine(nl, threads, FaultSimKernel::Event, lane);
      ASSERT_EQ(want, eng->run(pats, faults).first_detected_by);
      ASSERT_EQ(want, eng->run(pats, faults, /*drop_detected=*/false)
                          .first_detected_by);
    }
  }
}

TEST(StemRegions, MatchOraclesOnDagsOfEveryGateKind) {
  std::mt19937_64 meta(1991);
  for (int round = 0; round < 16; ++round) {
    const bool buses = round % 2 == 1;
    const Netlist nl = make_region_dag(meta(), buses);
    const auto faults = enumerate_faults(nl);
    // One to two 512-bit words with a ragged tail.
    const auto pats = patterns_for(nl, 300 + meta() % 400, meta());
    SCOPED_TRACE("round " + std::to_string(round) + " (" +
                 std::to_string(nl.size()) + " gates, " +
                 std::to_string(pats.size()) + " patterns)");
    const std::vector<int> want =
        two_valued_first_detections(nl, pats, faults, full_scan_view(nl));
    ASSERT_GT(std::count_if(want.begin(), want.end(),
                            [](int p) { return p >= 0; }),
              0);
    // A tri-state bus floats or fights in some faulty machines, where the
    // four-valued oracles read Z or X and the two-valued model reads its
    // pull-down value; without buses all three models agree.
    if (!buses) {
      SerialFaultSimulator serial(nl);
      ASSERT_EQ(want, serial.run(pats, faults).first_detected_by);
      DeductiveFaultSimulator deductive(nl);
      ASSERT_EQ(want, deductive.run(pats, faults).first_detected_by);
    }
    expect_every_engine_gives(nl, pats, faults, want);
  }
}

// Observation points inside a fanout-free region split it: the observed
// gate becomes a stem. Moving the points moves the region boundaries, a
// rejected update keeps the last accepted ones, and a reset restores the
// full-scan regions.
TEST(StemRegions, ObservationPointsMoveRegionBoundaries) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Netlist nl = make_region_dag(seed, /*buses=*/true);
    const auto faults = enumerate_faults(nl);
    const auto pats = patterns_for(nl, 200, seed);
    // Region members under the full-scan view: one combinational fanout,
    // not observed.
    std::vector<char> full(nl.size(), 0);
    for (GateId g : full_scan_view(nl)) full[g] = 1;
    std::vector<GateId> members;
    for (GateId g = 0; g < nl.size(); ++g) {
      const auto& fo = nl.fanout(g);
      if (fo.size() == 1 && is_combinational(nl.type(fo[0])) && !full[g]) {
        members.push_back(g);
      }
    }
    ASSERT_GE(members.size(), 6u);
    // Set A: a few outputs plus every third member; set B: other members
    // only, so A's stems fall back inside regions.
    std::vector<GateId> a(nl.outputs().begin(), nl.outputs().begin() + 2);
    std::vector<GateId> b;
    for (std::size_t i = 0; i < members.size(); ++i) {
      (i % 3 == 0 ? a : b).push_back(members[i]);
    }
    const auto want_full =
        two_valued_first_detections(nl, pats, faults, full_scan_view(nl));
    const auto want_a = two_valued_first_detections(nl, pats, faults, a);
    const auto want_b = two_valued_first_detections(nl, pats, faults, b);
    ASSERT_NE(want_a, want_full);
    ASSERT_NE(want_a, want_b);
    const std::vector<GateId> bad = {members.front(),
                                     static_cast<GateId>(nl.size())};
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ParallelFaultSimulator sim(nl, threads);
      EXPECT_EQ(want_full, sim.run(pats, faults).first_detected_by);
      sim.set_observation_points(a);
      EXPECT_EQ(want_a, sim.run(pats, faults).first_detected_by);
      EXPECT_THROW(sim.set_observation_points(bad), std::out_of_range);
      EXPECT_EQ(want_a, sim.run(pats, faults).first_detected_by);
      sim.set_observation_points(b);
      EXPECT_EQ(want_b, sim.run(pats, faults, /*drop_detected=*/false)
                            .first_detected_by);
      sim.reset_observation_points();
      EXPECT_EQ(want_full, sim.run(pats, faults).first_detected_by);
    }
  }
}

// A fault site outside the netlist is rejected before any state changes.
TEST(StemRegions, RejectsFaultSitesOutsideTheNetlist) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  const auto pats = patterns_for(nl, 20, 9);
  ParallelFaultSimulator sim(nl, 2);
  const auto before = sim.run(pats, faults);
  const GateId nand = nl.fanout(nl.inputs().front()).front();
  for (const Fault& bad : {Fault{static_cast<GateId>(nl.size()), -1, false},
                           Fault{nand, 2, true}}) {
    std::vector<Fault> with_bad = faults;
    with_bad.push_back(bad);
    EXPECT_THROW(sim.run(pats, with_bad), std::out_of_range);
  }
  EXPECT_EQ(before.first_detected_by, sim.run(pats, faults).first_detected_by);
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
    BasicParallelFaultSimulator<EB> tsim(in.nl, threads);
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
  std::uint64_t dropped = 0;
  std::uint64_t detections = 0;
  std::uint64_t stems = 0;
  std::uint64_t traces = 0;
  std::uint64_t regions = 0;  // stolen, summed over the workers

  static WorkCounts read() {
    obs::Registry& reg = obs::Registry::global();
    std::uint64_t regions = 0;
    for (int w = 0; w < 8; ++w) {
      regions += reg.counter("fault_sim.threaded.worker." +
                             std::to_string(w) + ".regions")
                     .value();
    }
    return {reg.counter("fault_sim.event.gates_evaluated").value(),
            reg.counter("fault_sim.event.events_scheduled").value(),
            reg.counter("fault_sim.ppsfp.faults_simulated").value(),
            reg.counter("fault_sim.ppsfp.pattern_blocks").value(),
            reg.counter("fault_sim.ppsfp.faults_dropped").value(),
            reg.counter("fault_sim.ppsfp.detections").value(),
            reg.counter("fault_sim.ppsfp.stems_propagated").value(),
            reg.counter("fault_sim.event.trace_evals").value(),
            regions};
  }
  WorkCounts operator-(const WorkCounts& o) const {
    return {gates - o.gates,     events - o.events,
            faults - o.faults,   blocks - o.blocks,
            dropped - o.dropped, detections - o.detections,
            stems - o.stems,     traces - o.traces,
            regions - o.regions};
  }
};

template <typename Engine>
WorkCounts counted_run(Engine& eng, const ManyBlockInput& in, bool drop) {
  const WorkCounts before = WorkCounts::read();
  (void)eng.run(in.pats, in.faults, drop);
  return WorkCounts::read() - before;
}

// Blocks run in order, the region chunks are fixed before the run and every
// region is simulated by one worker per block, so every thread count does
// the one-thread engine's work: the same faults simulated (cross-block
// drops included), stems propagated, gates evaluated, events scheduled,
// sensitization traces, regions stolen over all workers, and pattern
// blocks counted once each. A dropped fault is
// counted once, when it is detected, not again in each block that skips
// it.
template <typename EB>
void check_work_counts_for_backend(const char* tag) {
  SCOPED_TRACE(tag);
  obs::set_enabled(true);
  const ManyBlockInput in = many_block_input();
  BasicParallelFaultSimulator<EB> single(in.nl, 1);
  for (bool drop : {true, false}) {
    SCOPED_TRACE(drop ? "dropping" : "no dropping");
    const WorkCounts ref = counted_run(single, in, drop);
    ASSERT_GT(ref.gates, 0u);
    ASSERT_GT(ref.stems, 0u);
    ASSERT_GT(ref.traces, 0u);
    ASSERT_GT(ref.regions, 0u);
    const std::size_t bits = BasicParallelFaultSimulator<EB>::Traits::kBits;
    ASSERT_EQ(ref.blocks, (in.pats.size() + bits - 1) / bits);
    ASSERT_GT(ref.detections, 0u);
    EXPECT_EQ(ref.dropped, drop ? ref.detections : 0u);
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      BasicParallelFaultSimulator<EB> tsim(in.nl, threads);
      const WorkCounts got = counted_run(tsim, in, drop);
      EXPECT_EQ(got.gates, ref.gates);
      EXPECT_EQ(got.events, ref.events);
      EXPECT_EQ(got.faults, ref.faults);
      EXPECT_EQ(got.blocks, ref.blocks);
      EXPECT_EQ(got.dropped, ref.dropped);
      EXPECT_EQ(got.detections, ref.detections);
      EXPECT_EQ(got.stems, ref.stems);
      EXPECT_EQ(got.traces, ref.traces);
      EXPECT_EQ(got.regions, ref.regions);
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

// The good machine's full pass per block counts under sim.parallel.*: a
// run of B blocks adds B passes of every combinational gate at every thread
// count, flushed when the run returns (the engine is still alive). With
// dropping the run may stop early; it still adds one pass per block it
// counted.
template <typename EB>
void check_good_machine_passes_for_backend(const char* tag) {
  SCOPED_TRACE(tag);
  obs::set_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const ManyBlockInput in = many_block_input();
  const std::uint64_t gates = CompiledNetlist(in.nl).topo().size();
  constexpr std::size_t kBits = WordTraits<typename EB::Word>::kBits;
  const std::uint64_t blocks = (in.pats.size() + kBits - 1) / kBits;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    BasicParallelFaultSimulator<EB> eng(in.nl, threads);
    for (bool drop : {false, true}) {
      SCOPED_TRACE(drop ? "dropping" : "no dropping");
      const std::uint64_t passes0 = reg.counter("sim.parallel.passes").value();
      const std::uint64_t evals0 =
          reg.counter("sim.parallel.gate_evals").value();
      const std::uint64_t blocks0 =
          reg.counter("fault_sim.ppsfp.pattern_blocks").value();
      (void)eng.run(in.pats, in.faults, drop);
      const std::uint64_t passes =
          reg.counter("sim.parallel.passes").value() - passes0;
      EXPECT_EQ(passes,
                reg.counter("fault_sim.ppsfp.pattern_blocks").value() - blocks0);
      if (!drop) {
        EXPECT_EQ(passes, blocks);
      }
      EXPECT_EQ(reg.counter("sim.parallel.gate_evals").value() - evals0,
                passes * gates);
    }
  }
}

TEST(ThreadedFaultSim, GoodMachinePassesCountOnePerBlock) {
  check_good_machine_passes_for_backend<ScalarEval<std::uint64_t>>(
      "scalar_x1");
  check_good_machine_passes_for_backend<ScalarEval<PatternWord<8>>>(
      "scalar_x8");
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
    ParallelFaultSimulator tsim(nl, threads);
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

// --- DFT_SIMD=auto: a 64-bit head, the widest lane for the tail ----------

// Sets DFT_SIMD for one scope and restores the previous value after it.
class ScopedSimd {
 public:
  explicit ScopedSimd(const char* value) {
    const char* cur = std::getenv("DFT_SIMD");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
    setenv("DFT_SIMD", value, 1);
  }
  ~ScopedSimd() {
    if (had_) {
      setenv("DFT_SIMD", saved_.c_str(), 1);
    } else {
      unsetenv("DFT_SIMD");
    }
  }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

std::unique_ptr<FaultSimEngine> make_auto_engine(const Netlist& nl,
                                                 int threads) {
  const ScopedSimd env("auto");
  return make_fault_sim_engine(nl, threads);
}

// The auto engine answers as the forced 64-bit engine does at every thread
// count, on both sides of the 64-pattern head and with or without
// dropping, on the built-in corpus and on random DAGs of every gate kind.
TEST(AutoLane, MatchesThe64BitEngine) {
  std::vector<Netlist> corpus;
  for (const char* name : {"c17", "adder4", "mult3", "dec3", "parity8",
                           "mux3", "cmp4", "sn74181", "counter8", "accum4"}) {
    corpus.push_back(serve::builtin_circuit(name));
  }
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    corpus.push_back(make_region_dag(seed, /*buses=*/seed % 2 == 0));
  }
  for (const Netlist& nl : corpus) {
    SCOPED_TRACE(nl.name() + " (" + std::to_string(nl.size()) + " gates)");
    const auto faults = collapse_faults(nl).representatives;
    const auto all = patterns_for(nl, 2048, nl.size());
    std::vector<std::vector<SourceVector>> runs;
    std::vector<FaultSimResult> wants;
    ParallelFaultSimulator ref_engine(nl);
    for (std::size_t n : {1u, 63u, 64u, 65u, 577u, 2048u}) {
      runs.emplace_back(all.begin(),
                        all.begin() + static_cast<std::ptrdiff_t>(n));
      wants.push_back(ref_engine.run(runs.back(), faults));
    }
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto eng = make_auto_engine(nl, threads);
      EXPECT_EQ(eng->name(), "event");
      for (std::size_t k = 0; k < runs.size(); ++k) {
        SCOPED_TRACE(std::to_string(runs[k].size()) + " patterns");
        for (bool drop : {true, false}) {
          SCOPED_TRACE(drop ? "dropping" : "no dropping");
          const FaultSimResult got = eng->run(runs[k], faults, drop);
          ASSERT_EQ(got.first_detected_by, wants[k].first_detected_by);
          ASSERT_EQ(got.num_detected, wants[k].num_detected);
          ASSERT_EQ(got.status, guard::RunStatus::Completed);
        }
      }
    }
  }
}

// A budget that runs out in the head stops the run after the first 64
// patterns; one that runs out in the tail stops it after the tail's first
// word. Either way the partial is the full run restricted to the charged
// prefix.
TEST(AutoLane, BudgetPartialIsACleanPrefixInTheHeadAndTheTail) {
  RandomCircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.max_fanin = 4;
  spec.seed = 12;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = enumerate_faults(nl);
  const auto pats = patterns_for(nl, 2048, 12);
  const FaultSimResult full = ParallelFaultSimulator(nl).run(pats, faults);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto eng = make_auto_engine(nl, threads);
    const std::size_t tail_word =
        static_cast<std::size_t>(eng->pattern_word_bits());
    // The head charges 64 patterns and the tail one word per block.
    for (const auto& [limit, prefix] :
         {std::pair<std::uint64_t, std::size_t>{10, 64},
          std::pair<std::uint64_t, std::size_t>{100, 64 + tail_word}}) {
      SCOPED_TRACE("pattern limit " + std::to_string(limit));
      guard::Budget budget;
      budget.set_pattern_limit(limit);
      const FaultSimResult r = eng->run(pats, faults, true, &budget);
      EXPECT_EQ(r.status, guard::RunStatus::DeadlineExpired);
      ASSERT_EQ(r.first_detected_by.size(), faults.size());
      int recorded = 0;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        const int fd = full.first_detected_by[i];
        const int want = fd >= 0 && static_cast<std::size_t>(fd) < prefix
                             ? fd
                             : -1;
        ASSERT_EQ(r.first_detected_by[i], want) << "fault " << i;
        if (want >= 0) ++recorded;
      }
      EXPECT_EQ(r.num_detected, recorded);
      EXPECT_LT(recorded, full.num_detected);
    }
    EXPECT_EQ(eng->run(pats, faults).first_detected_by,
              full.first_detected_by);
  }
}

// Each progress event counts the patterns of the whole run and the
// detections over the whole fault list: its coverage is exactly the share
// of faults the merged result detects before its pattern count, so the
// events never go backwards and end at the run's coverage.
TEST(AutoLane, ProgressCountsTheWholeRunAndFaultList) {
  RandomCircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.max_fanin = 4;
  spec.seed = 31;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = enumerate_faults(nl);
  const auto pats = patterns_for(nl, 1500, 31);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto eng = make_auto_engine(nl, threads);
    eng->set_progress_phase("auto_lane_test");
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    obs::ProgressSink::global().start(f, 0);
    const FaultSimResult res = eng->run(pats, faults);
    obs::ProgressSink::global().stop();
    std::rewind(f);
    std::vector<std::string> lines(1);
    for (int ch; (ch = std::fgetc(f)) != EOF;) {
      if (ch == '\n') {
        lines.emplace_back();
      } else {
        lines.back() += static_cast<char>(ch);
      }
    }
    std::fclose(f);
    lines.pop_back();
    const std::size_t tail_word =
        static_cast<std::size_t>(eng->pattern_word_bits());
    // The head's event, then one per tail word.
    ASSERT_EQ(lines.size(), 1 + (pats.size() - 64 + tail_word - 1) / tail_word);
    double last_patterns = 0;
    double last_coverage = 0;
    for (const std::string& line : lines) {
      SCOPED_TRACE(line);
      const obs::Json j = obs::parse_json(line);
      const double patterns = j.find("patterns")->as_number();
      const double coverage = j.find("coverage_pct")->as_number();
      const auto before = std::count_if(
          res.first_detected_by.begin(), res.first_detected_by.end(),
          [&](int fd) { return fd >= 0 && fd < patterns; });
      EXPECT_NEAR(coverage,
                  100.0 * static_cast<double>(before) /
                      static_cast<double>(faults.size()),
                  1e-9);
      EXPECT_GT(patterns, last_patterns);
      EXPECT_GE(coverage, last_coverage);
      last_patterns = patterns;
      last_coverage = coverage;
    }
    EXPECT_EQ(last_patterns, static_cast<double>(pats.size()));
    EXPECT_NEAR(last_coverage, 100.0 * res.coverage(), 1e-9);
  }
}

// The run's obs: fault_sim.coverage.final_pct is the merged coverage, not
// the tail's share of the survivors, and fault_sim.auto.tail_faults counts
// the faults the head left, at every thread count.
TEST(AutoLane, RecordsTheMergedCoverageAndTheTailFaults) {
  obs::set_enabled(true);
  const Netlist nl = serve::builtin_circuit("rand2k");
  const auto faults = collapse_faults(nl).representatives;
  const auto pats = patterns_for(nl, 700, 5);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto eng = make_auto_engine(nl, threads);
    obs::Counter& tail = obs::Registry::global().counter(
        "fault_sim.auto.tail_faults");
    const std::uint64_t before = tail.value();
    const FaultSimResult res = eng->run(pats, faults);
    const auto survivors = std::count_if(
        res.first_detected_by.begin(), res.first_detected_by.end(),
        [](int fd) { return fd < 0 || fd >= 64; });
    ASSERT_GT(survivors, 0);
    EXPECT_EQ(tail.value() - before, static_cast<std::uint64_t>(survivors));
    EXPECT_DOUBLE_EQ(obs::Registry::global()
                         .value("fault_sim.coverage.final_pct")
                         .value(),
                     100.0 * res.coverage());
  }
}

#if defined(__linux__)
// A run of at most 64 patterns never leaves the 64-bit machines; the first
// run that needs the wide lane builds its machines. Both lanes share the
// engine's one pool of threads - 1 OS threads.
TEST(AutoLane, BuildsTheWideEngineOnFirstUse) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  const auto pats = patterns_for(nl, 65, 8);
  const std::vector<SourceVector> head(pats.begin(), pats.begin() + 64);
  const IdleThread idle;  // see PoolStartsOneThreadFewerThanWorkers
  const int base = task_count();
  if (base < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  constexpr int kThreads = 4;
  const auto eng = make_auto_engine(nl, kThreads);
  EXPECT_EQ(task_count() - base, kThreads - 1);
  (void)eng->run(head, faults);
  (void)eng->run(head, faults, /*drop_detected=*/false);
  EXPECT_EQ(task_count() - base, kThreads - 1);
  (void)eng->run(pats, faults, /*drop_detected=*/false);
  EXPECT_EQ(task_count() - base, kThreads - 1);
}
#endif

// The PPSFP engines read only their compiled snapshot: engines built from a
// netlist that is then destroyed still run -- the auto engine builds its
// wide machines after the netlist is gone -- and answer as the 64-bit
// engine over a live copy does.
TEST(AutoLane, RunsAfterTheNetlistIsDestroyed) {
  const Netlist live = make_sn74181();
  const auto faults = collapse_faults(live).representatives;
  const auto pats = patterns_for(live, 700, 9);
  const FaultSimResult want = ParallelFaultSimulator(live).run(pats, faults);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<std::unique_ptr<FaultSimEngine>> engines;
    {
      const auto doomed = std::make_unique<Netlist>(live);
      engines.push_back(make_auto_engine(*doomed, threads));
      engines.push_back(make_fault_sim_engine(*doomed, "event", threads));
      engines.push_back(make_fault_sim_engine(
          *doomed, threads, FaultSimKernel::Event, simd::Lane::Avx512));
    }
    for (const auto& eng : engines) {
      for (bool drop : {true, false}) {
        const FaultSimResult got = eng->run(pats, faults, drop);
        EXPECT_EQ(got.first_detected_by, want.first_detected_by);
        EXPECT_EQ(got.num_detected, want.num_detected);
      }
    }
  }
}

// The work counters of the auto engine's runs, by name: the PPSFP block
// counts, the propagation counts, every frontier-death bucket and the
// regions stolen, summed over the workers.
std::map<std::string, std::uint64_t> auto_work_counts() {
  obs::Registry& reg = obs::Registry::global();
  std::map<std::string, std::uint64_t> counts;
  for (const char* name :
       {"fault_sim.ppsfp.faults_simulated", "fault_sim.ppsfp.stems_propagated",
        "fault_sim.ppsfp.pattern_blocks", "fault_sim.event.gates_evaluated",
        "fault_sim.event.events_scheduled", "fault_sim.event.trace_evals"}) {
    counts[name] = reg.counter(name).value();
  }
  for (int d = 0; d < 16; ++d) {
    char name[48];
    std::snprintf(name, sizeof(name), "fault_sim.event.death_depth.%02d%s", d,
                  d == 15 ? "_plus" : "");
    counts[name] = reg.counter(name).value();
  }
  std::uint64_t regions = 0;
  for (int w = 0; w < 8; ++w) {
    regions += reg.counter("fault_sim.threaded.worker." + std::to_string(w) +
                           ".regions")
                   .value();
  }
  counts["regions"] = regions;
  return counts;
}

std::map<std::string, std::uint64_t> operator-(
    std::map<std::string, std::uint64_t> a,
    const std::map<std::string, std::uint64_t>& b) {
  for (auto& [name, n] : a) n -= b.at(name);
  return a;
}

// One auto run does the work of two pinned runs: a 64-bit engine on the
// first 64 patterns, then a widest-lane engine on the faults it left and
// the remaining patterns.
TEST(AutoLane, WorkCountsEqualHeadPlusTail) {
  obs::set_enabled(true);
  simd::Lane wide;
  {
    const ScopedSimd env("auto");
    wide = simd::resolve_lane();
  }
  ASSERT_GT(simd::lane_bits(wide), 64);
  for (const char* circuit : {"rand2k", "sn74181"}) {
    SCOPED_TRACE(circuit);
    const Netlist nl = serve::builtin_circuit(circuit);
    const auto faults = collapse_faults(nl).representatives;
    const auto pats = patterns_for(nl, 700, 27);
    const std::vector<SourceVector> head(pats.begin(), pats.begin() + 64);
    const std::vector<SourceVector> tail(pats.begin() + 64, pats.end());
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto eng = make_auto_engine(nl, threads);
      auto before = auto_work_counts();
      const FaultSimResult got = eng->run(pats, faults);
      const auto auto_counts = auto_work_counts() - before;

      before = auto_work_counts();
      const FaultSimResult h =
          make_fault_sim_engine(nl, threads, FaultSimKernel::Event,
                                simd::Lane::Off)
              ->run(head, faults);
      std::vector<Fault> survivors;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (h.first_detected_by[i] < 0) survivors.push_back(faults[i]);
      }
      if (!survivors.empty()) {
        (void)make_fault_sim_engine(nl, threads, FaultSimKernel::Event, wide)
            ->run(tail, survivors);
      }
      const auto pinned_counts = auto_work_counts() - before;
      EXPECT_EQ(auto_counts, pinned_counts);
      EXPECT_GT(auto_counts.at("fault_sim.ppsfp.pattern_blocks"), 1u);
      EXPECT_GT(got.num_detected, h.num_detected);
    }
  }
}

// fault_sim.threaded.block takes one sample per block, from loading the
// good machine through the barrier, so a report can read each worker's
// idle time as the block total minus its task total.
TEST(ThreadedFaultSim, BlockTimerSamplesEveryBlock) {
  obs::set_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const obs::Histogram& timer = reg.timer("fault_sim.threaded.block");
  const obs::Counter& blocks = reg.counter("fault_sim.ppsfp.pattern_blocks");
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  const auto pats = patterns_for(nl, 700, 3);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<std::unique_ptr<FaultSimEngine>> engines;
    engines.push_back(make_auto_engine(nl, threads));
    engines.push_back(std::make_unique<ParallelFaultSimulator>(nl, threads));
    for (const auto& eng : engines) {
      for (bool drop : {true, false}) {
        const std::uint64_t samples0 = timer.count();
        const std::uint64_t blocks0 = blocks.value();
        (void)eng->run(pats, faults, drop);
        EXPECT_GT(blocks.value(), blocks0);
        EXPECT_EQ(timer.count() - samples0, blocks.value() - blocks0);
      }
    }
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

  // A multi-worker engine validates before dispatching to any worker.
  ParallelFaultSimulator tsim(nl, 2);
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
