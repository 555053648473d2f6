// Event-driven fault-sim kernel: differential fuzzing against the
// independent oracles. The event kernel is an optimization with an exact
// contract -- bit-identical first_detected_by against serial, deductive,
// and the threaded wrappers at any thread count, with and without fault
// dropping -- so the whole test is "same answer, every engine, on circuits
// none of them has seen".
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/deductive.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "sim/comb_sim.h"
#include "sim/simd.h"

namespace dft {
namespace {

std::vector<SourceVector> random_patterns(const Netlist& nl, int n,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<SourceVector> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_source_vector(nl, rng));
  return pats;
}

// --- The fuzzer: ~50 random DAGs through every engine ---------------------

TEST(EventKernelFuzz, AllEnginesAgreeOnRandomDags) {
  std::mt19937_64 meta(2024);
  for (int round = 0; round < 50; ++round) {
    RandomCircuitSpec spec;
    spec.num_inputs = 6 + static_cast<int>(meta() % 10);
    spec.num_outputs = 3 + static_cast<int>(meta() % 6);
    spec.num_gates = 40 + static_cast<int>(meta() % 80);
    spec.max_fanin = 2 + static_cast<int>(meta() % 3);
    spec.seed = meta();
    const Netlist nl = make_random_combinational(spec);
    const auto faults = enumerate_faults(nl);
    // 1-3 word blocks, so the pattern-block decomposition sees single-block,
    // exact-multiple and ragged-tail runs across the fuzz space.
    const auto pats = random_patterns(nl, 64 + static_cast<int>(meta() % 129),
                                      meta());

    ParallelFaultSimulator evt(nl);
    const auto ref = evt.run(pats, faults);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + nl.name() + ", " +
                 std::to_string(pats.size()) + " patterns)");

    // drop_detected is a pure perf hint on the event kernel too.
    const auto ref_nodrop = evt.run(pats, faults, /*drop_detected=*/false);
    ASSERT_EQ(ref.first_detected_by, ref_nodrop.first_detected_by);

    SerialFaultSimulator serial(nl);
    ASSERT_EQ(ref.first_detected_by,
              serial.run(pats, faults).first_detected_by);

    DeductiveFaultSimulator ded(nl);
    ASSERT_EQ(ref.first_detected_by, ded.run(pats, faults).first_detected_by);

    for (int threads : {1, 2, 8}) {
      ThreadedFaultSimulator tsim(nl, threads);
      ASSERT_EQ(ref.first_detected_by,
                tsim.run(pats, faults).first_detected_by)
          << threads << " threads";
      ASSERT_EQ(ref.first_detected_by,
                tsim.run(pats, faults, /*drop_detected=*/false)
                    .first_detected_by)
          << threads << " threads, no dropping";
      // Force each parallel decomposition (Auto may fall back to
      // sequential on small workloads or core-starved machines): the
      // pattern-block path must merge earliest-pattern-wins and the
      // cross-block drop must stay bit-identical on the same engine.
      if (threads > 1) {
        for (MtDecomposition mode : {MtDecomposition::PatternBlock,
                                     MtDecomposition::FaultChunk}) {
          tsim.set_decomposition(mode);
          const auto forced = tsim.run(pats, faults);
          ASSERT_EQ(tsim.last_decomposition(), mode);
          ASSERT_EQ(ref.first_detected_by, forced.first_detected_by)
              << threads << " threads, forced " << to_string(mode);
          ASSERT_EQ(ref.num_detected, forced.num_detected);
          ASSERT_EQ(ref.first_detected_by,
                    tsim.run(pats, faults, /*drop_detected=*/false)
                        .first_detected_by)
              << threads << " threads, forced " << to_string(mode)
              << ", no dropping";
        }
      }
    }
  }
}

// --- The fuzzer again, across every compiled pattern-word lane ------------
//
// The wide lanes (256/512-bit portable words plus the AVX backends where
// the host runs them) are an optimization with the same exact contract as
// the event kernel itself: bit-identical detection sets AND bit-identical
// first-detecting-pattern indices against the serial oracle, at every
// thread count, with and without dropping. Pattern counts straddle the
// widest word (one-plus full 512-bit words and a ragged tail) so every lane
// sees full and partial blocks.

TEST(EventKernelFuzz, AllLaneWidthsAgreeOnRandomDags) {
  const std::vector<simd::Lane> lanes = simd::available_lanes();
  ASSERT_GE(lanes.size(), 3u);  // off + scalar4 + scalar8 always compile
  std::mt19937_64 meta(4096);
  for (int round = 0; round < 10; ++round) {
    RandomCircuitSpec spec;
    spec.num_inputs = 6 + static_cast<int>(meta() % 10);
    spec.num_outputs = 3 + static_cast<int>(meta() % 6);
    spec.num_gates = 40 + static_cast<int>(meta() % 80);
    spec.max_fanin = 2 + static_cast<int>(meta() % 3);
    spec.seed = meta();
    const Netlist nl = make_random_combinational(spec);
    const auto faults = enumerate_faults(nl);
    const auto pats = random_patterns(
        nl, 512 + 64 + static_cast<int>(meta() % 129), meta());

    SerialFaultSimulator serial(nl);
    const auto ref = serial.run(pats, faults);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + nl.name() + ", " +
                 std::to_string(pats.size()) + " patterns)");

    for (const simd::Lane lane : lanes) {
      SCOPED_TRACE("lane " + std::string(simd::lane_name(lane)));
      for (int threads : {1, 2, 8}) {
        const auto eng =
            make_fault_sim_engine(nl, threads, FaultSimKernel::Event, lane);
        ASSERT_EQ(eng->pattern_word_bits(), simd::lane_bits(lane));
        const auto drop = eng->run(pats, faults);
        ASSERT_EQ(ref.num_detected, drop.num_detected)
            << threads << " threads";
        ASSERT_EQ(ref.first_detected_by, drop.first_detected_by)
            << threads << " threads";
        ASSERT_EQ(ref.first_detected_by,
                  eng->run(pats, faults, /*drop_detected=*/false)
                      .first_detected_by)
            << threads << " threads, no dropping";
      }
    }
  }
}

// --- Sequential capture model (storage D nets observable, outputs
// --- controllable) goes through the same event wheel -----------------------

TEST(EventKernel, MatchesSerialOracleOnSequentialCaptureModel) {
  for (std::uint64_t seed : {5u, 21u, 77u}) {
    RandomSeqSpec spec;
    spec.seed = seed;
    const Netlist nl = make_random_sequential(spec);
    const auto faults = collapse_faults(nl).representatives;
    const auto pats = random_patterns(nl, 96, seed * 13 + 1);
    SerialFaultSimulator serial(nl);
    ParallelFaultSimulator evt(nl);
    const auto rs = serial.run(pats, faults);
    const auto re = evt.run(pats, faults);
    EXPECT_EQ(rs.num_detected, re.num_detected) << "seed " << seed;
    EXPECT_EQ(rs.first_detected_by, re.first_detected_by) << "seed " << seed;
  }
}

// --- Observation-point override narrows detection identically -------------

// Independent oracle for a restricted observation set on a combinational
// circuit: one good and one faulty CombSim per (pattern, fault) pair, and a
// detection only when one of `observed` differs binarily.
std::vector<int> observed_first_detections(
    const Netlist& nl, const std::vector<SourceVector>& pats,
    const std::vector<Fault>& faults, const std::vector<GateId>& observed) {
  CombSim good(nl);
  CombSim bad(nl);
  std::vector<int> first(faults.size(), -1);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    bad.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
    for (std::size_t pi = 0; pi < pats.size() && first[fi] < 0; ++pi) {
      good.set_inputs(pats[pi]);
      good.evaluate();
      bad.set_inputs(pats[pi]);
      bad.evaluate();
      for (GateId g : observed) {
        const Logic a = good.value(g);
        const Logic b = bad.value(g);
        if (is_binary(a) && is_binary(b) && a != b) {
          first[fi] = static_cast<int>(pi);
          break;
        }
      }
    }
  }
  return first;
}

TEST(EventKernel, HonorsObservationPointOverride) {
  const Netlist nl = make_sn74181();
  ASSERT_TRUE(nl.storage().empty());  // the oracle drives inputs only
  const auto faults = collapse_faults(nl).representatives;
  const auto pats = random_patterns(nl, 128, 3);
  const std::vector<GateId> observed(nl.outputs().begin(),
                                     nl.outputs().begin() + 2);
  ParallelFaultSimulator evt(nl);
  evt.set_observation_points(observed);
  const auto re = evt.run(pats, faults);
  EXPECT_EQ(observed_first_detections(nl, pats, faults, observed),
            re.first_detected_by);

  evt.reset_observation_points();
  const auto full = evt.run(pats, faults);
  EXPECT_GT(full.num_detected, re.num_detected);
  EXPECT_EQ(observed_first_detections(nl, pats, faults, nl.outputs()),
            full.first_detected_by);
}

// --- Storage D-pin faults (the capture-path special case) ------------------

TEST(EventKernel, AgreesOnStorageDPinFaults) {
  RandomSeqSpec spec;
  spec.seed = 31;
  const Netlist nl = make_random_sequential(spec);
  std::vector<Fault> dpin;
  for (GateId ff : nl.storage()) {
    dpin.push_back(Fault{ff, kStoragePinD, false});
    dpin.push_back(Fault{ff, kStoragePinD, true});
  }
  ASSERT_FALSE(dpin.empty());
  const auto pats = random_patterns(nl, 128, 8);
  SerialFaultSimulator serial(nl);
  ParallelFaultSimulator evt(nl);
  const auto rs = serial.run(pats, dpin);
  EXPECT_GT(rs.num_detected, 0);
  EXPECT_EQ(rs.first_detected_by, evt.run(pats, dpin).first_detected_by);
}

// --- Malformed patterns leave the event engine reusable --------------------

TEST(EventKernel, MalformedPatternLeavesEngineIntact) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  const auto pats = random_patterns(nl, 10, 42);
  ParallelFaultSimulator evt(nl);
  const auto good = evt.run(pats, faults);

  auto bad = pats;
  bad[5].pop_back();
  EXPECT_THROW(evt.run(bad, faults), std::invalid_argument);
  EXPECT_EQ(good.first_detected_by, evt.run(pats, faults).first_detected_by);

  bad = pats;
  bad[7][2] = Logic::X;
  EXPECT_THROW(evt.run(bad, faults), std::invalid_argument);
  EXPECT_EQ(good.first_detected_by, evt.run(pats, faults).first_detected_by);
}

// --- The name-based factory ------------------------------------------------

TEST(EngineFactory, SelectsEngineByName) {
  const Netlist nl = make_c17();
  EXPECT_EQ(make_fault_sim_engine(nl, "", 1)->name(), "event");
  EXPECT_EQ(make_fault_sim_engine(nl, "", 4)->name(), "threaded-event");
  EXPECT_EQ(make_fault_sim_engine(nl, "event", 1)->name(), "event");
  EXPECT_EQ(make_fault_sim_engine(nl, "event", 2)->name(), "threaded-event");
  EXPECT_EQ(make_fault_sim_engine(nl, "serial", 1)->name(), "serial");
  EXPECT_EQ(make_fault_sim_engine(nl, "deductive", 1)->name(), "deductive");
}

TEST(EngineFactory, NamedEnginesAgree) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  const auto pats = random_patterns(nl, 128, 6);
  const auto ref =
      make_fault_sim_engine(nl, "serial", 1)->run(pats, faults);
  for (const char* engine : {"", "event", "deductive"}) {
    const auto r = make_fault_sim_engine(nl, engine, 1)->run(pats, faults);
    EXPECT_EQ(ref.first_detected_by, r.first_detected_by)
        << "engine '" << engine << "'";
  }
  for (const char* engine : {"", "event"}) {
    const auto r = make_fault_sim_engine(nl, engine, 4)->run(pats, faults);
    EXPECT_EQ(ref.first_detected_by, r.first_detected_by)
        << "engine '" << engine << "' x4";
  }
}

TEST(EngineFactory, RejectsBadNamesAndThreadCounts) {
  const Netlist nl = make_c17();
  EXPECT_THROW(make_fault_sim_engine(nl, "bogus", 1), std::invalid_argument);
  // The rejection names every valid engine so a CLI typo is self-serving
  // (dft_tool's usage text lists the same set).
  try {
    make_fault_sim_engine(nl, "bogus", 1);
    FAIL() << "unknown engine name must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
    for (const char* name : {"event", "serial", "deductive"}) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "message should list '" << name << "': " << msg;
    }
  }
  // The retired static-cone kernel's name is an unknown engine now, and
  // the rejection points at the names that remain.
  try {
    make_fault_sim_engine(nl, "ppsfp", 1);
    FAIL() << "'ppsfp' must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'ppsfp'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid engines: event (default), serial, deductive"),
              std::string::npos)
        << msg;
  }
  EXPECT_THROW(make_fault_sim_engine(nl, "serial", 2), std::invalid_argument);
  EXPECT_THROW(make_fault_sim_engine(nl, "deductive", 8),
               std::invalid_argument);
  // Thread counts are validated up front: 0 no longer silently means
  // "hardware concurrency" at the factory layer -- callers resolve that
  // themselves (resolve_thread_count) before asking for an engine.
  EXPECT_THROW(make_fault_sim_engine(nl, 0), std::invalid_argument);
  EXPECT_THROW(make_fault_sim_engine(nl, -3), std::invalid_argument);
  EXPECT_THROW(make_fault_sim_engine(nl, "event", 0), std::invalid_argument);
  EXPECT_THROW(make_fault_sim_engine(nl, "event", -1), std::invalid_argument);
}

}  // namespace
}  // namespace dft
