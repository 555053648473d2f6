// Tests for the stuck-at fault universe, collapsing, and both fault
// simulators (serial reference vs parallel-pattern single-fault).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <utility>

#include "circuits/basic.h"
#include "circuits/pla.h"
#include "circuits/random_circuit.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "netlist/bench_io.h"

namespace dft {
namespace {

TEST(FaultUniverse, Fig1AndGateHasSixFaults) {
  // A 2-input AND embedded alone: 2 PI output faults x2 + 2 pin faults x2 +
  // gate output x2 = 10; but each PI has a single connection, so pin faults
  // collapse onto PI faults: the classic "6 faults for a 2-input gate" view
  // appears after collapsing (a/0,a/1,b/0,b/1,c/0,c/1 minus equivalences).
  const Netlist nl = make_fig1_and();
  const auto universe = enumerate_faults(nl);
  EXPECT_EQ(universe.size(), 10u);
  const auto collapsed = collapse_faults(nl);
  // Equivalences: a.pin/v == a/v, b.pin/v == b/v (rule 1);
  // {a/0, b/0, c/0} merge (AND controlling value). Classes:
  // {a/0,b/0,c/0,pins/0}, {a/1,pinA/1}, {b/1,pinB/1}, {c/1} -> 4.
  EXPECT_EQ(collapsed.representatives.size(), 4u);
}

TEST(FaultUniverse, EnumerationSkipsDeadGatesAndScanPins) {
  const char* text = R"(
INPUT(d)
INPUT(si)
OUTPUT(q)
f = SCANDFF(n, si)
n = AND(d, f)
q = BUF(f)
)";
  const Netlist nl = read_bench_string(text);
  for (const Fault& f : enumerate_faults(nl)) {
    if (is_storage(nl.type(f.gate))) {
      EXPECT_EQ(f.pin == -1 || f.pin == kStoragePinD, true)
          << fault_name(nl, f);
    }
    EXPECT_NE(nl.type(f.gate), GateType::Output);
  }
}

TEST(FaultCollapse, InverterChainCollapsesToTwoClasses) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
n1 = NOT(a)
n2 = NOT(n1)
y = NOT(n2)
)";
  const Netlist nl = read_bench_string(text);
  const auto collapsed = collapse_faults(nl);
  // Universe: a/0 a/1, n1 pins/out, n2 pins/out, y(NOT "y" gate) pins/out
  // = 2 + 4*3 = 14; all collapse through the chain into exactly 2 classes.
  EXPECT_EQ(collapsed.universe.size(), 14u);
  EXPECT_EQ(collapsed.representatives.size(), 2u);
}

TEST(FaultCollapse, RatioOnC17IsSubstantial) {
  const auto collapsed = collapse_faults(make_c17());
  EXPECT_LT(collapsed.collapse_ratio(), 0.65);
  EXPECT_GT(collapsed.representatives.size(), 10u);
  // Every universe fault maps to a valid representative.
  for (int idx : collapsed.rep_index_of_universe) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(collapsed.representatives.size()));
  }
}

TEST(Checkpoints, C17CheckpointsArePIsAndBranches) {
  const Netlist nl = make_c17();
  const auto cps = checkpoint_faults(nl);
  // c17: 5 PIs + fanout branches of nets 3(->2 sinks), 11(->2), 16(->2):
  // 3 stems * 2 branch pins each... net 3 feeds gates 10 and 11, net 11
  // feeds 16 and 19, net 16 feeds 22 and 23: 6 branch pins. (5 PI + 6) * 2
  // polarities = 22.
  EXPECT_EQ(cps.size(), 22u);
}

TEST(SerialFaultSim, Fig1PatternTestsInputStuckAt1) {
  const Netlist nl = make_fig1_and();
  SerialFaultSimulator fsim(nl);
  const GateId a = *nl.find("a");
  // Pattern A=0,B=1 tests a/1 but not a/0.
  EXPECT_TRUE(fsim.detects({Logic::Zero, Logic::One}, {a, -1, true}));
  EXPECT_FALSE(fsim.detects({Logic::Zero, Logic::One}, {a, -1, false}));
  // Pattern A=1,B=1 tests a/0.
  EXPECT_TRUE(fsim.detects({Logic::One, Logic::One}, {a, -1, false}));
}

TEST(SerialFaultSim, DetectsThroughStorageCapture) {
  const char* text = R"(
INPUT(d)
OUTPUT(q)
f = DFF(n)
n = NOT(d)
q = BUF(f)
)";
  const Netlist nl = read_bench_string(text);
  SerialFaultSimulator fsim(nl);
  const GateId n = *nl.find("n");
  // Pattern d=1 (state X): good next state is 0; n/1 flips the captured bit.
  SourceVector pat = {Logic::One, Logic::X};
  EXPECT_TRUE(fsim.detects(pat, {n, -1, true}));
  // Storage D-pin fault is observed at capture as well.
  const GateId f = *nl.find("f");
  EXPECT_TRUE(fsim.detects(pat, {f, kStoragePinD, true}));
  EXPECT_FALSE(fsim.detects(pat, {f, kStoragePinD, false}));
}

TEST(ParallelFaultSim, AgreesWithSerialOnC17) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(17);
  std::vector<SourceVector> patterns;
  for (int i = 0; i < 40; ++i) {
    patterns.push_back(random_source_vector(nl, rng));
  }
  SerialFaultSimulator serial(nl);
  ParallelFaultSimulator parallel(nl);
  const auto rs = serial.run(patterns, faults);
  const auto rp = parallel.run(patterns, faults);
  ASSERT_EQ(rs.first_detected_by.size(), rp.first_detected_by.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(rs.first_detected_by[i], rp.first_detected_by[i])
        << fault_name(nl, faults[i]);
  }
}

TEST(ParallelFaultSim, AgreesWithSerialOnRandomCircuit) {
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_gates = 150;
  spec.seed = 23;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(29);
  std::vector<SourceVector> patterns;
  for (int i = 0; i < 96; ++i) {
    patterns.push_back(random_source_vector(nl, rng));
  }
  SerialFaultSimulator serial(nl);
  ParallelFaultSimulator parallel(nl);
  const auto rs = serial.run(patterns, faults);
  const auto rp = parallel.run(patterns, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(rs.first_detected_by[i], rp.first_detected_by[i])
        << fault_name(nl, faults[i]);
  }
}

TEST(ParallelFaultSim, AgreesWithSerialOnSequentialCaptureModel) {
  RandomSeqSpec spec;
  spec.num_flops = 8;
  spec.seed = 31;
  const Netlist nl = make_random_sequential(spec);
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(37);
  std::vector<SourceVector> patterns;
  for (int i = 0; i < 64; ++i) {
    patterns.push_back(random_source_vector(nl, rng));
  }
  SerialFaultSimulator serial(nl);
  ParallelFaultSimulator parallel(nl);
  const auto rs = serial.run(patterns, faults);
  const auto rp = parallel.run(patterns, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(rs.first_detected_by[i], rp.first_detected_by[i])
        << fault_name(nl, faults[i]);
  }
}

TEST(ParallelFaultSim, CoverageMonotoneInPatternCount) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  ParallelFaultSimulator fsim(nl);
  std::mt19937_64 rng(41);
  std::vector<SourceVector> patterns;
  double last = 0.0;
  for (int n : {8, 64, 512}) {
    while (static_cast<int>(patterns.size()) < n) {
      patterns.push_back(random_source_vector(nl, rng));
    }
    const double cov = fsim.run(patterns, faults).coverage();
    EXPECT_GE(cov, last);
    last = cov;
  }
  // The 74181 is highly random-testable; ~4% of collapsed faults (the d_i
  // side-inputs of the expanded carry-lookahead AND terms) are provably
  // redundant -- E_i = 1 forces A_i = 0 while D_i = 0 forces A_i = 1 -- so
  // coverage saturates just below 96%. The ATPG tests prove that remainder
  // redundant.
  EXPECT_GT(last, 0.94);
}

TEST(ParallelFaultSim, RejectsXPatterns) {
  const Netlist nl = make_fig1_and();
  ParallelFaultSimulator fsim(nl);
  const auto faults = enumerate_faults(nl);
  EXPECT_THROW(fsim.run({{Logic::X, Logic::One}}, faults),
               std::invalid_argument);
}

TEST(FaultName, FormatsPinAndOutputFaults) {
  const Netlist nl = make_fig1_and();
  const GateId c = *nl.find("c");
  EXPECT_EQ(fault_name(nl, {c, -1, true}), "c/1");
  EXPECT_EQ(fault_name(nl, {c, 0, false}), "c.in0(a)/0");
}

// --- Collapse oracle ---------------------------------------------------------

// A plain reference collapse: the universe from the documented rules, and a
// map-keyed union-find over Fault values with the two equivalence rules
// applied by brute force. collapse_faults must agree with it exactly.
CollapseResult reference_collapse(const Netlist& nl) {
  std::set<Fault> universe;
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType t = nl.type(g);
    if (t != GateType::Output && !nl.fanout(g).empty()) {
      universe.insert({g, -1, false});
      universe.insert({g, -1, true});
    }
    for (int p = 0; p < static_cast<int>(nl.fanin(g).size()); ++p) {
      if (is_combinational(t) && t != GateType::Output) {
        universe.insert({g, p, false});
        universe.insert({g, p, true});
      } else if (is_storage(t) && p == kStoragePinD) {
        universe.insert({g, p, false});
        universe.insert({g, p, true});
      }
    }
  }
  std::map<Fault, Fault> parent;
  for (const Fault& f : universe) parent[f] = f;
  const auto find = [&](Fault f) {
    while (!(parent.at(f) == f)) f = parent.at(f);
    return f;
  };
  const auto unite = [&](const Fault& a, const Fault& b) {
    if (universe.count(a) == 0 || universe.count(b) == 0) return;
    parent[find(a)] = find(b);
  };
  for (GateId g = 0; g < nl.size(); ++g) {
    // Rule 1: a stem with exactly one sink pin anywhere in the netlist.
    std::vector<std::pair<GateId, int>> sinks;
    for (GateId s = 0; s < nl.size(); ++s) {
      for (std::size_t p = 0; p < nl.fanin(s).size(); ++p) {
        if (nl.fanin(s)[p] == g) sinks.emplace_back(s, static_cast<int>(p));
      }
    }
    if (sinks.size() == 1) {
      const auto [s, p] = sinks.front();
      unite({g, -1, false}, {s, p, false});
      unite({g, -1, true}, {s, p, true});
    }
    // Rule 2: the controlling input value implies the output value.
    std::vector<std::pair<bool, bool>> pin_out;
    switch (nl.type(g)) {
      case GateType::And: pin_out = {{false, false}}; break;
      case GateType::Nand: pin_out = {{false, true}}; break;
      case GateType::Or: pin_out = {{true, true}}; break;
      case GateType::Nor: pin_out = {{true, false}}; break;
      case GateType::Buf: pin_out = {{false, false}, {true, true}}; break;
      case GateType::Not: pin_out = {{false, true}, {true, false}}; break;
      default: break;
    }
    for (const auto& [pin_v, out_v] : pin_out) {
      for (int p = 0; p < static_cast<int>(nl.fanin(g).size()); ++p) {
        unite({g, p, pin_v}, {g, -1, out_v});
      }
    }
  }
  CollapseResult ref;
  ref.universe.assign(universe.begin(), universe.end());
  std::map<Fault, Fault> smallest;  // root -> smallest member
  for (const Fault& f : ref.universe) smallest.emplace(find(f), f);
  std::map<Fault, int> rep_index;
  for (const auto& [root, rep] : smallest) rep_index[rep] = 0;
  for (auto& [rep, index] : rep_index) {
    index = static_cast<int>(ref.representatives.size());
    ref.representatives.push_back(rep);
  }
  for (const Fault& f : ref.universe) {
    ref.rep_index_of_universe.push_back(rep_index.at(smallest.at(find(f))));
  }
  return ref;
}

void expect_collapse_matches_reference(const Netlist& nl,
                                       const std::string& what) {
  const CollapseResult got = collapse_faults(nl);
  const CollapseResult ref = reference_collapse(nl);
  EXPECT_EQ(got.universe, ref.universe) << what;
  EXPECT_EQ(got.representatives, ref.representatives) << what;
  EXPECT_EQ(got.rep_index_of_universe, ref.rep_index_of_universe) << what;
}

// A random netlist with every structure the collapse rules treat apart:
// storage of all four kinds (fed back from later gates), Mux, Tristate
// drivers resolved by a Bus, constants (live and dead), every simple gate
// type, and repeated fanins (a stem with two pins on one gate).
Netlist random_mixed_netlist(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) { return rng() % n; };
  Netlist nl("mixed" + std::to_string(seed));
  std::vector<GateId> drivers;
  for (int i = 0; i < 4 + static_cast<int>(pick(4)); ++i) {
    drivers.push_back(nl.add_input("i" + std::to_string(i)));
  }
  drivers.push_back(nl.add_gate(GateType::Const0, {}));
  drivers.push_back(nl.add_gate(GateType::Const1, {}));
  nl.add_gate(GateType::Const1, {});  // dead constant
  const GateType kStorage[] = {GateType::Dff, GateType::ScanDff,
                               GateType::Srl, GateType::AddressableLatch};
  std::vector<GateId> storage;
  for (int i = 0; i < 1 + static_cast<int>(pick(4)); ++i) {
    const GateType t = kStorage[pick(4)];
    const std::vector<GateId> fin(
        static_cast<std::size_t>(fanin_arity(t).min), drivers.front());
    storage.push_back(nl.add_gate(t, fin));
    drivers.push_back(storage.back());
  }
  const GateType kSimple[] = {GateType::Buf, GateType::Not, GateType::And,
                              GateType::Nand, GateType::Or, GateType::Nor,
                              GateType::Xor, GateType::Xnor};
  const auto any = [&] { return drivers[pick(drivers.size())]; };
  for (int i = 0; i < 30 + static_cast<int>(pick(30)); ++i) {
    const std::size_t kind = pick(12);
    if (kind < 8) {
      const GateType t = kSimple[kind];
      const std::size_t n = fanin_arity(t).max == 1 ? 1 : 1 + pick(4);
      std::vector<GateId> fin;
      for (std::size_t k = 0; k < n; ++k) fin.push_back(any());
      drivers.push_back(nl.add_gate(t, fin));
    } else if (kind < 10) {
      drivers.push_back(nl.add_gate(GateType::Mux, {any(), any(), any()}));
    } else {
      std::vector<GateId> tri;
      for (std::size_t k = 0; k < 1 + pick(3); ++k) {
        tri.push_back(nl.add_gate(GateType::Tristate, {any(), any()}));
      }
      drivers.push_back(nl.add_gate(GateType::Bus, tri));
    }
  }
  for (GateId q : storage) {
    for (std::size_t p = 0; p < nl.fanin(q).size(); ++p) {
      nl.set_fanin(q, static_cast<int>(p), any());
    }
  }
  for (int i = 0; i < 3; ++i) nl.add_output(any());
  nl.add_output(drivers.back());
  nl.validate();
  return nl;
}

TEST(CollapseOracle, BuiltInCircuitsMatchTheReference) {
  RandomSeqSpec seq;
  seq.num_flops = 6;
  seq.gates_per_cone = 5;
  RandomCircuitSpec comb;
  comb.num_gates = 300;
  const std::vector<std::pair<std::string, Netlist>> circuits = {
      {"fig1", make_fig1_and()},
      {"c17", make_c17()},
      {"adder4", make_ripple_adder(4)},
      {"mult3", make_array_multiplier(3)},
      {"dec3", make_decoder(3)},
      {"parity8", make_parity_tree(8)},
      {"mux3", make_mux_tree(3)},
      {"cmp4", make_comparator(4)},
      {"maj5", make_majority_voter(5)},
      {"sn74181", make_sn74181()},
      {"counter8", make_counter(8)},
      {"shift6", make_shift_register(6)},
      {"seqdet", make_sequence_detector()},
      {"accum4", make_accumulator(4)},
      {"pla", make_pla(make_random_pla_spec(6, 4, 10, 3, 5))},
      {"rand_seq", make_random_sequential(seq)},
      {"rand_comb", make_random_combinational(comb)},
  };
  for (const auto& [name, nl] : circuits) {
    expect_collapse_matches_reference(nl, name);
  }
}

TEST(CollapseOracle, RandomMixedNetlistsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_collapse_matches_reference(random_mixed_netlist(seed),
                                      "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace dft
