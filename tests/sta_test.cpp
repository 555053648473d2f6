// dft::sta -- static implication / untestability analysis.
//
// The load-bearing property is SOUNDNESS: sta may miss redundancies, but a
// fault it calls untestable must be one an unbounded PODEM search proves
// Redundant. The differential fuzzer checks exactly that on random DAGs,
// and the run_atpg pre-pass test checks the end-to-end contract: identical
// detected/redundant classification and identical tests with the pre-pass
// on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "atpg/engine.h"
#include "atpg/podem.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "fault/fault.h"
#include "serve/cache.h"
#include "sta/sta.h"

namespace dft {
namespace {

using sta::LineConst;
using sta::StaOptions;
using sta::StaticAnalyzer;

// The pre-pass proves redundancies in fault order before PODEM finds the
// rest, so `redundant` can be a permutation of the un-pruned run's -- the
// contract is set equality.
std::vector<Fault> sorted(std::vector<Fault> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- hand-built redundancy shapes ------------------------------------------

// The classic redundant circuit: z = AND(a, OR(b, NOT b)). The OR is
// constant 1 (provable only by phase probing: OR=0 forces b=0 and b=1),
// so the AND's second pin is untestable for s-a-1.
Netlist make_classic_redundant() {
  Netlist nl("classic_redundant");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId nb = nl.add_gate(GateType::Not, {b}, "nb");
  const GateId t = nl.add_gate(GateType::Or, {b, nb}, "t");
  const GateId z = nl.add_gate(GateType::And, {a, t}, "z");
  nl.add_output(z, "po");
  (void)a;
  return nl;
}

TEST(Sta, ClassicRedundantConstantAndPrunes) {
  const Netlist nl = make_classic_redundant();
  const StaticAnalyzer an(nl);
  ASSERT_TRUE(nl.find("t").has_value());
  const GateId t = *nl.find("t");
  const GateId z = *nl.find("z");
  EXPECT_EQ(an.constant(t), LineConst::One);
  EXPECT_EQ(an.constant(z), LineConst::Free);
  EXPECT_GT(an.stats().constants_found, 0);
  EXPECT_EQ(an.stats().status, guard::RunStatus::Completed);

  // t/1 is undetectable everywhere it appears; t/0 is testable.
  EXPECT_TRUE(an.untestable(Fault{t, -1, true}));
  EXPECT_FALSE(an.untestable(Fault{t, -1, false}));
  EXPECT_TRUE(an.untestable(Fault{z, 1, true}));   // AND pin fed by t, s-a-1
  EXPECT_FALSE(an.untestable(Fault{z, 1, false}));
  EXPECT_FALSE(an.untestable(Fault{z, 0, true}));  // the a pin is testable

  // PODEM agrees on every verdict.
  Podem podem(nl, 1000000000);
  for (const Fault& f : enumerate_faults(nl)) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_NE(out.status, AtpgStatus::Aborted);
    if (an.untestable(f)) {
      EXPECT_EQ(out.status, AtpgStatus::Redundant) << fault_name(nl, f);
    }
  }
}

TEST(Sta, XorOfSameLineIsConstantZero) {
  Netlist nl("xor_same");
  const GateId a = nl.add_input("a");
  const GateId x = nl.add_gate(GateType::Xor, {a, a}, "x");
  const GateId y = nl.add_gate(GateType::Or, {x, nl.add_input("b")}, "y");
  nl.add_output(y, "po");
  const StaticAnalyzer an(nl);
  EXPECT_EQ(an.constant(x), LineConst::Zero);
  EXPECT_TRUE(an.untestable(Fault{x, -1, false}));  // stuck at its value
  EXPECT_FALSE(an.untestable(Fault{x, -1, true}));
  // An XNOR of the same line is constant 1 likewise.
  Netlist nl2("xnor_same");
  const GateId c = nl2.add_input("c");
  const GateId x2 = nl2.add_gate(GateType::Xnor, {c, c}, "x2");
  nl2.add_output(x2, "po");
  const StaticAnalyzer an2(nl2);
  EXPECT_EQ(an2.constant(x2), LineConst::One);
}

TEST(Sta, ConstantGatePropagation) {
  Netlist nl("const_prop");
  const GateId a = nl.add_input("a");
  const GateId c0 = nl.add_gate(GateType::Const0, {}, "c0");
  const GateId inv = nl.add_gate(GateType::Not, {c0}, "inv");     // 1
  const GateId o = nl.add_gate(GateType::Or, {a, inv}, "o");      // 1
  const GateId n = nl.add_gate(GateType::Nand, {o, a}, "n");      // ~a
  nl.add_output(n, "z");
  const StaticAnalyzer an(nl);
  EXPECT_EQ(an.constant(c0), LineConst::Zero);
  EXPECT_EQ(an.constant(inv), LineConst::One);
  EXPECT_EQ(an.constant(o), LineConst::One);
  EXPECT_EQ(an.constant(n), LineConst::Free);
  EXPECT_EQ(an.constant(a), LineConst::Free);
}

TEST(Sta, ConstantBlockedConeIsUnobservable) {
  // g feeds only AND(g, 0): nothing g does can reach the output.
  Netlist nl("blocked");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c0 = nl.add_gate(GateType::Const0, {}, "c0");
  const GateId g = nl.add_gate(GateType::Xor, {a, b}, "g");
  const GateId blocked = nl.add_gate(GateType::And, {g, c0}, "dead");
  const GateId z = nl.add_gate(GateType::Or, {blocked, a}, "z");
  nl.add_output(z, "po");
  const StaticAnalyzer an(nl);
  EXPECT_FALSE(an.observable(g));
  EXPECT_TRUE(an.observable(a));
  EXPECT_TRUE(an.untestable(Fault{g, -1, true}));
  EXPECT_TRUE(an.untestable(Fault{g, -1, false}));
  EXPECT_GT(an.stats().unobservable_gates, 0);
}

TEST(Sta, ReconvergentConstantDoesNotBlockItsOwnCone) {
  // u = AND(a, NOT a) is constant 0, but u itself is in the fanout cone of
  // a -- a fault on `a` flips u, so the constant must NOT block paths for
  // origins inside its cone. All of a's faults are genuinely testable here
  // (z = OR(u, a) behaves as `a`; a fault on `a` propagates via the OR's
  // second pin), and soundness says sta must not claim otherwise.
  Netlist nl("reconv");
  const GateId a = nl.add_input("a");
  const GateId na = nl.add_gate(GateType::Not, {a}, "na");
  const GateId u = nl.add_gate(GateType::And, {a, na}, "u");
  const GateId z = nl.add_gate(GateType::Or, {u, a}, "z");
  nl.add_output(z, "po");
  (void)z;
  const StaticAnalyzer an(nl);
  EXPECT_EQ(an.constant(u), LineConst::Zero);
  EXPECT_FALSE(an.untestable(Fault{a, -1, true}));
  EXPECT_FALSE(an.untestable(Fault{a, -1, false}));
  Podem podem(nl, 1000000000);
  EXPECT_EQ(podem.generate(Fault{a, -1, true}).status, AtpgStatus::TestFound);
  EXPECT_EQ(podem.generate(Fault{a, -1, false}).status,
            AtpgStatus::TestFound);
}

TEST(Sta, MuxWithConstantSelect) {
  Netlist nl("mux_const_sel");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c1 = nl.add_gate(GateType::Const1, {}, "c1");
  const GateId m = nl.add_gate(GateType::Mux, {a, b, c1}, "m");
  nl.add_output(m, "z");
  const StaticAnalyzer an(nl);
  // sel const 1: the a-input path is dead, b passes through.
  EXPECT_TRUE(an.untestable(Fault{m, kMuxPinA, true}));
  EXPECT_TRUE(an.untestable(Fault{m, kMuxPinA, false}));
  EXPECT_FALSE(an.untestable(Fault{m, kMuxPinB, true}));
  EXPECT_FALSE(an.observable(a));
  EXPECT_TRUE(an.observable(b));
}

TEST(Sta, TristateWithConstantEnable) {
  Netlist nl("tri_const_en");
  const GateId d = nl.add_input("d");
  const GateId c0 = nl.add_gate(GateType::Const0, {}, "c0");
  const GateId t = nl.add_gate(GateType::Tristate, {d, c0}, "t");
  const GateId bus = nl.add_gate(GateType::Bus, {t}, "bus");
  nl.add_output(bus, "z");
  const StaticAnalyzer an(nl);
  // enable const 0: the data pin can never reach the bus.
  EXPECT_TRUE(an.untestable(Fault{t, kTristatePinData, true}));
  EXPECT_FALSE(an.observable(d));
}

TEST(Sta, UntestableFaultsFilterMatchesPerFaultQueries) {
  const Netlist nl = make_classic_redundant();
  const StaticAnalyzer an(nl);
  const auto faults = enumerate_faults(nl);
  const auto untestable = an.untestable_faults(faults);
  EXPECT_FALSE(untestable.empty());
  std::size_t count = 0;
  for (const Fault& f : faults) count += an.untestable(f) ? 1 : 0;
  EXPECT_EQ(untestable.size(), count);
}

TEST(Sta, FullyTestableCircuitsPruneNothing) {
  for (const Netlist& nl : {make_c17(), make_ripple_adder(4)}) {
    const StaticAnalyzer an(nl);
    EXPECT_TRUE(an.untestable_faults(enumerate_faults(nl)).empty())
        << nl.name();
  }
}

// --- the soundness fuzzer ---------------------------------------------------

// Every fault sta calls untestable must come back Redundant from a PODEM
// search deep enough to be exhaustive. Random DAGs grow redundancies
// naturally (duplicate pins, reconvergence); the generator's parameters
// match the event-kernel fuzzer's.
TEST(StaFuzz, UntestableImpliesPodemRedundant) {
  std::mt19937_64 meta(2024);
  int total_untestable = 0;
  for (int round = 0; round < 50; ++round) {
    RandomCircuitSpec spec;
    spec.num_inputs = 6 + static_cast<int>(meta() % 10);
    spec.num_outputs = 3 + static_cast<int>(meta() % 6);
    spec.num_gates = 40 + static_cast<int>(meta() % 80);
    spec.max_fanin = 2 + static_cast<int>(meta() % 3);
    spec.seed = meta();
    const Netlist nl = make_random_combinational(spec);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + nl.name() + ")");

    const StaticAnalyzer an(nl);
    ASSERT_EQ(an.stats().status, guard::RunStatus::Completed);
    Podem podem(nl, 1000000000);  // effectively unlimited: verdicts exact
    for (const Fault& f : an.untestable_faults(enumerate_faults(nl))) {
      ++total_untestable;
      const AtpgOutcome out = podem.generate(f);
      ASSERT_EQ(out.status, AtpgStatus::Redundant)
          << fault_name(nl, f) << " claimed untestable but PODEM says "
          << (out.status == AtpgStatus::TestFound ? "TestFound" : "Aborted");
    }
  }
  // The corpus is only a meaningful soundness probe if it exercises the
  // claim; random DAGs with duplicate pins reliably produce redundancies.
  EXPECT_GT(total_untestable, 0);
}

// run_atpg classification must be bit-identical with the pre-pass on/off:
// same detected count, same redundant set, same tests. Backtracks are
// effectively unlimited so PODEM's own verdicts are exact (no aborts).
TEST(StaFuzz, AtpgPrePassPreservesClassification) {
  std::mt19937_64 meta(77);
  for (int round = 0; round < 8; ++round) {
    RandomCircuitSpec spec;
    spec.num_inputs = 8 + static_cast<int>(meta() % 8);
    spec.num_outputs = 4 + static_cast<int>(meta() % 4);
    spec.num_gates = 60 + static_cast<int>(meta() % 120);
    spec.max_fanin = 2 + static_cast<int>(meta() % 3);
    spec.seed = meta();
    const Netlist nl = make_random_combinational(spec);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + nl.name() + ")");
    const auto faults = enumerate_faults(nl);

    AtpgOptions opt;
    opt.backtrack_limit = 1000000000;
    opt.random_patterns = 128;
    opt.static_prune = false;
    const AtpgRun off = run_atpg(nl, faults, opt);
    opt.static_prune = true;
    const AtpgRun on = run_atpg(nl, faults, opt);

    ASSERT_TRUE(off.aborted.empty());
    ASSERT_TRUE(on.aborted.empty());
    EXPECT_EQ(off.detected, on.detected);
    EXPECT_EQ(sorted(off.redundant), sorted(on.redundant));
    EXPECT_EQ(off.tests, on.tests);
    EXPECT_EQ(off.fault_coverage(), on.fault_coverage());
    EXPECT_GE(on.statically_pruned, 0);
    EXPECT_EQ(off.statically_pruned, 0);
    // Pruning never increases search effort.
    EXPECT_LE(on.total_decisions, off.total_decisions);
  }
}

TEST(StaFuzz, Sn74181PrePassAgreesWithProvenRedundancies) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 100000;
  opt.static_prune = false;
  const AtpgRun off = run_atpg(nl, faults, opt);
  opt.static_prune = true;
  const AtpgRun on = run_atpg(nl, faults, opt);
  EXPECT_EQ(sorted(off.redundant), sorted(on.redundant));
  EXPECT_EQ(off.detected, on.detected);
  EXPECT_EQ(off.tests, on.tests);
}

// An expired budget must yield a sound partial: whatever was classified
// before the cutoff would also be claimed by the unbudgeted analyzer.
TEST(Sta, BudgetExpiryYieldsSoundPartial) {
  RandomCircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 1500;
  spec.seed = 5;
  const Netlist nl = make_random_combinational(spec);
  const StaticAnalyzer full(nl);

  StaOptions tight;
  tight.budget.set_deadline_ms(0);  // expires immediately
  const StaticAnalyzer partial(nl, tight);
  for (const Fault& f : enumerate_faults(nl)) {
    if (partial.untestable(f)) {
      EXPECT_TRUE(full.untestable(f)) << fault_name(nl, f);
    }
  }
}

TEST(Sta, LearningFindsMoreOrEqualConstants) {
  std::mt19937_64 meta(99);
  for (int round = 0; round < 10; ++round) {
    RandomCircuitSpec spec;
    spec.num_inputs = 6 + static_cast<int>(meta() % 6);
    spec.num_outputs = 4;
    spec.num_gates = 80;
    spec.max_fanin = 2 + static_cast<int>(meta() % 3);
    spec.seed = meta();
    const Netlist nl = make_random_combinational(spec);
    StaOptions no_learn;
    no_learn.learn = false;
    const StaticAnalyzer plain(nl, no_learn);
    const StaticAnalyzer learned(nl);
    EXPECT_GE(learned.stats().constants_found, plain.stats().constants_found)
        << nl.name();
    // Everything probing alone found, learning keeps.
    for (GateId g = 0; g < nl.size(); ++g) {
      if (plain.constant(g) != LineConst::Free) {
        EXPECT_EQ(learned.constant(g), plain.constant(g)) << g;
      }
    }
  }
}

TEST(Sta, RejectsCyclicNetlists) {
  Netlist nl("cyclic");
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::And, {a, a}, "g1");
  const GateId g2 = nl.add_gate(GateType::Or, {g1, a}, "g2");
  nl.set_fanin(g1, 1, g2);
  nl.add_output(g2, "z");
  EXPECT_THROW(StaticAnalyzer{nl}, std::runtime_error);
}

// --- pinned output -----------------------------------------------------------

// A random DAG over every gate kind the analyzer has rules for: inputs,
// constants, storage of all four kinds (D pins wired back from later
// nets), simple gates, Mux, Tristate drivers resolved by a Bus, and wide
// XOR/XNOR gates that read one net on 2 or 3 pins (so its parity share
// cancels or stays).
Netlist sta_mixed_dag(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  Netlist nl("sta_mixed" + std::to_string(seed));
  std::vector<GateId> drivers;
  const std::size_t inputs = 5 + pick(6);
  for (std::size_t i = 0; i < inputs; ++i) {
    drivers.push_back(nl.add_input("i" + std::to_string(i)));
  }
  if (pick(2) == 0) drivers.push_back(nl.add_gate(GateType::Const0, {}));
  if (pick(2) == 0) drivers.push_back(nl.add_gate(GateType::Const1, {}));
  const GateType kStorage[] = {GateType::Dff, GateType::ScanDff,
                               GateType::Srl, GateType::AddressableLatch};
  std::vector<GateId> storage;
  for (std::size_t i = pick(4); i > 0; --i) {
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
  const std::size_t gates = 40 + pick(60);
  for (std::size_t i = 0; i < gates; ++i) {
    const std::size_t kind = pick(16);
    if (kind < 8) {
      const GateType t = kSimple[kind];
      const std::size_t n = fanin_arity(t).max == 1 ? 1 : 1 + pick(4);
      std::vector<GateId> fin;
      for (std::size_t k = 0; k < n; ++k) fin.push_back(any());
      drivers.push_back(nl.add_gate(t, fin));
    } else if (kind < 11) {
      std::vector<GateId> fin;
      for (std::size_t k = 4 + pick(10); k > 0; --k) fin.push_back(any());
      const GateId twice = fin[pick(fin.size())];
      for (std::size_t k = 1 + pick(2); k > 0; --k) {
        fin.insert(fin.begin() + static_cast<std::ptrdiff_t>(
                                     pick(fin.size() + 1)),
                   twice);
      }
      drivers.push_back(nl.add_gate(
          pick(2) == 0 ? GateType::Xor : GateType::Xnor, fin));
    } else if (kind < 13) {
      drivers.push_back(nl.add_gate(GateType::Mux, {any(), any(), any()}));
    } else {
      std::vector<GateId> tri;
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
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

// Every circuit the pinned table below covers, in table order.
std::vector<std::pair<std::string, Netlist>> pinned_corpus() {
  std::vector<std::pair<std::string, Netlist>> out;
  RandomCircuitSpec rand1k;  // the atpg_rand1k benchmark circuit
  rand1k.num_inputs = 40;
  rand1k.num_outputs = 24;
  rand1k.num_gates = 1000;
  rand1k.max_fanin = 4;
  rand1k.seed = 1;
  out.emplace_back("rand1k", make_random_combinational(rand1k));
  for (const char* name :
       {"rand2k", "c17", "adder4", "adder8", "mult3", "dec3", "parity8",
        "mux3", "cmp4", "sn74181", "counter8", "accum4"}) {
    out.emplace_back(name, serve::builtin_circuit(name));
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    out.emplace_back("mixed" + std::to_string(seed), sta_mixed_dag(seed));
  }
  return out;
}

// FNV-1a over everything the analyzer answers: constant() and
// observable() of every gate, then untestable() of every collapsed fault.
std::uint64_t verdict_digest(const Netlist& nl, const StaticAnalyzer& an) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (GateId g = 0; g < nl.size(); ++g) {
    mix(static_cast<unsigned>(an.constant(g)));
    mix(an.observable(g) ? 1u : 0u);
  }
  for (const Fault& f : collapse_faults(nl).representatives) {
    mix(an.untestable(f) ? 1u : 0u);
  }
  return h;
}

struct PinnedAnalysis {
  std::string name;
  long long imply_calls;
  long long implications_learned;
  long long probe_work;
  int constants_found;
  int unobservable_gates;
  std::uint64_t digest;

  bool operator==(const PinnedAnalysis&) const = default;
};

// The analysis of one corpus circuit as a row of the table below.
PinnedAnalysis analyze(const std::string& name, const Netlist& nl) {
  const StaticAnalyzer an(nl);
  const sta::StaStats& s = an.stats();
  EXPECT_EQ(s.status, guard::RunStatus::Completed) << name;
  return {name,
          s.imply_calls,
          s.implications_learned,
          s.probe_work,
          s.constants_found,
          s.unobservable_gates,
          verdict_digest(nl, an)};
}

std::string row(const PinnedAnalysis& a) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %lld, %lld, %lld, %d, %d, 0x%016" PRIx64 "ULL},",
                a.name.c_str(), a.imply_calls, a.implications_learned,
                a.probe_work, a.constants_found, a.unobservable_gates,
                a.digest);
  return buf;
}

// Recorded from the analyzer before its probing loop gained the odd-driver
// lists, the early exits and the hash-free edge dedupe: the loop must
// derive exactly the same facts with exactly the same queue pops.
const PinnedAnalysis kPinned[] = {
    {"rand1k", 2700, 52014, 1075086, 347, 102, 0x1bd83334e815fa84ULL},
    {"rand2k", 5398, 65536, 2750942, 699, 191, 0x10f7547a48d6d0c6ULL},
    {"c17", 24, 7, 173, 0, 0, 0x5f4ae20d20edacfaULL},
    {"adder4", 80, 30, 494, 0, 0, 0x6e9c3f3d476c1285ULL},
    {"adder8", 160, 58, 990, 0, 0, 0x9d8d5c0974835f85ULL},
    {"mult3", 128, 196, 1971, 2, 0, 0x2f0059d3aae1958fULL},
    {"dec3", 44, 172, 1566, 0, 0, 0x3de220b4cbbdfc72ULL},
    {"parity8", 14, 0, 30, 0, 0, 0xe3bccf64bd8e84ddULL},
    {"mux3", 14, 0, 30, 0, 0, 0xef645f03b786b412ULL},
    {"cmp4", 144, 595, 6077, 3, 0, 0x9ad0c1b1d2561aaeULL},
    {"sn74181", 248, 485, 6035, 0, 0, 0x236a833408bb9b67ULL},
    {"counter8", 64, 185, 1262, 1, 2, 0x4673482927282f54ULL},
    {"accum4", 92, 42, 600, 3, 4, 0xd9f458133661a675ULL},
    {"mixed1", 262, 316, 4586, 4, 41, 0x67030dcfd3f9b320ULL},
    {"mixed2", 398, 795, 11326, 1, 57, 0xd54507db869e113eULL},
    {"mixed3", 264, 282, 4264, 0, 36, 0x35711c439973e1a9ULL},
    {"mixed4", 354, 497, 7228, 8, 69, 0x3179e2192f73ad92ULL},
    {"mixed5", 474, 1170, 18106, 11, 76, 0xa6ec6d3b5f1dec08ULL},
    {"mixed6", 400, 1437, 20128, 2, 49, 0x90fd7aba1f673c04ULL},
    {"mixed7", 228, 283, 4356, 3, 32, 0xdfe70da75c6c76abULL},
    {"mixed8", 204, 331, 4653, 19, 29, 0x3c6aac03bd60e385ULL},
    {"mixed9", 532, 882, 15184, 5, 60, 0xb59f2aa76f0135a0ULL},
    {"mixed10", 284, 407, 5781, 12, 24, 0xaee4c9725422fbbaULL},
    {"mixed11", 388, 1080, 13053, 3, 64, 0xdf67527e4cd58ff2ULL},
    {"mixed12", 314, 347, 5801, 10, 40, 0x811a66c94ed4be94ULL},
    {"mixed13", 204, 264, 4000, 0, 25, 0x64330529b07fa861ULL},
    {"mixed14", 450, 722, 10217, 6, 54, 0x17fd33665c5c1d91ULL},
    {"mixed15", 432, 431, 7914, 10, 42, 0xdc10460d62983e07ULL},
    {"mixed16", 238, 803, 10698, 16, 36, 0x861b236ab87551bdULL},
    {"mixed17", 212, 595, 7591, 9, 36, 0x84d1ce4461954fcdULL},
    {"mixed18", 340, 696, 8606, 10, 49, 0xf6a3ec373d9193ffULL},
    {"mixed19", 226, 201, 3465, 3, 33, 0xaf39cf9e6d26bed8ULL},
    {"mixed20", 268, 482, 6528, 4, 48, 0xe8f428e7954a4295ULL},
    {"mixed21", 350, 309, 5469, 21, 59, 0x4e6880bfccd4186bULL},
    {"mixed22", 440, 517, 8332, 14, 70, 0x77fe128ec88b721bULL},
    {"mixed23", 280, 152, 3000, 4, 38, 0xe07103feb04c1865ULL},
    {"mixed24", 358, 748, 11234, 11, 72, 0xb805ef109a899767ULL},
    {"mixed25", 362, 397, 6467, 6, 52, 0x4ce7ec1236677e7eULL},
    {"mixed26", 376, 638, 7984, 12, 56, 0xfd8ff2768b27e8a3ULL},
    {"mixed27", 286, 448, 6896, 3, 34, 0xfc8f404d4dbbc110ULL},
    {"mixed28", 338, 1044, 14709, 6, 37, 0xdbfa15ac2da17e84ULL},
    {"mixed29", 486, 910, 11897, 6, 64, 0x49f566dd361e5a4eULL},
    {"mixed30", 486, 1199, 16079, 13, 75, 0xfb9fab6ce061947cULL},
};

TEST(StaPinned, EveryCircuitAnalyzesExactlyAsRecorded) {
  const auto corpus = pinned_corpus();
  ASSERT_EQ(corpus.size(), std::size(kPinned));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const PinnedAnalysis got = analyze(corpus[i].first, corpus[i].second);
    EXPECT_TRUE(got == kPinned[i]) << "recorded " << row(kPinned[i]) << "\n"
                                   << "     got " << row(got);
  }
}

}  // namespace
}  // namespace dft
