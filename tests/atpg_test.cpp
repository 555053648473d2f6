// Tests for the D-calculus, PODEM, the D-algorithm, random TPG, compaction,
// and the full ATPG engine -- including the key soundness properties:
//   * every generated cube actually detects its target fault (checked with
//     the independent serial fault simulator);
//   * "Redundant" verdicts are true (brute-force exhaustive check on small
//     circuits);
//   * PODEM and the D-algorithm agree on testability.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "atpg/compact.h"
#include "atpg/d_algorithm.h"
#include "atpg/dvalue.h"
#include "atpg/engine.h"
#include "atpg/podem.h"
#include "atpg/random_tpg.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "netlist/bench_io.h"
#include "scan/scan_insert.h"
#include "sim/eval.h"

namespace dft {
namespace {

// Brute-force testability on small combinational circuits.
bool exhaustively_testable(const Netlist& nl, const Fault& f) {
  SerialFaultSimulator fsim(nl);
  const std::size_t ns = source_count(nl);
  EXPECT_LE(ns, 20u);
  for (std::uint64_t v = 0; v < (1ull << ns); ++v) {
    SourceVector pat(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      pat[i] = to_logic((v >> i) & 1);
    }
    if (fsim.detects(pat, f)) return true;
  }
  return false;
}

TEST(DValue, ComposeAndProjectRoundTrip) {
  EXPECT_EQ(compose(Logic::One, Logic::Zero), DVal::D);
  EXPECT_EQ(compose(Logic::Zero, Logic::One), DVal::Dbar);
  EXPECT_EQ(good_of(DVal::D), Logic::One);
  EXPECT_EQ(faulty_of(DVal::D), Logic::Zero);
  EXPECT_EQ(dval_not(DVal::D), DVal::Dbar);
}

TEST(DValue, AndOrTables) {
  EXPECT_EQ(dval_and(DVal::D, DVal::One), DVal::D);
  EXPECT_EQ(dval_and(DVal::D, DVal::Zero), DVal::Zero);
  EXPECT_EQ(dval_and(DVal::D, DVal::Dbar), DVal::Zero);
  EXPECT_EQ(dval_and(DVal::D, DVal::D), DVal::D);
  EXPECT_EQ(dval_or(DVal::Dbar, DVal::Zero), DVal::Dbar);
  EXPECT_EQ(dval_or(DVal::D, DVal::Dbar), DVal::One);
  EXPECT_EQ(dval_xor(DVal::D, DVal::D), DVal::Zero);
  EXPECT_EQ(dval_xor(DVal::D, DVal::One), DVal::Dbar);
  EXPECT_EQ(dval_and(DVal::D, DVal::X), DVal::X);
}

TEST(DValue, DualRailFoldMatchesPerMachineEvaluation) {
  // Every combinational gate type, every legal fan-in 1..4 and all 5^n
  // input combinations: the dual-rail fold must equal evaluating the good
  // and the faulty machine separately.
  using G = GateType;
  const DVal kAll[] = {DVal::Zero, DVal::One, DVal::X, DVal::D, DVal::Dbar};
  int checked = 0;
  for (G t : {G::Output, G::Buf, G::Not, G::And, G::Nand, G::Or, G::Nor,
              G::Xor, G::Xnor, G::Mux, G::Tristate, G::Bus}) {
    const FaninArity arity = fanin_arity(t);
    for (int n = std::max(1, arity.min);
         n <= (arity.max < 0 ? 4 : std::min(4, arity.max)); ++n) {
      int combos = 1;
      for (int i = 0; i < n; ++i) combos *= 5;
      for (int code = 0; code < combos; ++code) {
        std::vector<DVal> in;
        std::vector<Logic> goods, faultys;
        for (int i = 0, c = code; i < n; ++i, c /= 5) {
          in.push_back(kAll[c % 5]);
          goods.push_back(good_of(in.back()));
          faultys.push_back(faulty_of(in.back()));
        }
        // Tri-state drivers and buses follow the pull-down model of the
        // two-valued simulators in each machine: data AND enable, and the
        // OR of the drivers.
        const auto eval_machine = [&](const std::vector<Logic>& v) {
          if (t == G::Tristate) {
            return logic_and(v[kTristatePinData], v[kTristatePinEnable]);
          }
          if (t == G::Bus) {
            Logic r = Logic::Zero;
            for (Logic l : v) r = logic_or(r, l);
            return r;
          }
          return eval_gate(t, v);
        };
        const DVal want = compose(eval_machine(goods), eval_machine(faultys));
        std::string pins;
        for (DVal d : in) pins += to_char(d);
        ASSERT_EQ(eval_gate_dval(t, in), want)
            << gate_type_name(t) << "(" << pins << ")";
        ++checked;
      }
    }
  }
  // 3 one-pin types, 7 variadic types over n = 1..4, Mux, Tristate.
  EXPECT_EQ(checked, 3 * 5 + 7 * (5 + 25 + 125 + 625) + 125 + 25);
}

TEST(Podem, FindsTheFig1Test) {
  const Netlist nl = make_fig1_and();
  Podem podem(nl);
  const GateId a = *nl.find("a");
  const AtpgOutcome out = podem.generate({a, -1, true});
  ASSERT_EQ(out.status, AtpgStatus::TestFound);
  // The unique test for a/1 is A=0, B=1.
  EXPECT_EQ(out.pattern[0], Logic::Zero);
  EXPECT_EQ(out.pattern[1], Logic::One);
}

TEST(Podem, EveryC17FaultGetsAVerifiedTest) {
  const Netlist nl = make_c17();
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(3);
  for (const Fault& f : enumerate_faults(nl)) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound) << fault_name(nl, f);
    SourceVector pat = out.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(Podem, CubesDetectUnderAnyFill) {
  // A PODEM cube guarantees detection for every completion of its X values.
  const Netlist nl = make_c17();
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  const auto faults = collapse_faults(nl).representatives;
  for (const Fault& f : faults) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound);
    // Try all completions (c17 has 5 inputs).
    std::vector<std::size_t> free_idx;
    for (std::size_t i = 0; i < out.pattern.size(); ++i) {
      if (!is_binary(out.pattern[i])) free_idx.push_back(i);
    }
    for (std::uint64_t v = 0; v < (1ull << free_idx.size()); ++v) {
      SourceVector pat = out.pattern;
      for (std::size_t k = 0; k < free_idx.size(); ++k) {
        pat[free_idx[k]] = to_logic((v >> k) & 1);
      }
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    }
  }
}

TEST(Podem, ProvesRedundancyInRedundantCircuit) {
  // y = (a AND b) OR (a AND NOT b) has a redundant fault: the OR output
  // cannot be... actually use the classic redundancy: z = a AND (b OR NOT b).
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(z)
nb = NOT(b)
t = OR(b, nb)
z = AND(a, t)
)";
  const Netlist nl = read_bench_string(text);
  Podem podem(nl);
  // t is always 1: t/1 is undetectable.
  const AtpgOutcome out = podem.generate({*nl.find("t"), -1, true});
  EXPECT_EQ(out.status, AtpgStatus::Redundant);
  EXPECT_FALSE(exhaustively_testable(nl, {*nl.find("t"), -1, true}));
  // But t/0 is testable.
  const AtpgOutcome out2 = podem.generate({*nl.find("t"), -1, false});
  EXPECT_EQ(out2.status, AtpgStatus::TestFound);
}

TEST(Podem, VerdictMatchesBruteForceOnRandomCircuits) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    RandomCircuitSpec spec;
    spec.num_inputs = 8;
    spec.num_outputs = 4;
    spec.num_gates = 60;
    spec.seed = seed;
    const Netlist nl = make_random_combinational(spec);
    Podem podem(nl);
    SerialFaultSimulator fsim(nl);
    std::mt19937_64 rng(seed);
    for (const Fault& f : collapse_faults(nl).representatives) {
      const AtpgOutcome out = podem.generate(f);
      ASSERT_NE(out.status, AtpgStatus::Aborted) << fault_name(nl, f);
      const bool testable = exhaustively_testable(nl, f);
      EXPECT_EQ(out.status == AtpgStatus::TestFound, testable)
          << fault_name(nl, f) << " seed " << seed;
      if (out.status == AtpgStatus::TestFound) {
        SourceVector pat = out.pattern;
        random_fill(pat, rng);
        EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
      }
    }
  }
}

TEST(Podem, ProvesThe74181CarryChainRedundancies) {
  // The ten random-resistant faults of the expanded carry-lookahead are
  // genuinely redundant (see fault_test): PODEM must prove every one.
  const Netlist nl = make_sn74181();
  Podem podem(nl, 100000);
  int redundant = 0, found = 0, aborted = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    switch (podem.generate(f).status) {
      case AtpgStatus::Redundant: ++redundant; break;
      case AtpgStatus::TestFound: ++found; break;
      case AtpgStatus::Aborted: ++aborted; break;
    }
  }
  EXPECT_EQ(aborted, 0);
  EXPECT_EQ(redundant, 10);
  EXPECT_EQ(found, 225);
}

TEST(Podem, HandlesMuxAndSequentialCaptureModel) {
  const Netlist nl = make_mux_tree(3);
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(5);
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound) << fault_name(nl, f);
    SourceVector pat = out.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(DAlgorithm, AgreesWithPodemOnC17) {
  const Netlist nl = make_c17();
  Podem podem(nl);
  DAlgorithm dalg(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(7);
  for (const Fault& f : enumerate_faults(nl)) {
    const AtpgOutcome po = podem.generate(f);
    const AtpgOutcome da = dalg.generate(f);
    ASSERT_EQ(da.status, AtpgStatus::TestFound) << fault_name(nl, f);
    ASSERT_EQ(po.status, da.status);
    SourceVector pat = da.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(DAlgorithm, VerifiedTestsOnRandomBasicCircuits) {
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_gates = 60;
  spec.seed = 77;
  const Netlist nl = make_random_combinational(spec);
  DAlgorithm dalg(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(9);
  int found = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome out = dalg.generate(f);
    ASSERT_NE(out.status, AtpgStatus::Aborted) << fault_name(nl, f);
    EXPECT_EQ(out.status == AtpgStatus::TestFound,
              exhaustively_testable(nl, f))
        << fault_name(nl, f);
    if (out.status == AtpgStatus::TestFound) {
      ++found;
      SourceVector pat = out.pattern;
      random_fill(pat, rng);
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    }
  }
  EXPECT_GT(found, 0);
}

TEST(DAlgorithm, AgreesWithPodemOn74181IncludingRedundancies) {
  // The 74181 is pure basic-gate logic, so the D-algorithm applies; its
  // verdicts must match PODEM's on every collapsed fault -- including the
  // ten provably redundant carry-lookahead faults.
  const Netlist nl = make_sn74181();
  Podem podem(nl, 200000);
  DAlgorithm dalg(nl, 200000);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(13);
  int redundant = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome po = podem.generate(f);
    const AtpgOutcome da = dalg.generate(f);
    ASSERT_NE(po.status, AtpgStatus::Aborted) << fault_name(nl, f);
    ASSERT_NE(da.status, AtpgStatus::Aborted) << fault_name(nl, f);
    ASSERT_EQ(po.status, da.status) << fault_name(nl, f);
    if (da.status == AtpgStatus::TestFound) {
      SourceVector pat = da.pattern;
      random_fill(pat, rng);
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    } else {
      ++redundant;
    }
  }
  EXPECT_EQ(redundant, 10);
}

TEST(DAlgorithm, RejectsMuxCircuits) {
  const Netlist nl = make_mux_tree(2);
  EXPECT_THROW(DAlgorithm dalg(nl), std::invalid_argument);
}

TEST(RandomTpg, ReachesHighCoverageOnParityTree) {
  // XOR trees are ideal for random patterns: every fault has detection
  // probability >= 1/4.
  const Netlist nl = make_parity_tree(16);
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = 512;
  const RandomTpgResult res = random_tpg(nl, faults, opt);
  EXPECT_EQ(res.num_detected, static_cast<int>(faults.size()));
  EXPECT_LT(res.kept_patterns.size(), 40u);  // dropping keeps the set small
}

TEST(RandomTpg, AdaptiveBeatsPlainOnHighFaninAnd) {
  // A 12-input AND: output/1 pin faults need all-ones -- probability 2^-12
  // per balanced pattern. Weighted profiles find it quickly.
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 12; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const GateId g = nl.add_gate(GateType::And, ins, "g");
  nl.add_output(g, "o");
  const auto faults = collapse_faults(nl).representatives;

  RandomTpgOptions plain;
  plain.max_patterns = 1024;
  plain.stall_blocks = 1000;
  plain.seed = 19;
  RandomTpgOptions weighted = plain;
  weighted.adaptive = true;
  const auto rp = random_tpg(nl, faults, plain);
  const auto rw = random_tpg(nl, faults, weighted);
  EXPECT_GE(rw.num_detected, rp.num_detected);
  EXPECT_EQ(rw.num_detected, static_cast<int>(faults.size()));
}

TEST(Compaction, MergesCompatibleCubes) {
  const SourceVector a = {Logic::One, Logic::X, Logic::Zero};
  const SourceVector b = {Logic::X, Logic::One, Logic::Zero};
  const SourceVector c = {Logic::Zero, Logic::X, Logic::X};
  EXPECT_TRUE(cubes_compatible(a, b));
  EXPECT_FALSE(cubes_compatible(a, c));
  const auto merged = merge_compatible({a, b, c});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0][0], Logic::One);
  EXPECT_EQ(merged[0][1], Logic::One);
}

TEST(Compaction, DropRedundantKeepsCoverage) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(21);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 64; ++i) pats.push_back(random_source_vector(nl, rng));
  ParallelFaultSimulator fsim(nl);
  const double before = fsim.run(pats, faults).coverage();
  const auto compacted = drop_redundant_patterns(nl, faults, pats);
  const double after = fsim.run(compacted, faults).coverage();
  EXPECT_EQ(before, after);
  EXPECT_LT(compacted.size(), pats.size());
}

TEST(Engine, FullCoverageOnC17AndAdder) {
  for (const Netlist& nl : {make_c17(), make_ripple_adder(4)}) {
    const auto faults = collapse_faults(nl).representatives;
    const AtpgRun run = run_atpg(nl, faults);
    EXPECT_EQ(run.aborted.size(), 0u);
    EXPECT_EQ(run.redundant.size(), 0u);
    EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0) << nl.name();
    EXPECT_FALSE(run.tests.empty());
  }
}

TEST(Engine, CompleteTestCoverageOn74181WithRedundanciesProven) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 100000;
  const AtpgRun run = run_atpg(nl, faults, opt);
  EXPECT_EQ(run.aborted.size(), 0u);
  EXPECT_EQ(run.redundant.size(), 10u);
  EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0);
  EXPECT_NEAR(run.fault_coverage(), 225.0 / 235.0, 1e-12);
}

TEST(Engine, CoversSequentialCircuitUnderScanModel) {
  const Netlist nl = make_accumulator(4);
  const auto faults = collapse_faults(nl).representatives;
  const AtpgRun run = run_atpg(nl, faults);
  EXPECT_EQ(run.aborted.size(), 0u);
  EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0);
}

TEST(Engine, CompactionShrinksTestSet) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions with, without;
  with.compact = true;
  without.compact = false;
  with.backtrack_limit = without.backtrack_limit = 100000;
  const AtpgRun a = run_atpg(nl, faults, with);
  const AtpgRun b = run_atpg(nl, faults, without);
  EXPECT_LE(a.tests.size(), b.tests.size());
  EXPECT_DOUBLE_EQ(a.test_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(b.test_coverage(), 1.0);
}

TEST(Podem, VerdictMatchesBruteForceOnBuiltinsWithConstants) {
  // cmp4 seeds its ripple with constant gates and mul3 ties off a partial
  // product with one; stuck-at faults on those constants are detectable and
  // must not be proven redundant.
  for (const Netlist& nl : {make_comparator(4), make_array_multiplier(3)}) {
    Podem podem(nl, 1000000);
    SerialFaultSimulator fsim(nl);
    std::mt19937_64 rng(17);
    for (const Fault& f : collapse_faults(nl).representatives) {
      const AtpgOutcome out = podem.generate(f);
      ASSERT_NE(out.status, AtpgStatus::Aborted) << fault_name(nl, f);
      EXPECT_EQ(out.status == AtpgStatus::TestFound,
                exhaustively_testable(nl, f))
          << nl.name() << " " << fault_name(nl, f);
      if (out.status == AtpgStatus::TestFound) {
        SourceVector pat = out.pattern;
        random_fill(pat, rng);
        EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
      }
    }
  }
}

// A random DAG over the gates that produce or resolve Z -- Mux, Tristate
// and Bus -- mixed with basic gates and constant drivers.
Netlist make_random_bus_circuit(std::uint64_t seed) {
  using G = GateType;
  const G kSimple[] = {G::Buf, G::Not, G::And, G::Nand, G::Or,
                       G::Nor, G::Xor, G::Xnor, G::Mux};
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  Netlist nl("rand_bus");
  std::vector<GateId> nets;
  for (int i = 0; i < 10; ++i) nets.push_back(nl.add_input());
  nets.push_back(nl.add_gate(G::Const0, {}));
  nets.push_back(nl.add_gate(G::Const1, {}));
  for (int i = 0; i < 80; ++i) {
    if (pick(6) == 0) {  // a tri-state bus with 1..3 drivers
      std::vector<GateId> drivers;
      for (std::size_t d = 0, k = 1 + pick(3); d < k; ++d) {
        drivers.push_back(nl.add_gate(
            G::Tristate, {nets[pick(nets.size())], nets[pick(nets.size())]}));
      }
      nets.push_back(nl.add_gate(G::Bus, drivers));
      continue;
    }
    const G t = kSimple[pick(std::size(kSimple))];
    const FaninArity arity = fanin_arity(t);
    const std::size_t n =
        arity.max < 0 ? 1 + pick(4) : static_cast<std::size_t>(arity.max);
    std::vector<GateId> fin;
    for (std::size_t k = 0; k < n; ++k) fin.push_back(nets[pick(nets.size())]);
    nets.push_back(nl.add_gate(t, fin));
  }
  for (int i = 0; i < 8; ++i) nl.add_output(nets[nets.size() - 1 - pick(30)]);
  return nl;
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One digest of a whole PODEM run: for every collapsed fault, in order, the
// fault, its status, its cube and its decision/backtrack/implication counts.
// Output faults on constant gates are left out: their verdicts were fixed
// on purpose (see VerdictMatchesBruteForceOnBuiltinsWithConstants).
std::uint64_t podem_search_digest(const Netlist& nl, int backtrack_limit) {
  Podem podem(nl, backtrack_limit);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Fault& f : collapse_faults(nl).representatives) {
    const GateType t = nl.type(f.gate);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    const AtpgOutcome out = podem.generate(f);
    h = fnv1a_mix(h, f.gate);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(f.pin + 1));
    h = fnv1a_mix(h, f.sa1 ? 1 : 0);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(out.status));
    for (Logic v : out.pattern) h = fnv1a_mix(h, static_cast<std::uint64_t>(v));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(out.decisions));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(out.backtracks));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(out.implications));
  }
  return h;
}

TEST(Podem, SearchMatchesPinnedDigests) {
  // Implication is an optimisation, never a change of search: every
  // decision, backtrack, implication count and cube must match the digests
  // recorded from the full-netlist reference implementation.
  std::vector<std::pair<std::string, Netlist>> corpus;
  corpus.emplace_back("c17", make_c17());
  corpus.emplace_back("adder4", make_ripple_adder(4));
  corpus.emplace_back("adder8", make_ripple_adder(8));
  corpus.emplace_back("mult3", make_array_multiplier(3));
  corpus.emplace_back("dec3", make_decoder(3));
  corpus.emplace_back("parity8", make_parity_tree(8));
  corpus.emplace_back("mux3", make_mux_tree(3));
  corpus.emplace_back("cmp4", make_comparator(4));
  corpus.emplace_back("sn74181", make_sn74181());
  corpus.emplace_back("counter8", make_counter(8));
  corpus.emplace_back("accum4", make_accumulator(4));
  Netlist scanned = make_counter(8);
  insert_scan(scanned, ScanStyle::ScanPath);
  corpus.emplace_back("counter8+scan", std::move(scanned));
  for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    RandomCircuitSpec spec;
    spec.num_inputs = 16;
    spec.num_outputs = 8;
    spec.num_gates = 200;
    spec.seed = seed;
    corpus.emplace_back("rand200_" + std::to_string(seed),
                        make_random_combinational(spec));
  }
  corpus.emplace_back("rand_bus", make_random_bus_circuit(5));

  struct Pinned {
    const char* name;
    std::uint64_t limit100;
    std::uint64_t limit20000;
  };
  const Pinned kPinned[] = {
      {"c17", 0xf2fa916a24717763, 0xf2fa916a24717763},
      {"adder4", 0xa858219b2e48dd24, 0xa858219b2e48dd24},
      {"adder8", 0x5e034af083ae5124, 0x5e034af083ae5124},
      {"mult3", 0x43a146188192b0e2, 0x43a146188192b0e2},
      {"dec3", 0xa0f4ae016cf21c45, 0xa0f4ae016cf21c45},
      {"parity8", 0xe38589922815f6c5, 0xe38589922815f6c5},
      {"mux3", 0x7af5c5a505e93005, 0x7af5c5a505e93005},
      {"cmp4", 0xfa7f077f6a60ab69, 0xfa7f077f6a60ab69},
      {"sn74181", 0xdc660d6a87b00542, 0xdc660d6a87b00542},
      {"counter8", 0xaafea63c4285fd2b, 0xaafea63c4285fd2b},
      {"accum4", 0x9fba552580c292d4, 0x9fba552580c292d4},
      {"counter8+scan", 0xa49808b363876c4a, 0xa49808b363876c4a},
      {"rand200_21", 0x13d330a39010bd79, 0xb86c4033edd92ba4},
      {"rand200_22", 0xd7baefb2ee7ef4d3, 0x13c08b25547fd05b},
      {"rand200_23", 0xa2f49e5a8a4000c9, 0x4b74c9c4303a1c93},
      {"rand200_24", 0xe3cdb362736021fa, 0x2a6dba360ec853a9},
      {"rand_bus", 0xd55f4d294d1b8b32, 0xd55f4d294d1b8b32},
  };
  ASSERT_EQ(std::size(kPinned), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& [name, nl] = corpus[i];
    ASSERT_EQ(name, kPinned[i].name);
    const std::uint64_t d100 = podem_search_digest(nl, 100);
    const std::uint64_t d20000 = podem_search_digest(nl, 20000);
    EXPECT_EQ(d100, kPinned[i].limit100) << name << " @100: 0x" << std::hex
                                         << d100;
    EXPECT_EQ(d20000, kPinned[i].limit20000)
        << name << " @20000: 0x" << std::hex << d20000;
  }
}

}  // namespace
}  // namespace dft
