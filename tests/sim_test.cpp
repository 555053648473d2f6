// Unit tests for the combinational, sequential, and bit-parallel simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "circuits/basic.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/bench_io.h"
#include "obs/obs.h"
#include "sim/comb_sim.h"
#include "sim/eval.h"
#include "sim/parallel_sim.h"
#include "sim/seq_sim.h"
#include "sim/simd.h"

namespace dft {
namespace {

using G = GateType;

TEST(EvalGate, CoversGateTable) {
  const Logic v0 = Logic::Zero, v1 = Logic::One, vx = Logic::X, vz = Logic::Z;
  {
    const Logic in[] = {v1, v1, v0};
    EXPECT_EQ(eval_gate(G::And, {in, 3}), v0);
    EXPECT_EQ(eval_gate(G::Nand, {in, 3}), v1);
    EXPECT_EQ(eval_gate(G::Or, {in, 3}), v1);
    EXPECT_EQ(eval_gate(G::Nor, {in, 3}), v0);
    EXPECT_EQ(eval_gate(G::Xor, {in, 3}), v0);
    EXPECT_EQ(eval_gate(G::Xnor, {in, 3}), v1);
  }
  {
    const Logic in[] = {vx, v0};
    EXPECT_EQ(eval_gate(G::And, {in, 2}), v0);   // controlling 0 dominates X
    EXPECT_EQ(eval_gate(G::Or, {in, 2}), vx);
    EXPECT_EQ(eval_gate(G::Xor, {in, 2}), vx);
  }
  {
    const Logic in[] = {vz};
    EXPECT_EQ(eval_gate(G::Buf, {in, 1}), vx);  // floating input reads X
  }
}

TEST(EvalGate, MuxSelectsAndHandlesUnknownSelect) {
  const Logic a0b1x[] = {Logic::Zero, Logic::One, Logic::X};
  EXPECT_EQ(eval_gate(G::Mux, {a0b1x, 3}), Logic::X);
  const Logic both1[] = {Logic::One, Logic::One, Logic::X};
  EXPECT_EQ(eval_gate(G::Mux, {both1, 3}), Logic::One);  // X-select, a==b
  const Logic sel1[] = {Logic::Zero, Logic::One, Logic::One};
  EXPECT_EQ(eval_gate(G::Mux, {sel1, 3}), Logic::One);
}

TEST(EvalGate, TristateAndBusResolve) {
  const Logic drive1[] = {Logic::One, Logic::One};
  EXPECT_EQ(eval_gate(G::Tristate, {drive1, 2}), Logic::One);
  const Logic off[] = {Logic::One, Logic::Zero};
  EXPECT_EQ(eval_gate(G::Tristate, {off, 2}), Logic::Z);

  const Logic zz1[] = {Logic::Z, Logic::Z, Logic::One};
  EXPECT_EQ(eval_gate(G::Bus, {zz1, 3}), Logic::One);
  const Logic zz[] = {Logic::Z, Logic::Z};
  EXPECT_EQ(eval_gate(G::Bus, {zz, 2}), Logic::Z);
  const Logic conflict[] = {Logic::One, Logic::Zero};
  EXPECT_EQ(eval_gate(G::Bus, {conflict, 2}), Logic::X);
}

TEST(CombSim, EvaluatesFig1AndGate) {
  // Fig. 1(a): the good machine. Pattern A=0 B=1 gives C=0.
  const Netlist nl = make_fig1_and();
  CombSim sim(nl);
  sim.set_inputs({Logic::Zero, Logic::One});
  sim.evaluate();
  EXPECT_EQ(sim.output_values()[0], Logic::Zero);
}

TEST(CombSim, Fig1StuckAt1FaultFlipsOutput) {
  // Fig. 1(b): input A s-a-1 makes the same pattern read C=1.
  const Netlist nl = make_fig1_and();
  CombSim sim(nl);
  const GateId c = *nl.find("c");
  sim.set_stuck({c, 0, Logic::One});  // pin A of the AND gate
  sim.set_inputs({Logic::Zero, Logic::One});
  sim.evaluate();
  EXPECT_EQ(sim.output_values()[0], Logic::One);
}

TEST(CombSim, InputPinFaultDoesNotAffectOtherFanouts) {
  // A stuck input pin is local to the gate that perceives it (Fig. 1 text).
  const char* text = R"(
INPUT(a)
OUTPUT(y1)
OUTPUT(y2)
y1 = BUF(a)
y2 = BUF(a)
)";
  const Netlist nl = read_bench_string(text);
  CombSim sim(nl);
  sim.set_stuck({*nl.find("y1"), 0, Logic::One});
  sim.set_inputs({Logic::Zero});
  sim.evaluate();
  EXPECT_EQ(sim.value(*nl.find("y1")), Logic::One);
  EXPECT_EQ(sim.value(*nl.find("y2")), Logic::Zero);
}

TEST(CombSim, OutputStuckAffectsAllFanouts) {
  const char* text = R"(
INPUT(a)
OUTPUT(y1)
OUTPUT(y2)
n = BUF(a)
y1 = BUF(n)
y2 = NOT(n)
)";
  const Netlist nl = read_bench_string(text);
  CombSim sim(nl);
  sim.set_stuck({*nl.find("n"), -1, Logic::One});
  sim.set_inputs({Logic::Zero});
  sim.evaluate();
  EXPECT_EQ(sim.value(*nl.find("y1")), Logic::One);
  EXPECT_EQ(sim.value(*nl.find("y2")), Logic::Zero);
}

TEST(CombSim, StuckOnPrimaryInputForcesSource) {
  const Netlist nl = make_fig1_and();
  CombSim sim(nl);
  const GateId a = *nl.find("a");
  sim.set_stuck({a, -1, Logic::One});
  sim.set_inputs({Logic::Zero, Logic::One});
  sim.evaluate();
  EXPECT_EQ(sim.output_values()[0], Logic::One);
}

TEST(CombSim, UnsetInputsReadX) {
  const Netlist nl = make_fig1_and();
  CombSim sim(nl);
  sim.evaluate();
  EXPECT_EQ(sim.output_values()[0], Logic::X);
}

// The compiled program's dual-rail fold (and the eval_gate runs beside it)
// against the definition: every combinational gate type at every legal
// fan-in 1..4, on all 4^n input combinations including Z.
TEST(CombSim, MatchesEvalGateOnEveryInputCombination) {
  const Logic kAll[] = {Logic::Zero, Logic::One, Logic::X, Logic::Z};
  for (G t : {G::Output, G::Buf, G::Not, G::And, G::Nand, G::Or, G::Nor,
              G::Xor, G::Xnor, G::Mux, G::Tristate, G::Bus}) {
    const FaninArity arity = fanin_arity(t);
    const int hi = arity.max < 0 ? 4 : std::min(arity.max, 4);
    for (int n = std::max(arity.min, 1); n <= hi; ++n) {
      Netlist nl;
      std::vector<GateId> ins;
      for (int i = 0; i < n; ++i) ins.push_back(nl.add_input());
      const GateId g = nl.add_gate(t, ins);
      CombSim sim(nl);
      std::vector<Logic> in(static_cast<std::size_t>(n));
      for (int code = 0; code < (1 << (2 * n)); ++code) {
        for (int i = 0; i < n; ++i) in[i] = kAll[(code >> (2 * i)) & 3];
        sim.set_inputs(in);
        sim.evaluate();
        ASSERT_EQ(sim.value(g), eval_gate(t, in))
            << gate_type_name(t) << " fan-in " << n << " code " << code;
      }
    }
  }
}

// Reference for the differential test below: Netlist::topo_order() walked
// with eval_gate, the stuck site applied exactly as CombSim documents it.
std::vector<Logic> reference_eval(const Netlist& nl, std::vector<Logic> v,
                                  const std::optional<StuckSite>& stuck) {
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.type(g) == G::Const0) v[g] = Logic::Zero;
    if (nl.type(g) == G::Const1) v[g] = Logic::One;
  }
  if (stuck && stuck->pin < 0 && !is_combinational(nl.type(stuck->gate))) {
    v[stuck->gate] = stuck->value;
  }
  for (GateId g : nl.topo_order()) {
    std::vector<Logic> in;
    for (GateId f : nl.fanin(g)) in.push_back(v[f]);
    const bool here = stuck && stuck->gate == g;
    if (here && stuck->pin >= 0) in[stuck->pin] = stuck->value;
    v[g] = here && stuck->pin < 0 ? stuck->value : eval_gate(nl.type(g), in);
  }
  return v;
}

// Random DAGs with constants, storage outputs, every simple gate type,
// muxes and tri-state buses; random {0,1,X,Z} sources and random stuck
// sites (pin and output faults, on sources and constants too). Every net
// must match the reference after every pass.
TEST(CombSim, MatchesReferenceOnRandomDagsWithFaults) {
  const Logic kAll[] = {Logic::Zero, Logic::One, Logic::X, Logic::Z};
  const G kSimple[] = {G::Buf, G::Not, G::And, G::Nand, G::Or,
                       G::Nor, G::Xor, G::Xnor, G::Mux};
  std::mt19937_64 rng(2024);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int circuit = 0; circuit < 150; ++circuit) {
    Netlist nl;
    std::vector<GateId> nets;
    for (int i = 0; i < 6; ++i) nets.push_back(nl.add_input());
    nets.push_back(nl.add_gate(G::Const0, {}));
    nets.push_back(nl.add_gate(G::Const1, {}));
    for (int i = 0; i < 2; ++i) {
      nets.push_back(nl.add_gate(G::Dff, {nets[pick(nets.size())]}));
    }
    for (int i = 0; i < 40; ++i) {
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
      for (std::size_t k = 0; k < n; ++k) {
        fin.push_back(nets[pick(nets.size())]);
      }
      nets.push_back(nl.add_gate(t, fin));
    }
    for (int i = 0; i < 4; ++i) nl.add_output(nets[nets.size() - 1 - pick(20)]);

    CombSim sim(nl);
    for (int pattern = 0; pattern < 12; ++pattern) {
      std::vector<Logic> v(nl.size(), Logic::X);
      for (GateId g : nl.inputs()) v[g] = kAll[pick(4)];
      for (GateId g : nl.storage()) v[g] = kAll[pick(4)];
      std::optional<StuckSite> stuck;
      if (pattern % 4 != 0) {
        const GateId g = static_cast<GateId>(pick(nl.size()));
        const std::size_t pins = nl.fanin(g).size();
        const int pin =
            pins == 0 || pick(3) == 0 ? -1 : static_cast<int>(pick(pins));
        stuck = StuckSite{g, pin, pick(2) ? Logic::One : Logic::Zero};
        sim.set_stuck(*stuck);
      } else {
        sim.clear_stuck();
      }
      for (GateId g : nl.inputs()) sim.set_value(g, v[g]);
      for (GateId g : nl.storage()) sim.set_value(g, v[g]);
      sim.evaluate();
      const std::vector<Logic> want = reference_eval(nl, v, stuck);
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim.value(g), want[g])
            << "circuit " << circuit << " pattern " << pattern << " gate "
            << nl.label(g) << " (" << gate_type_name(nl.type(g)) << ")";
      }
    }
  }
}

// A copy flushes only the passes it ran itself into "sim.comb.*" /
// "sim.parallel.*", never the original's a second time; an assigned-to
// simulator keeps its own count.
TEST(CombSim, CopiesCountOnlyTheirOwnPasses) {
  obs::set_enabled(true);
  const Netlist nl = make_c17();
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t passes0 = reg.counter("sim.comb.passes").value();
  const std::uint64_t evals0 = reg.counter("sim.comb.gate_evals").value();
  {
    CombSim a(nl);
    a.evaluate();
    a.evaluate();
    CombSim b(a);
    b.evaluate();
    CombSim c(nl);
    c = a;
    c.evaluate();
  }
  EXPECT_EQ(reg.counter("sim.comb.passes").value() - passes0, 4u);
  EXPECT_EQ(reg.counter("sim.comb.gate_evals").value() - evals0,
            4u * nl.topo_order().size());
}

TEST(ParallelSim, CopiesCountOnlyTheirOwnPasses) {
  obs::set_enabled(true);
  const Netlist nl = make_c17();
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t passes0 = reg.counter("sim.parallel.passes").value();
  const std::uint64_t evals0 = reg.counter("sim.parallel.gate_evals").value();
  {
    ParallelSim a(nl);
    a.set_word(nl.inputs()[0], 0x5555);
    a.evaluate();
    a.evaluate();
    ParallelSim b(a);
    EXPECT_EQ(b.word(nl.inputs()[0]), 0x5555u);  // a copy keeps the words
    b.evaluate();
    ParallelSim c(nl);
    c = a;
    c.evaluate();
  }
  EXPECT_EQ(reg.counter("sim.parallel.passes").value() - passes0, 4u);
  EXPECT_EQ(reg.counter("sim.parallel.gate_evals").value() - evals0,
            4u * nl.topo_order().size());
}

TEST(SeqSim, CounterCountsFromReset) {
  const char* text = R"(
INPUT(en)
OUTPUT(q0)
OUTPUT(q1)
q0 = DFF(n0)
q1 = DFF(n1)
n0 = XOR(q0, en)
c0 = AND(q0, en)
n1 = XOR(q1, c0)
)";
  const Netlist nl = read_bench_string(text);
  SeqSim sim(nl);
  sim.reset(Logic::Zero);
  sim.set_inputs({Logic::One});
  int observed = 0;
  for (int t = 0; t < 4; ++t) {
    sim.clock();
    const Logic q0 = sim.state(*nl.find("q0"));
    const Logic q1 = sim.state(*nl.find("q1"));
    observed = (q1 == Logic::One ? 2 : 0) + (q0 == Logic::One ? 1 : 0);
    EXPECT_EQ(observed, (t + 1) % 4);
  }
}

TEST(SeqSim, ScanShiftMovesChainAndNormalCaptures) {
  // Two ScanDffs chained: si -> f0 -> f1; D inputs tied to PI d.
  const char* text = R"(
INPUT(d)
INPUT(si)
OUTPUT(so)
f0 = SCANDFF(d, si)
f1 = SCANDFF(d, f0)
so = BUF(f1)
)";
  const Netlist nl = read_bench_string(text);
  SeqSim sim(nl);
  sim.reset(Logic::Zero);
  sim.set_input(*nl.find("si"), Logic::One);
  sim.set_input(*nl.find("d"), Logic::Zero);
  sim.clock(ClockMode::Shift);
  EXPECT_EQ(sim.state(*nl.find("f0")), Logic::One);
  EXPECT_EQ(sim.state(*nl.find("f1")), Logic::Zero);
  sim.clock(ClockMode::Shift);
  EXPECT_EQ(sim.state(*nl.find("f1")), Logic::One);
  // Normal clock captures D for every element.
  sim.clock(ClockMode::Normal);
  EXPECT_EQ(sim.state(*nl.find("f0")), Logic::Zero);
  EXPECT_EQ(sim.state(*nl.find("f1")), Logic::Zero);
}

TEST(SeqSim, PlainDffHoldsDuringShift) {
  const char* text = R"(
INPUT(d)
OUTPUT(q)
q = DFF(d)
)";
  const Netlist nl = read_bench_string(text);
  SeqSim sim(nl);
  sim.set_state(*nl.find("q"), Logic::One);
  sim.set_input(*nl.find("d"), Logic::Zero);
  sim.clock(ClockMode::Shift);
  EXPECT_EQ(sim.state(*nl.find("q")), Logic::One);
}

TEST(ParallelSim, MatchesCombSimOnRandomPatterns) {
  const Netlist nl = make_c17();
  CombSim ref(nl);
  ParallelSim par(nl);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> words(nl.inputs().size());
  for (auto& w : words) w = rng();
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    par.set_word(nl.inputs()[i], words[i]);
  }
  par.evaluate();
  for (int bit = 0; bit < 64; ++bit) {
    std::vector<Logic> in;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      in.push_back(to_logic((words[i] >> bit) & 1));
    }
    ref.set_inputs(in);
    ref.evaluate();
    for (GateId po : nl.outputs()) {
      const Logic expect = ref.value(po);
      const Logic got = to_logic((par.word(po) >> bit) & 1);
      EXPECT_EQ(got, expect) << "bit " << bit << " po " << nl.label(po);
    }
  }
}

TEST(ParallelSim, ForcedPinEvaluation) {
  const Netlist nl = make_fig1_and();
  ParallelSim par(nl);
  const GateId a = *nl.find("a");
  const GateId b = *nl.find("b");
  const GateId c = *nl.find("c");
  par.set_word(a, 0x0ull);
  par.set_word(b, ~0x0ull);
  par.evaluate();
  EXPECT_EQ(par.word(c), 0x0ull);
  // Force pin A (pin 0) to all-ones: the AND now follows B.
  EXPECT_EQ(par.eval_with_forced_pin(c, 0, ~0ull), ~0ull);
}

// A random DAG over every two-valued gate kind, with storage outputs as free
// sources and tri-state buses whose drivers never conflict: with selects
// s0..s(k-2), driver d is enabled by ~s0 & ... & ~s(d-1) & sd and the last
// by all selects low, so every pattern enables exactly one driver and no
// bus floats or fights -- where the four-valued and the pull-down word bus
// models agree.
Netlist make_one_hot_bus_dag(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  Netlist nl("one_hot_bus_dag");
  std::vector<GateId> nets;
  for (std::size_t i = 0, n = 6 + pick(6); i < n; ++i) {
    nets.push_back(nl.add_input());
  }
  nets.push_back(nl.add_gate(G::Const0, {}));
  nets.push_back(nl.add_gate(G::Const1, {}));
  std::vector<GateId> ffs;
  for (std::size_t i = 0, n = 1 + pick(3); i < n; ++i) {
    ffs.push_back(nl.add_gate(G::Dff, {nets[0]}));
    nets.push_back(ffs.back());
  }
  const auto any = [&] { return nets[pick(nets.size())]; };
  const G kTypes[] = {G::Buf, G::Not, G::And, G::Nand, G::Or,
                      G::Nor, G::Xor, G::Xnor, G::Mux};
  for (std::size_t i = 0, gates = 80 + pick(60); i < gates; ++i) {
    if (pick(6) == 0) {
      std::vector<GateId> drivers;
      GateId none_yet = kNoGate;  // every earlier select low
      for (std::size_t d = 0, k = 2 + pick(2); d < k; ++d) {
        GateId en = none_yet;
        if (d + 1 < k) {
          const GateId sel = any();
          const GateId low = nl.add_gate(G::Not, {sel});
          en = d == 0 ? sel : nl.add_gate(G::And, {none_yet, sel});
          none_yet = d == 0 ? low : nl.add_gate(G::And, {none_yet, low});
        }
        drivers.push_back(nl.add_gate(G::Tristate, {any(), en}));
      }
      nets.push_back(nl.add_gate(G::Bus, drivers));
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
    for (std::size_t k = 0; k < n; ++k) fin.push_back(any());
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

// Every bit of every gate's word equals the four-valued CombSim on that
// bit's pattern; a disabled tri-state driver, Z there and 0 here, is read
// only through its bus.
template <typename EB>
void expect_lane_matches_comb_sim(const Netlist& nl, std::uint64_t seed) {
  using Word = typename EB::Word;
  using T = WordTraits<Word>;
  std::vector<GateId> sources(nl.inputs());
  sources.insert(sources.end(), nl.storage().begin(), nl.storage().end());
  std::mt19937_64 rng(seed);
  std::vector<Word> words(sources.size(), T::zeros());
  BasicParallelSim<EB> par(nl);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (int b = 0; b < T::kBits; ++b) {
      if ((rng() & 1) != 0) T::set_bit(words[s], static_cast<std::size_t>(b));
    }
    par.set_word(sources[s], words[s]);
  }
  par.evaluate();
  CombSim ref(nl);
  for (int b = 0; b < T::kBits; ++b) {
    const auto bit = static_cast<std::size_t>(b);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      ref.set_value(sources[s], to_logic(T::test_bit(words[s], bit)));
    }
    ref.evaluate();
    for (GateId g : nl.topo_order()) {
      if (nl.type(g) == G::Tristate) continue;
      ASSERT_EQ(to_logic(T::test_bit(par.word(g), bit)), ref.value(g))
          << nl.label(g) << " (" << gate_type_name(nl.type(g)) << ") bit "
          << b;
    }
  }
}

TEST(ParallelSim, MatchesCombSimOnEveryLaneWithOneHotBuses) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Netlist nl = make_one_hot_bus_dag(seed);
    ASSERT_TRUE(std::any_of(nl.topo_order().begin(), nl.topo_order().end(),
                            [&](GateId g) { return nl.type(g) == G::Bus; }));
    for (const simd::Lane lane : simd::available_lanes()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " lane " +
                   std::string(simd::lane_name(lane)));
      switch (lane) {
        case simd::Lane::Off:
          expect_lane_matches_comb_sim<ScalarEval<std::uint64_t>>(nl, seed);
          break;
        case simd::Lane::Scalar4:
          expect_lane_matches_comb_sim<ScalarEval<PatternWord<4>>>(nl, seed);
          break;
        case simd::Lane::Scalar8:
          expect_lane_matches_comb_sim<ScalarEval<PatternWord<8>>>(nl, seed);
          break;
#if DFT_SIMD_X86
        case simd::Lane::Avx2:
          expect_lane_matches_comb_sim<Avx2Eval>(nl, seed);
          break;
        case simd::Lane::Avx512:
          expect_lane_matches_comb_sim<Avx512Eval>(nl, seed);
          break;
#else
        case simd::Lane::Avx2:
        case simd::Lane::Avx512:
          FAIL() << "available_lanes() reported an ISA lane this build lacks";
#endif
      }
    }
  }
}

// cone_of(site) is the site's fanout cone without the site and without
// storage, in (level, id) order; forcing a fault's site word and
// re-evaluating only that cone gives, on every gate, the words a full
// evaluation with the fault injected gives -- output and input-pin faults,
// parity gates (the O(1) forced-pin path) and buses included.
TEST(ParallelSim, ConeResimulationEqualsFullFaultyEvaluation) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Netlist nl = make_one_hot_bus_dag(seed);
    const CompiledNetlist cn(nl);
    std::vector<GateId> sources(nl.inputs());
    sources.insert(sources.end(), nl.storage().begin(), nl.storage().end());
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> source_words(sources.size());
    for (auto& w : source_words) w = rng();
    ParallelSim good(nl);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      good.set_word(sources[s], source_words[s]);
    }
    good.evaluate();
    std::vector<std::uint64_t> ref(nl.size());
    std::vector<std::uint64_t> in;
    int checked = 0;
    for (const Fault& f : enumerate_faults(nl)) {
      if (is_storage(nl.type(f.gate)) && f.pin == kStoragePinD) continue;
      SCOPED_TRACE(nl.label(f.gate) + "." + std::to_string(f.pin) +
                   (f.sa1 ? " sa1" : " sa0"));
      ParallelSim sim(good);  // the good machine, forced below
      const std::vector<GateId> cone = sim.cone_of(f.gate);
      std::vector<GateId> want = nl.fanout_cone(f.gate);
      std::erase_if(want, [&](GateId g) {
        return g == f.gate || !is_combinational(nl.type(g));
      });
      std::sort(want.begin(), want.end(), [&](GateId a, GateId b) {
        return std::pair(cn.level(a), a) < std::pair(cn.level(b), b);
      });
      ASSERT_EQ(cone, want);

      const std::uint64_t forced = f.sa1 ? ~0ull : 0ull;
      sim.force_word(f.gate, f.pin < 0 ? forced
                                       : sim.eval_with_forced_pin(
                                             f.gate, f.pin, forced));
      sim.evaluate_gates(cone);

      // Full faulty evaluation: every gate, gathered fanin words, the fault
      // injected at its site.
      std::fill(ref.begin(), ref.end(), 0);
      for (GateId g = 0; g < nl.size(); ++g) {
        if (nl.type(g) == G::Const1) ref[g] = ~0ull;
      }
      for (std::size_t s = 0; s < sources.size(); ++s) {
        ref[sources[s]] = source_words[s];
      }
      if (f.pin < 0) ref[f.gate] = forced;
      for (GateId g : nl.topo_order()) {
        const auto& fin = nl.fanin(g);
        in.clear();
        for (std::size_t p = 0; p < fin.size(); ++p) {
          const bool site = g == f.gate && f.pin == static_cast<int>(p);
          in.push_back(site ? forced : ref[fin[p]]);
        }
        ref[g] = detail::eval_word_impl(nl.type(g), in.size(),
                                        [&](std::size_t i) { return in[i]; });
        if (g == f.gate && f.pin < 0) ref[g] = forced;
      }
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim.word(g), ref[g])
            << nl.label(g) << " (" << gate_type_name(nl.type(g)) << ")";
      }
      ++checked;
    }
    EXPECT_GT(checked, 100);
  }
}

}  // namespace
}  // namespace dft
