#include "bist/autonomous.h"

#include <bit>
#include <stdexcept>

#include "circuits/sn74181.h"
#include "fault/threaded_fault_sim.h"
#include "sim/comb_sim.h"
#include "sim/thread_pool.h"

namespace dft {

namespace {

std::vector<SourceVector> all_patterns(const Netlist& nl) {
  const std::size_t n = source_count(nl);
  if (n > 22) throw std::invalid_argument("too many inputs for exhaustion");
  std::vector<SourceVector> out;
  out.reserve(1ull << n);
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    SourceVector pat(n);
    for (std::size_t i = 0; i < n; ++i) pat[i] = to_logic((v >> i) & 1);
    out.push_back(std::move(pat));
  }
  return out;
}

}  // namespace

bool exhaustive_detects(const Netlist& nl, const Fault& f) {
  ParallelFaultSimulator fsim(nl);
  const auto res = fsim.run(all_patterns(nl), {f});
  return res.num_detected == 1;
}

double exhaustive_coverage(const Netlist& nl, const std::vector<Fault>& faults,
                           int threads) {
  return make_fault_sim_engine(nl, resolve_thread_count(threads))
      ->run(all_patterns(nl), faults)
      .coverage();
}

bool exhaustive_detects_gate_swap(const Netlist& nl, GateId gate,
                                  GateType wrong_type) {
  // Compare the full truth tables of the original and a copy with the gate
  // type replaced; the exhaustive test compares every output of every
  // pattern, so detection == functions differ.
  Netlist bad = nl;  // Netlist is a value type: deep copy
  if (!is_combinational(bad.type(gate)) || !is_combinational(wrong_type)) {
    throw std::invalid_argument("gate swap requires combinational gates");
  }
  const FaninArity a = fanin_arity(wrong_type);
  const int nf = static_cast<int>(bad.fanin(gate).size());
  if (nf < a.min || (a.max >= 0 && nf > a.max)) {
    throw std::invalid_argument("wrong_type arity incompatible");
  }
  // Rebuild the gate in place by hacking types: Netlist has no set_type, so
  // construct a modified copy gate-by-gate.
  Netlist swapped(nl.name() + "_swap");
  for (GateId g = 0; g < nl.size(); ++g) {
    std::string name(nl.gate_name(g));
    swapped.add_gate(g == gate ? wrong_type : nl.type(g),
                     std::vector<GateId>(nl.fanin(g)), std::move(name));
  }

  CombSim good(nl), ugly(swapped);
  const std::size_t n = source_count(nl);
  if (n > 20) throw std::invalid_argument("too many inputs");
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    SourceVector pat(n);
    for (std::size_t i = 0; i < n; ++i) pat[i] = to_logic((v >> i) & 1);
    const auto& pis = nl.inputs();
    const auto& ffs = nl.storage();
    for (std::size_t i = 0; i < pis.size(); ++i) good.set_value(pis[i], pat[i]);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      good.set_value(ffs[i], pat[pis.size() + i]);
    }
    const auto& pis2 = swapped.inputs();
    const auto& ffs2 = swapped.storage();
    for (std::size_t i = 0; i < pis2.size(); ++i) {
      ugly.set_value(pis2[i], pat[i]);
    }
    for (std::size_t i = 0; i < ffs2.size(); ++i) {
      ugly.set_value(ffs2[i], pat[pis.size() + i]);
    }
    good.evaluate();
    ugly.evaluate();
    if (good.output_values() != ugly.output_values()) return true;
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      if (good.next_state(ffs[i]) != ugly.next_state(ffs2[i])) return true;
    }
  }
  return false;
}

ReconfigurableLfsrModule::ReconfigurableLfsrModule(int width,
                                                   std::uint64_t seed)
    : width_(width) {
  if (width < 2 || width > 63) throw std::invalid_argument("RLM width");
  mask_ = (1ull << width) - 1;
  taps_ = 0;
  for (int t : primitive_taps(width)) taps_ |= 1ull << (t - 1);
  state_ = seed & mask_;
}

void ReconfigurableLfsrModule::clock(std::uint64_t parallel_in) {
  switch (mode_) {
    case RlmMode::Normal:
      state_ = parallel_in & mask_;
      break;
    case RlmMode::SignatureAnalyzer: {
      const bool fb = (std::popcount(state_ & taps_) & 1) != 0;
      state_ = (((state_ << 1) | (fb ? 1u : 0u)) ^ parallel_in) & mask_;
      break;
    }
    case RlmMode::InputGenerator: {
      const bool fb = (std::popcount(state_ & taps_) & 1) != 0;
      state_ = ((state_ << 1) | (fb ? 1u : 0u)) & mask_;
      break;
    }
  }
}

MuxPartitioned build_mux_partitioned(const Netlist& g1, const Netlist& g2) {
  const std::size_t n1 = g1.inputs().size();
  const std::size_t m1 = g1.outputs().size();
  if (g2.inputs().size() != m1) {
    throw std::invalid_argument("G2 inputs must match G1 outputs");
  }
  if (n1 < m1) {
    throw std::invalid_argument("need n1 >= m1 to drive G2 from the PIs");
  }
  if (!g1.storage().empty() || !g2.storage().empty()) {
    throw std::invalid_argument("subnetworks must be combinational");
  }

  MuxPartitioned out;
  Netlist& nl = out.netlist;
  nl.set_netlist_name("muxpart");
  for (std::size_t i = 0; i < n1; ++i) {
    out.primary_data_inputs.push_back(nl.add_input("x" + std::to_string(i)));
  }
  out.test_select = nl.add_input("test_g2");

  // The demo keeps to const-free subnetworks.
  for (const Netlist* sub : {&g1, &g2}) {
    for (GateId g = 0; g < sub->size(); ++g) {
      if (sub->type(g) == GateType::Const0 || sub->type(g) == GateType::Const1) {
        throw std::invalid_argument(
            "mux partitioning demo expects const-free subnetworks");
      }
    }
  }

  const auto g1_outs = inline_netlist(nl, g1, out.primary_data_inputs, "g1_");
  // Observation POs for G1 (always visible; Fig. 32's test path).
  for (std::size_t i = 0; i < g1_outs.size(); ++i) {
    out.g1_observation_pos.push_back(
        nl.add_output(g1_outs[i], "g1_obs" + std::to_string(i)));
  }
  // G2 inputs: mux between G1 outputs (functional) and the PIs (test).
  std::vector<GateId> g2_in;
  for (std::size_t i = 0; i < m1; ++i) {
    g2_in.push_back(nl.add_gate(
        GateType::Mux,
        {g1_outs[i], out.primary_data_inputs[i], out.test_select},
        "g2in" + std::to_string(i)));
    out.mux_gate_equivalents += gate_cost(GateType::Mux, 3);
  }
  const auto g2_outs = inline_netlist(nl, g2, g2_in, "g2_");
  for (std::size_t i = 0; i < g2_outs.size(); ++i) {
    nl.add_output(g2_outs[i], "y" + std::to_string(i));
  }
  nl.validate();
  return out;
}

PartitionPatternCounts mux_partition_pattern_counts(const Netlist& g1,
                                                    const Netlist& g2) {
  PartitionPatternCounts c;
  c.unpartitioned = 1ull << g1.inputs().size();
  c.partitioned = (1ull << g1.inputs().size()) + (1ull << g2.inputs().size());
  // The unpartitioned figure assumes G2 is only reachable through G1, so
  // exhausting the cascade still costs 2^n1 but does NOT exhaust G2's input
  // space; autonomy of each part is what the muxes buy.
  return c;
}

SensitizedPartitionResult sensitized_partition_74181(int threads) {
  SensitizedPartitionResult res;
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;

  // Input order: a0..3 b0..3 s0..3 m cn  (14 inputs).
  const std::size_t n = nl.inputs().size();
  auto idx_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < n; ++i) {
      if (nl.label(nl.inputs()[i]) == name) return i;
    }
    throw std::logic_error("missing input " + name);
  };
  const std::size_t s0 = idx_of("s0"), s1 = idx_of("s1"), s2 = idx_of("s2"),
                    s3 = idx_of("s3");

  // Each session holds two select inputs at sensitizing values and exhausts
  // the remaining 12 inputs (Figs. 33-34). Sessions A and B are the paper's
  // (S2 = S3 = low tests the L outputs; S0 = S1 = high sensitizes the H
  // outputs through N2); session C (S0 = low, S3 = high) additionally
  // exercises the expanded carry-lookahead AND terms of this gate-level
  // model, which need a kill (E) and a generate (D) condition at once.
  auto session = [&](std::vector<std::pair<std::size_t, Logic>> holds) {
    std::vector<std::size_t> free;
    for (std::size_t i = 0; i < n; ++i) {
      bool held = false;
      for (const auto& [hi, hv] : holds) held = held || hi == i;
      if (!held) free.push_back(i);
    }
    for (std::uint64_t v = 0; v < (1ull << free.size()); ++v) {
      SourceVector pat(n, Logic::Zero);
      for (const auto& [hi, hv] : holds) pat[hi] = hv;
      for (std::size_t k = 0; k < free.size(); ++k) {
        pat[free[k]] = to_logic((v >> k) & 1);
      }
      res.patterns.push_back(std::move(pat));
    }
  };
  session({{s2, Logic::Zero}, {s3, Logic::Zero}});
  session({{s0, Logic::One}, {s1, Logic::One}});
  session({{s0, Logic::Zero}, {s3, Logic::One}});
  res.session_patterns = res.patterns.size();
  res.exhaustive_patterns = 1ull << n;

  const auto fsim = make_fault_sim_engine(nl, resolve_thread_count(threads));
  res.session_coverage = fsim->run(res.patterns, faults).coverage();
  res.exhaustive_coverage = exhaustive_coverage(nl, faults, threads);
  return res;
}

}  // namespace dft
