#include "fault/bridging.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "sim/comb_sim.h"
#include "sim/parallel_sim.h"

namespace dft {

bool bridge_creates_feedback(const Netlist& nl, GateId a, GateId b) {
  const auto in_cone = [&](GateId src, GateId dst) {
    const auto cone = nl.fanout_cone(src);
    return std::find(cone.begin(), cone.end(), dst) != cone.end();
  };
  return in_cone(a, b) || in_cone(b, a);
}

Netlist make_bridged_netlist(const Netlist& nl, const BridgingFault& bridge) {
  if (bridge.a == bridge.b) throw std::invalid_argument("bridge to itself");
  if (bridge_creates_feedback(nl, bridge.a, bridge.b)) {
    throw std::invalid_argument(
        "feedback bridge would make the network sequential (Sec. I-A's CMOS "
        "caveat)");
  }
  Netlist out = nl;
  const GateId r = out.add_gate(
      bridge.type == BridgeType::WiredAnd ? GateType::And : GateType::Or,
      {bridge.a, bridge.b}, "bridge_r");
  // Rewire every sink of either net (except the resolution gate itself).
  for (GateId net : {bridge.a, bridge.b}) {
    std::vector<std::pair<GateId, int>> sinks;
    for (GateId s : out.fanout(net)) {
      if (s == r) continue;
      const auto& fin = out.fanin(s);
      for (std::size_t p = 0; p < fin.size(); ++p) {
        if (fin[p] == net) sinks.emplace_back(s, static_cast<int>(p));
      }
    }
    for (const auto& [s, p] : sinks) out.set_fanin(s, p, r);
  }
  out.validate();
  return out;
}

bool bridge_detected(const Netlist& nl, const BridgingFault& bridge,
                     const SourceVector& pattern) {
  const Netlist bad_nl = make_bridged_netlist(nl, bridge);
  CombSim good(nl), bad(bad_nl);
  const auto apply = [&](CombSim& sim, const Netlist& n) {
    const auto& pis = n.inputs();
    const auto& ffs = n.storage();
    for (std::size_t i = 0; i < pis.size(); ++i) sim.set_value(pis[i], pattern[i]);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      sim.set_value(ffs[i], pattern[pis.size() + i]);
    }
    sim.evaluate();
  };
  apply(good, nl);
  apply(bad, bad_nl);
  const auto differs = [](Logic x, Logic y) {
    return is_binary(x) && is_binary(y) && x != y;
  };
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    if (differs(good.value(nl.outputs()[i]), bad.value(bad_nl.outputs()[i]))) {
      return true;
    }
  }
  for (std::size_t i = 0; i < nl.storage().size(); ++i) {
    if (differs(good.next_state(nl.storage()[i]),
                bad.next_state(bad_nl.storage()[i]))) {
      return true;
    }
  }
  return false;
}

std::vector<BridgingFault> sample_bridges(const Netlist& nl, int count,
                                          std::uint64_t seed) {
  std::vector<GateId> nets;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.type(g) != GateType::Output && !nl.fanout(g).empty()) {
      nets.push_back(g);
    }
  }
  std::mt19937_64 rng(seed);
  std::vector<BridgingFault> out;
  int guard = count * 200;
  while (static_cast<int>(out.size()) < count && guard-- > 0) {
    const GateId a = nets[rng() % nets.size()];
    const GateId b = nets[rng() % nets.size()];
    if (a == b || bridge_creates_feedback(nl, a, b)) continue;
    out.push_back({std::min(a, b), std::max(a, b),
                   (rng() & 1) ? BridgeType::WiredAnd : BridgeType::WiredOr});
  }
  return out;
}

double bridge_coverage(const Netlist& nl,
                       const std::vector<BridgingFault>& bridges,
                       const std::vector<SourceVector>& patterns) {
  if (bridges.empty()) return 1.0;
  int caught = 0;
  // Every block re-evaluates the whole good machine, so one serves every
  // bridge.
  ParallelSim good(nl);
  for (const BridgingFault& br : bridges) {
    // Bit-parallel: simulate the bridged netlist against the original on
    // all patterns at once.
    const Netlist bad_nl = make_bridged_netlist(nl, br);
    ParallelSim bad(bad_nl);
    bool det = false;
    for (std::size_t base = 0; base < patterns.size() && !det; base += 64) {
      const std::size_t blk = std::min<std::size_t>(64, patterns.size() - base);
      const auto& pis = nl.inputs();
      const auto& ffs = nl.storage();
      for (std::size_t s = 0; s < pis.size() + ffs.size(); ++s) {
        std::uint64_t w = 0;
        for (std::size_t k = 0; k < blk; ++k) {
          if (patterns[base + k][s] == Logic::One) w |= 1ull << k;
        }
        const GateId src = s < pis.size() ? pis[s] : ffs[s - pis.size()];
        good.set_word(src, w);
        bad.set_word(src, w);
      }
      good.evaluate();
      bad.evaluate();
      const std::uint64_t valid = blk == 64 ? ~0ull : ((1ull << blk) - 1);
      for (std::size_t i = 0; i < nl.outputs().size() && !det; ++i) {
        det = ((good.word(nl.outputs()[i]) ^ bad.word(bad_nl.outputs()[i])) &
               valid) != 0;
      }
      for (std::size_t i = 0; i < nl.storage().size() && !det; ++i) {
        const GateId dg = nl.fanin(nl.storage()[i])[kStoragePinD];
        const GateId db = bad_nl.fanin(bad_nl.storage()[i])[kStoragePinD];
        det = ((good.word(dg) ^ bad.word(db)) & valid) != 0;
      }
    }
    caught += det;
  }
  return static_cast<double>(caught) / static_cast<double>(bridges.size());
}

}  // namespace dft
