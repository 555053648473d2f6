#include "fault/stuck_open.h"

#include <random>

#include "sim/comb_sim.h"
#include "sim/eval.h"

namespace dft {

bool stuck_open_supported(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Not:
    case GateType::Buf: return true;
    default: return false;
  }
}

namespace {

// Reduces AND/OR/BUF to their inverting CMOS first stage.
GateType first_stage(GateType t) {
  switch (t) {
    case GateType::And: return GateType::Nand;
    case GateType::Or: return GateType::Nor;
    case GateType::Buf: return GateType::Not;
    default: return t;
  }
}

}  // namespace

bool stuck_open_floats(GateType t, const std::vector<Logic>& in,
                       const StuckOpenFault& f) {
  for (Logic l : in) {
    if (!is_binary(l)) return false;  // conservatively driven
  }
  const GateType s = first_stage(t);
  if (s == GateType::Not) {
    // pFET drives on input 0; nFET on input 1.
    return f.open_pullup ? in[0] == Logic::Zero : in[0] == Logic::One;
  }
  if (s == GateType::Nand) {
    if (f.open_pullup && !f.series_stack) {
      // Parallel pFET of pin f.pin: sole pull-up when its input is the only 0.
      for (std::size_t i = 0; i < in.size(); ++i) {
        const bool want =
            static_cast<int>(i) == f.pin ? in[i] == Logic::Zero
                                         : in[i] == Logic::One;
        if (!want) return false;
      }
      return true;
    }
    // Series nFET stack: drives only when all inputs are 1.
    for (Logic l : in) {
      if (l != Logic::One) return false;
    }
    return true;
  }
  if (s == GateType::Nor) {
    if (!f.open_pullup && !f.series_stack) {
      // Parallel nFET of pin f.pin: sole pull-down when its input is the
      // only 1.
      for (std::size_t i = 0; i < in.size(); ++i) {
        const bool want =
            static_cast<int>(i) == f.pin ? in[i] == Logic::One
                                         : in[i] == Logic::Zero;
        if (!want) return false;
      }
      return true;
    }
    // Series pFET stack: drives only when all inputs are 0.
    for (Logic l : in) {
      if (l != Logic::Zero) return false;
    }
    return true;
  }
  return false;
}

std::vector<StuckOpenFault> enumerate_stuck_open(const Netlist& nl) {
  std::vector<StuckOpenFault> out;
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType t = nl.type(g);
    if (!stuck_open_supported(t) || nl.fanout(g).empty()) continue;
    const GateType s = first_stage(t);
    const int pins = static_cast<int>(nl.fanin(g).size());
    if (s == GateType::Not) {
      out.push_back({g, 0, true, false});
      out.push_back({g, 0, false, false});
      continue;
    }
    if (s == GateType::Nand) {
      for (int p = 0; p < pins; ++p) out.push_back({g, p, true, false});
      out.push_back({g, 0, false, true});  // broken series pulldown
    } else {  // Nor
      for (int p = 0; p < pins; ++p) out.push_back({g, p, false, false});
      out.push_back({g, 0, true, true});  // broken series pullup
    }
  }
  return out;
}

namespace {

// Evaluates the netlist with the stuck-open retention model: values from
// `prev` supply the retained node value when the float condition holds.
void evaluate_with_retention(const Netlist& nl, CombSim& sim,
                             const StuckOpenFault& f, Logic retained) {
  // First evaluate normally, then re-evaluate the fault cone with the gate
  // forced to the retained value if the condition holds.
  sim.clear_stuck();
  sim.evaluate();
  std::vector<Logic> ins;
  for (GateId x : nl.fanin(f.gate)) ins.push_back(sim.value(x));
  if (stuck_open_floats(nl.type(f.gate), ins, f)) {
    sim.set_stuck({f.gate, -1, retained});
    sim.evaluate();
  }
}

void apply_sources(const Netlist& nl, CombSim& sim, const SourceVector& v) {
  const auto& pis = nl.inputs();
  const auto& ffs = nl.storage();
  for (std::size_t i = 0; i < pis.size(); ++i) sim.set_value(pis[i], v[i]);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    sim.set_value(ffs[i], v[pis.size() + i]);
  }
}

}  // namespace

bool stuck_open_detected(const Netlist& nl, const StuckOpenFault& f,
                         const SourceVector& init, const SourceVector& test) {
  CombSim good(nl);
  CombSim bad(good);  // shares good's compiled program

  // Init pattern: in the faulty machine the gate may already float; the
  // retained value is then unknown, so treat it as X (it still initializes
  // if the condition does not hold).
  apply_sources(nl, bad, init);
  bad.clear_stuck();
  bad.evaluate();
  std::vector<Logic> ins;
  for (GateId x : nl.fanin(f.gate)) ins.push_back(bad.value(x));
  Logic retained = stuck_open_floats(nl.type(f.gate), ins, f)
                       ? Logic::X
                       : bad.value(f.gate);

  apply_sources(nl, bad, test);
  evaluate_with_retention(nl, bad, f, retained);

  apply_sources(nl, good, test);
  good.clear_stuck();
  good.evaluate();

  const auto differs = [](Logic a, Logic b) {
    return is_binary(a) && is_binary(b) && a != b;
  };
  for (GateId po : nl.outputs()) {
    if (differs(good.value(po), bad.value(po))) return true;
  }
  for (GateId ff : nl.storage()) {
    if (differs(good.next_state(ff), bad.next_state(ff))) return true;
  }
  return false;
}

double stuck_open_coverage(const Netlist& nl,
                           const std::vector<StuckOpenFault>& faults,
                           const std::vector<SourceVector>& sequence) {
  if (faults.empty()) return 1.0;
  int caught = 0;
  for (const StuckOpenFault& f : faults) {
    bool det = false;
    for (std::size_t i = 0; i + 1 < sequence.size() && !det; ++i) {
      det = stuck_open_detected(nl, f, sequence[i], sequence[i + 1]);
    }
    caught += det;
  }
  return static_cast<double>(caught) / static_cast<double>(faults.size());
}

}  // namespace dft
