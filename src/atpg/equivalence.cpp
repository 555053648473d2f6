#include "atpg/equivalence.h"

#include <stdexcept>

#include "atpg/podem.h"

namespace dft {

Netlist build_miter(const Netlist& a, const Netlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size() ||
      a.storage().size() != b.storage().size()) {
    throw std::invalid_argument("miter interface mismatch");
  }
  Netlist m("miter_" + a.name() + "_" + b.name());
  std::vector<GateId> sources;
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    sources.push_back(m.add_input("in" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < a.storage().size(); ++i) {
    sources.push_back(m.add_input("state" + std::to_string(i)));
  }
  const auto oa = inline_netlist(m, a, sources, "a_");
  const auto ob = inline_netlist(m, b, sources, "b_");
  std::vector<GateId> diffs;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    diffs.push_back(
        m.add_gate(GateType::Xor, {oa[i], ob[i]}, "d" + std::to_string(i)));
  }
  const GateId top = diffs.size() == 1
                         ? diffs[0]
                         : m.add_gate(GateType::Or, diffs, "miter_or");
  m.add_output(top, "miter");
  m.validate();
  return m;
}

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    int backtrack_limit) {
  const Netlist m = build_miter(a, b);
  Podem podem(m, backtrack_limit);
  // Can the miter output be 1? Exactly the test-existence question for
  // "miter stuck-at-0".
  const GateId top = m.fanin(m.outputs()[0])[0];
  const AtpgOutcome out = podem.generate({top, -1, false});
  EquivalenceResult res;
  switch (out.status) {
    case AtpgStatus::Redundant:
      res.equivalent = true;
      break;
    case AtpgStatus::TestFound: {
      res.equivalent = false;
      res.counterexample = out.pattern;
      for (auto& l : res.counterexample) {
        if (!is_binary(l)) l = Logic::Zero;
      }
      break;
    }
    case AtpgStatus::Aborted:
      res.decided = false;
      break;
  }
  return res;
}

}  // namespace dft
