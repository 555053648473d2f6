// Four-valued combinational simulator.
//
// Evaluates the combinational portion of a netlist in level order. Primary
// inputs and storage-element outputs are free variables ("pseudo primary
// inputs" in the scan literature); storage D pins are readable as pseudo
// primary outputs. A single stuck-at fault may be injected, which is the
// reference ("serial") fault simulation mechanism of Sec. I-B.
//
// Evaluation program. The constructor compiles the netlist (through
// CompiledNetlist) once into an immutable program that every copy of the
// simulator shares:
//   * the combinational gates in level order, grouped by gate type within
//     each level, so a pass is a sequence of same-type runs and the type
//     dispatch happens once per run instead of once per gate;
//   * the fanin ids of those gates, flat, in the same order;
//   * the constant gates.
// Compiling is O(N): gates are bucketed by level, then by type, with no
// comparison sort. The program is a snapshot, so the netlist must not be
// edited while a simulator built from it is in use.
//
// Dual-rail fold. Buf/Output/Not/And/Nand/Or/Nor/Xor/Xnor are evaluated
// branch-free on a two-bit code per net, "may be 0" and "may be 1":
// 0 -> 01, 1 -> 10, X -> 11, and Z -> 11 (a floating input reads as X).
// AND may be 0 when any input may be 0 and may be 1 only when every input
// may be 1; OR is the dual; inversion swaps the rails; XOR is the parity
// of its inputs unless one of them is unknown.
//
// eval_gate (sim/eval.h) stays the single definition of four-valued gate
// semantics. Mux, Tristate and Bus -- the gates that produce or resolve Z --
// are evaluated by it, and so is the one gate carrying an injected stuck-at
// fault. The tests pin the fold to eval_gate for every gate type, fan-in
// 1..4 and all 4^n input combinations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "netlist/logic.h"
#include "netlist/netlist.h"
#include "obs/obs.h"

namespace dft {

// A stuck-at fault site: `pin < 0` places the fault on the gate output net;
// otherwise on the given input pin (affecting only this gate's perception,
// exactly as Fig. 1(b) describes).
struct StuckSite {
  GateId gate = kNoGate;
  int pin = -1;
  Logic value = Logic::Zero;
};

class CombSim {
 public:
  explicit CombSim(const Netlist& nl);
  // The simulator keeps a reference: a temporary netlist would dangle.
  explicit CombSim(Netlist&&) = delete;
  // A copy shares the compiled program and copies the current values and
  // fault. Pass and evaluation counts ("sim.comb.*", flushed when the
  // simulator is destroyed) start at zero in the copy.
  CombSim(const CombSim&) = default;
  CombSim& operator=(const CombSim&) = default;

  const Netlist& netlist() const { return *nl_; }

  // Sets a primary input or a storage-element output value.
  void set_value(GateId source, Logic v);
  // Sets all primary inputs in netlist().inputs() order.
  void set_inputs(const std::vector<Logic>& values);
  // Sets every primary input and storage output to `v`.
  void set_all_sources(Logic v);

  void set_stuck(const StuckSite& site) { stuck_ = site; }
  void clear_stuck() { stuck_.reset(); }
  const std::optional<StuckSite>& stuck() const { return stuck_; }

  // Full-pass evaluation of all combinational gates.
  void evaluate();

  Logic value(GateId g) const { return values_.at(g); }
  // Values of the primary outputs, in netlist().outputs() order.
  std::vector<Logic> output_values() const;
  // Value presented at a storage element's D pin (its next state).
  Logic next_state(GateId storage_gate) const;

 private:
  struct Program;

  template <GateType T>
  void fold_run(GateType type, std::uint32_t begin, std::uint32_t end,
                GateId stuck_gate);
  void eval_gate_run(GateType type, std::uint32_t begin, std::uint32_t end,
                     GateId stuck_gate);
  Logic eval_op(GateType type, std::uint32_t op, bool faulty);

  const Netlist* nl_;
  std::shared_ptr<const Program> prog_;
  std::vector<Logic> values_;
  std::optional<StuckSite> stuck_;
  std::vector<Logic> scratch_;
  obs::PassTally tally_{"sim.comb"};
};

}  // namespace dft
