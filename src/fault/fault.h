// Single stuck-at fault model (Sec. I-A).
//
// A fault fixes one gate input pin or one gate output net to 0 or 1. The
// survey's argument for this universe: all 3^N multi-fault combinations are
// intractable, and single stuck-at coverage in the high 90s historically
// catches bridging defects too.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace dft {

struct Fault {
  GateId gate = kNoGate;
  int pin = -1;  // -1 = output net of `gate`; >= 0 = that input pin
  bool sa1 = false;

  friend bool operator==(const Fault&, const Fault&) = default;
  friend auto operator<=>(const Fault&, const Fault&) = default;
};

struct FaultHash {
  std::size_t operator()(const Fault& f) const {
    std::size_t h = std::hash<GateId>()(f.gate);
    h = h * 1000003u + static_cast<std::size_t>(f.pin + 1);
    return h * 2u + (f.sa1 ? 1 : 0);
  }
};

// "a/0", "c.pin1/1" style display name.
std::string fault_name(const Netlist& nl, const Fault& f);

// Full single-stuck-at universe over the combinationally-testable part of
// the netlist:
//   * output s-a-0/1 on every gate that drives logic (PIs, storage outputs,
//     and combinational gates),
//   * input-pin s-a-0/1 on every combinational gate pin and on every storage
//     D pin (observed by scan capture).
// Scan-in pins and Output-gate pins are excluded: the former are covered by
// the scan-chain flush test, the latter are equivalent to their driver's
// output faults. The list is in ascending Fault order (by gate, the output
// before the pins, s-a-0 before s-a-1).
std::vector<Fault> enumerate_faults(const Netlist& nl);

// Structural equivalence collapsing (Sec. I-B "fault equivalencing",
// refs [36], [41]): controlling-value input faults collapse into output
// faults, inverter/buffer chains collapse, and a fanout-free stem collapses
// into its single sink pin.
struct CollapseResult {
  std::vector<Fault> representatives;
  // For every fault in the original universe, the representative it belongs
  // to (parallel to `universe`).
  std::vector<Fault> universe;
  std::vector<int> rep_index_of_universe;
  double collapse_ratio() const {
    return universe.empty() ? 1.0
                            : static_cast<double>(representatives.size()) /
                                  static_cast<double>(universe.size());
  }
};
CollapseResult collapse_faults(const Netlist& nl);

// Checkpoint faults (dominance collapsing): both polarities on every primary
// input / storage output and on every fanout branch pin. Detecting all
// checkpoint faults detects all single stuck-at faults in a fanout-free
// reconvergence-free network, and is the classical seed set elsewhere.
std::vector<Fault> checkpoint_faults(const Netlist& nl);

}  // namespace dft
