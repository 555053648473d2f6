#include "bist/bilbo_structural.h"

#include <stdexcept>
#include <string>

#include "lfsr/lfsr.h"

namespace dft {

StructuralBilbo add_structural_bilbo(Netlist& nl,
                                     const std::vector<GateId>& z_inputs,
                                     GateId scan_in,
                                     const std::string& prefix) {
  const int width = static_cast<int>(z_inputs.size());
  if (width < 2 || width > 32) throw std::invalid_argument("BILBO width");

  StructuralBilbo reg;
  reg.b1 = nl.add_input(prefix + "_b1");
  reg.b2 = nl.add_input(prefix + "_b2");
  reg.z_gate = nl.add_input(prefix + "_zg");
  reg.scan_in = scan_in;

  // Create the cells first (placeholder D) so feedback can reference them.
  const GateId zero = nl.add_gate(GateType::Const0, {}, prefix + "_zero");
  for (int i = 0; i < width; ++i) {
    reg.cells.push_back(
        nl.add_gate(GateType::Dff, {zero}, prefix + "_c" + std::to_string(i)));
  }

  // Feedback parity over the maximal-length taps.
  std::vector<GateId> tap_cells;
  for (int t : primitive_taps(width)) {
    tap_cells.push_back(reg.cells[static_cast<std::size_t>(t - 1)]);
  }
  GateId fb = tap_cells[0];
  for (std::size_t k = 1; k < tap_cells.size(); ++k) {
    fb = nl.add_gate(GateType::Xor, {fb, tap_cells[k]},
                     prefix + "_fb" + std::to_string(k));
  }

  for (int i = 0; i < width; ++i) {
    const std::string t = prefix + "_m" + std::to_string(i);
    const GateId zg =
        nl.add_gate(GateType::And, {z_inputs[static_cast<std::size_t>(i)],
                                    reg.z_gate},
                    t + "_zg");
    const GateId prev_shift =
        i == 0 ? scan_in : reg.cells[static_cast<std::size_t>(i - 1)];
    const GateId prev_sig =
        i == 0 ? fb : reg.cells[static_cast<std::size_t>(i - 1)];
    const GateId sig = nl.add_gate(GateType::Xor, {zg, prev_sig}, t + "_sig");
    // (b1,b2): 00 shift, 01 reset, 10 signature, 11 system.
    const GateId lo = nl.add_gate(GateType::Mux, {prev_shift, zero, reg.b2},
                                  t + "_lo");
    const GateId hi = nl.add_gate(GateType::Mux, {sig, zg, reg.b2}, t + "_hi");
    const GateId d = nl.add_gate(GateType::Mux, {lo, hi, reg.b1}, t + "_d");
    nl.set_fanin(reg.cells[static_cast<std::size_t>(i)], kStoragePinD, d);
  }
  return reg;
}

BilboLoop build_bilbo_loop(const Netlist& cln1, const Netlist& cln2) {
  const std::size_t n1 = cln1.inputs().size();
  const std::size_t n2 = cln1.outputs().size();
  if (cln2.inputs().size() != n2 || cln2.outputs().size() != n1) {
    throw std::invalid_argument("BILBO loop widths do not close");
  }
  if (!cln1.storage().empty() || !cln2.storage().empty()) {
    throw std::invalid_argument("BILBO networks must be combinational");
  }

  BilboLoop loop;
  Netlist& nl = loop.netlist;
  nl.set_netlist_name("bilbo_loop");
  loop.scan_in = nl.add_input("bilbo_sin");

  // Placeholder Z nets for R1 (CLN2's outputs are not built yet).
  const GateId tie = nl.add_gate(GateType::Const0, {}, "bilbo_tie");
  std::vector<GateId> r1_z(n1, tie);
  loop.r1 = add_structural_bilbo(nl, r1_z, loop.scan_in, "r1");

  std::vector<GateId> r1_out(loop.r1.cells.begin(), loop.r1.cells.end());
  const auto cln1_out = inline_netlist(nl, cln1, r1_out, "c1_");
  loop.r2 = add_structural_bilbo(
      nl, cln1_out, loop.r1.cells.back(), "r2");  // chained scan path
  std::vector<GateId> r2_out(loop.r2.cells.begin(), loop.r2.cells.end());
  const auto cln2_out = inline_netlist(nl, cln2, r2_out, "c2_");

  // Close the loop: R1's Z inputs are CLN2's outputs. The Z-gating AND is
  // the gate named r1_m<i>_zg with pin 0 = placeholder.
  for (std::size_t i = 0; i < n1; ++i) {
    const GateId zg = *nl.find("r1_m" + std::to_string(i) + "_zg");
    nl.set_fanin(zg, 0, cln2_out[i]);
  }
  loop.scan_out = nl.add_output(loop.r2.cells.back(), "bilbo_sout");
  nl.validate();
  return loop;
}

std::uint64_t register_state(const SeqSim& sim, const StructuralBilbo& reg) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < reg.cells.size(); ++i) {
    if (sim.state(reg.cells[i]) == Logic::One) s |= 1ull << i;
  }
  return s;
}

std::uint64_t run_structural_phase(const BilboLoop& loop, SeqSim& sim,
                                   bool generator_is_r1, std::uint64_t seed,
                                   int patterns) {
  const StructuralBilbo& gen = generator_is_r1 ? loop.r1 : loop.r2;
  const StructuralBilbo& acc = generator_is_r1 ? loop.r2 : loop.r1;

  // Both registers in Signature mode; the generator's Z inputs gated off.
  for (const auto& [b1, b2, zg, is_gen] :
       {std::tuple{gen.b1, gen.b2, gen.z_gate, true},
        std::tuple{acc.b1, acc.b2, acc.z_gate, false}}) {
    sim.set_input(b1, Logic::One);
    sim.set_input(b2, Logic::Zero);
    sim.set_input(zg, is_gen ? Logic::Zero : Logic::One);
  }
  sim.set_input(loop.scan_in, Logic::Zero);

  // Seed states (the tester would shift these in via LinearShift mode; the
  // shift path itself is exercised by the dedicated test).
  for (std::size_t i = 0; i < gen.cells.size(); ++i) {
    sim.set_state(gen.cells[i], to_logic((seed >> i) & 1));
  }
  for (GateId c : acc.cells) sim.set_state(c, Logic::Zero);

  for (int p = 0; p < patterns; ++p) sim.clock(ClockMode::Normal);
  return register_state(sim, acc);
}

}  // namespace dft
