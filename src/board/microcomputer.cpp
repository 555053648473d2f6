#include "board/microcomputer.h"

#include <random>
#include <stdexcept>

#include "fault/fault_sim.h"
#include "sim/comb_sim.h"
#include "sim/seq_sim.h"

namespace dft {

namespace {

using G = GateType;

Netlist make_rom() {
  Netlist nl("rom");
  std::vector<GateId> a(4);
  for (int i = 0; i < 4; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  const GateId en = nl.add_input("en");
  const GateId f0 = nl.add_gate(G::Xor, {a[0], a[3]}, "f0");
  const GateId f1 = nl.add_gate(G::Xnor, {a[1], a[2]}, "f1");
  const GateId t0 = nl.add_gate(G::And, {a[0], a[1]}, "t0");
  const GateId t1 = nl.add_gate(G::And, {a[2], a[3]}, "t1");
  const GateId f2 = nl.add_gate(G::Or, {t0, t1}, "f2");
  const GateId f3 = nl.add_gate(G::Not, {a[0]}, "f3");
  const GateId fs[4] = {f0, f1, f2, f3};
  for (int i = 0; i < 4; ++i) {
    const GateId d = nl.add_gate(G::Tristate, {fs[i], en},
                                 "dt" + std::to_string(i));
    nl.add_output(d, "d" + std::to_string(i));
  }
  return nl;
}

Netlist make_ram() {
  Netlist nl("ram");
  std::vector<GateId> b(4);
  for (int i = 0; i < 4; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  const GateId we = nl.add_input("we");
  const GateId ren = nl.add_input("ren");
  const GateId tie = nl.add_gate(G::Const0, {}, "tie");
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    const GateId r = nl.add_gate(G::Dff, {tie}, "r" + t);
    const GateId nxt = nl.add_gate(G::Mux, {r, b[i], we}, "nxt" + t);
    nl.set_fanin(r, kStoragePinD, nxt);
    const GateId d = nl.add_gate(G::Tristate, {r, ren}, "dt" + t);
    nl.add_output(d, "d" + t);
  }
  return nl;
}

Netlist make_cpu() {
  Netlist nl("cpu");
  std::vector<GateId> b(4);
  for (int i = 0; i < 4; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  const GateId op = nl.add_input("op");
  const GateId en = nl.add_input("en");
  const GateId tie = nl.add_gate(G::Const0, {}, "tie");
  std::vector<GateId> acc(4);
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    acc[i] = nl.add_gate(G::Dff, {tie}, "acc" + t);
    const GateId x = nl.add_gate(G::Xor, {acc[i], b[i]}, "x" + t);
    const GateId nxt = nl.add_gate(G::Mux, {acc[i], x, op}, "nxt" + t);
    nl.set_fanin(acc[i], kStoragePinD, nxt);
    const GateId d = nl.add_gate(G::Tristate, {acc[i], en}, "dt" + t);
    nl.add_output(d, "d" + t);
  }
  const GateId p01 = nl.add_gate(G::Xor, {acc[0], acc[1]}, "p01");
  const GateId p23 = nl.add_gate(G::Xor, {acc[2], acc[3]}, "p23");
  const GateId status = nl.add_gate(G::Xor, {p01, p23}, "status");
  nl.add_output(status, "status_o");
  return nl;
}

Netlist make_io() {
  Netlist nl("io");
  std::vector<GateId> b(4);
  for (int i = 0; i < 4; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  const GateId strobe = nl.add_input("strobe");
  const GateId en = nl.add_input("en");
  const GateId tie = nl.add_gate(G::Const0, {}, "tie");
  std::vector<GateId> l(4);
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    l[i] = nl.add_gate(G::Dff, {tie}, "l" + t);
    const GateId nxt = nl.add_gate(G::Mux, {l[i], b[i], strobe}, "nxt" + t);
    nl.set_fanin(l[i], kStoragePinD, nxt);
    const GateId d = nl.add_gate(G::Tristate, {l[i], en}, "dt" + t);
    nl.add_output(d, "d" + t);
  }
  const GateId irq = nl.add_gate(G::Or, {l[0], l[1], l[2], l[3]}, "irq");
  nl.add_output(irq, "irq_o");
  return nl;
}

Netlist make_ext() {
  Netlist nl("ext");
  const GateId en = nl.add_input("en");
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    const GateId e = nl.add_input("e" + t);
    const GateId d = nl.add_gate(G::Tristate, {e, en}, "dt" + t);
    nl.add_output(d, "d" + t);
  }
  return nl;
}

std::size_t input_index(const Netlist& nl, const std::string& name) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.label(nl.inputs()[i]) == name) return i;
  }
  throw std::invalid_argument("no board input named " + name);
}

}  // namespace

Microcomputer make_microcomputer_board() {
  Board board("ucomp");
  board.add_module("cpu", make_cpu());
  board.add_module("rom", make_rom());
  board.add_module("ram", make_ram());
  board.add_module("io", make_io());
  board.add_module("ext", make_ext());

  for (const char* n : {"a0", "a1", "a2", "a3", "sel_cpu", "sel_rom",
                        "sel_ram", "sel_io", "ext_en", "ext_d0", "ext_d1",
                        "ext_d2", "ext_d3", "cpu_op", "ram_we", "io_strobe"}) {
    board.add_board_input(n);
  }
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    board.add_bus("bus" + t, {"cpu.d" + t, "rom.d" + t, "ram.d" + t,
                              "io.d" + t, "ext.d" + t});
  }
  for (int i = 0; i < 4; ++i) {
    const std::string t = std::to_string(i);
    board.connect("bus" + t, "cpu.b" + t);
    board.connect("bus" + t, "ram.b" + t);
    board.connect("bus" + t, "io.b" + t);
    board.connect("a" + t, "rom.a" + t);
    board.connect("ext_d" + t, "ext.e" + t);
    board.add_board_output("obus" + t);
    board.connect("bus" + t, "obus" + t);
  }
  board.connect("sel_cpu", "cpu.en");
  board.connect("cpu_op", "cpu.op");
  board.connect("sel_rom", "rom.en");
  board.connect("sel_ram", "ram.ren");
  board.connect("ram_we", "ram.we");
  board.connect("sel_io", "io.en");
  board.connect("io_strobe", "io.strobe");
  board.connect("ext_en", "ext.en");
  board.add_board_output("ostatus");
  board.connect("cpu.status", "ostatus");
  board.add_board_output("oirq");
  board.connect("io.irq", "oirq");

  Microcomputer mc{board.flatten(),
                   {"sel_cpu", "sel_rom", "sel_ram", "sel_io"},
                   {"ext_d0", "ext_d1", "ext_d2", "ext_d3"},
                   "ext_en",
                   {"a0", "a1", "a2", "a3"},
                   {"obus0", "obus1", "obus2", "obus3"}};
  return mc;
}

std::vector<Fault> module_faults(const Netlist& flat,
                                 const std::string& instance) {
  const std::string prefix = instance + ".";
  std::vector<Fault> out;
  for (const Fault& f : collapse_faults(flat).representatives) {
    const std::string l = flat.label(f.gate);
    if (l.rfind(prefix, 0) == 0) out.push_back(f);
  }
  return out;
}

double bus_module_coverage(const Microcomputer& mc,
                           const std::string& instance, bool isolate,
                           int patterns, std::uint64_t seed) {
  // This board has no scan: test it the way a real tester would -- clocked
  // sequences at the edge connector, observing only the edge outputs. With
  // isolation, EXT and the module under test alternate bus ownership
  // (write cycles then read cycles); without it, every driver is enabled
  // and the bus is in permanent contention.
  const Netlist& nl = mc.flat;
  const std::size_t ext_en = input_index(nl, mc.ext_enable);
  std::vector<std::size_t> sels;
  for (const auto& s : mc.select_inputs) sels.push_back(input_index(nl, s));
  const std::size_t own_sel = input_index(nl, "sel_" + instance);
  const auto& pis = nl.inputs();

  const auto faults = module_faults(nl, instance);
  const int cycles = 8;
  const int sequences = std::max(1, patterns / cycles);

  int caught = 0;
  SeqSim good(nl);
  SeqSim bad(good);  // shares good's compiled program
  for (const Fault& f : faults) {
    std::mt19937_64 rng(seed);
    bad.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
    bool det = false;
    for (int s = 0; s < sequences && !det; ++s) {
      good.reset(Logic::Zero);
      bad.reset(Logic::Zero);
      for (int t = 0; t < cycles && !det; ++t) {
        std::vector<Logic> in(pis.size());
        for (auto& v : in) v = to_logic((rng() & 1) != 0);
        if (isolate) {
          for (std::size_t si : sels) in[si] = Logic::Zero;
          if ((t & 1) == 0) {
            in[ext_en] = Logic::One;  // EXT writes the bus
          } else {
            in[ext_en] = Logic::Zero;
            in[own_sel] = Logic::One;  // module under test drives / is read
          }
        } else {
          for (std::size_t si : sels) in[si] = Logic::One;
          in[ext_en] = Logic::One;
        }
        good.set_inputs(in);
        bad.set_inputs(in);
        good.evaluate();
        bad.evaluate();
        const auto a = good.output_values();
        const auto b = bad.output_values();
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (is_binary(a[i]) && is_binary(b[i]) && a[i] != b[i]) det = true;
        }
        good.clock();
        bad.clock();
      }
    }
    caught += det;
  }
  return faults.empty()
             ? 1.0
             : static_cast<double>(caught) / static_cast<double>(faults.size());
}

bool bus_fault_ambiguous(const Microcomputer& mc, const std::string& instance,
                         int patterns, std::uint64_t seed) {
  const Netlist& nl = mc.flat;
  const GateId bus0 = *nl.find("bus0");
  const GateId drv0 = *nl.find(instance + ".dt0");
  std::mt19937_64 rng(seed);
  CombSim a(nl), b(nl);
  a.set_stuck({bus0, -1, Logic::Zero});
  b.set_stuck({drv0, -1, Logic::Zero});
  const std::size_t ext_en = input_index(nl, mc.ext_enable);
  std::vector<std::size_t> sels;
  for (const auto& s : mc.select_inputs) sels.push_back(input_index(nl, s));
  const std::size_t own_sel = input_index(nl, "sel_" + instance);

  for (int p = 0; p < patterns; ++p) {
    SourceVector v = random_source_vector(nl, rng);
    for (std::size_t s : sels) v[s] = Logic::Zero;
    v[ext_en] = Logic::Zero;
    v[own_sel] = Logic::One;  // only this module drives the bus

    for (CombSim* sim : {&a, &b}) {
      const auto& pis = nl.inputs();
      const auto& ffs = nl.storage();
      for (std::size_t i = 0; i < pis.size(); ++i) sim->set_value(pis[i], v[i]);
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        sim->set_value(ffs[i], v[pis.size() + i]);
      }
      sim->evaluate();
    }
    if (a.output_values() != b.output_values()) return false;
    for (GateId ff : nl.storage()) {
      if (a.next_state(ff) != b.next_state(ff)) return false;
    }
  }
  return true;
}

}  // namespace dft
