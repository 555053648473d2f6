#include "fault/fault.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dft {

namespace {

// Disjoint-set forest over fault indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

bool has_output_faults(const Netlist& nl, GateId g) {
  return nl.type(g) != GateType::Output && !nl.fanout(g).empty();
}

bool has_pin_faults(const Netlist& nl, GateId g, int pin) {
  const GateType t = nl.type(g);
  if (t == GateType::Output) return false;
  if (is_storage(t)) return pin == kStoragePinD;
  return is_combinational(t);
}

}  // namespace

std::string fault_name(const Netlist& nl, const Fault& f) {
  std::string s = nl.label(f.gate);
  if (f.pin >= 0) {
    s += ".in" + std::to_string(f.pin) + "(" +
         nl.label(nl.fanin(f.gate)[static_cast<std::size_t>(f.pin)]) + ")";
  }
  return s + (f.sa1 ? "/1" : "/0");
}

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  std::vector<Fault> out;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (has_output_faults(nl, g)) {
      out.push_back({g, -1, false});
      out.push_back({g, -1, true});
    }
    const int npins = static_cast<int>(nl.fanin(g).size());
    for (int p = 0; p < npins; ++p) {
      if (has_pin_faults(nl, g, p)) {
        out.push_back({g, p, false});
        out.push_back({g, p, true});
      }
    }
  }
  return out;
}

CollapseResult collapse_faults(const Netlist& nl) {
  CollapseResult res;
  res.universe = enumerate_faults(nl);
  const std::size_t nu = res.universe.size();
  // Dense fault index: site (g, pin, sa1) is slot site_begin[g] +
  // 2 * (pin + 1) + sa1, holding its universe index or kAbsent.
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> site_begin(nl.size() + 1, 0);
  for (GateId g = 0; g < nl.size(); ++g) {
    site_begin[g + 1] = site_begin[g] + 2 * (nl.fanin(g).size() + 1);
  }
  const auto slot_of = [&](const Fault& f) {
    return site_begin[f.gate] + 2 * static_cast<std::size_t>(f.pin + 1) +
           (f.sa1 ? 1 : 0);
  };
  std::vector<std::size_t> index(site_begin.back(), kAbsent);
  for (std::size_t i = 0; i < nu; ++i) index[slot_of(res.universe[i])] = i;
  UnionFind uf(nu);
  auto unite = [&](const Fault& a, const Fault& b) {
    const std::size_t ia = index[slot_of(a)];
    const std::size_t ib = index[slot_of(b)];
    if (ia != kAbsent && ib != kAbsent) uf.unite(ia, ib);
  };

  // Rule 1: a stem with exactly one sink connection is the same net as that
  // sink pin.
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!has_output_faults(nl, g)) continue;
    int connections = 0;
    GateId sink = kNoGate;
    int sink_pin = -1;
    for (GateId s : nl.fanout(g)) {
      const auto& fin = nl.fanin(s);
      for (std::size_t p = 0; p < fin.size(); ++p) {
        if (fin[p] == g) {
          ++connections;
          sink = s;
          sink_pin = static_cast<int>(p);
        }
      }
    }
    if (connections == 1 && has_pin_faults(nl, sink, sink_pin)) {
      unite({g, -1, false}, {sink, sink_pin, false});
      unite({g, -1, true}, {sink, sink_pin, true});
    }
  }

  // Rule 2: controlling-value input faults are equivalent to the implied
  // output fault; inverters/buffers map through.
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType t = nl.type(g);
    const int npins = static_cast<int>(nl.fanin(g).size());
    auto unite_all_pins = [&](bool pin_v, bool out_v) {
      for (int p = 0; p < npins; ++p) {
        if (has_pin_faults(nl, g, p)) unite({g, p, pin_v}, {g, -1, out_v});
      }
    };
    switch (t) {
      case GateType::And: unite_all_pins(false, false); break;
      case GateType::Nand: unite_all_pins(false, true); break;
      case GateType::Or: unite_all_pins(true, true); break;
      case GateType::Nor: unite_all_pins(true, false); break;
      case GateType::Buf:
        unite_all_pins(false, false);
        unite_all_pins(true, true);
        break;
      case GateType::Not:
        unite_all_pins(false, true);
        unite_all_pins(true, false);
        break;
      default: break;  // XOR-family, MUX, bus logic: no structural equivalences
    }
  }

  // Extract representatives: the smallest member of each class.
  // enumerate_faults lists the universe in ascending order, so a class's
  // first member is its smallest and the representatives come out sorted.
  assert(std::is_sorted(res.universe.begin(), res.universe.end()));
  std::vector<int> rep_of_root(nu, -1);
  res.rep_index_of_universe.resize(nu);
  for (std::size_t i = 0; i < nu; ++i) {
    int& rep = rep_of_root[uf.find(i)];
    if (rep < 0) {
      rep = static_cast<int>(res.representatives.size());
      res.representatives.push_back(res.universe[i]);
    }
    res.rep_index_of_universe[i] = rep;
  }
  return res;
}

std::vector<Fault> checkpoint_faults(const Netlist& nl) {
  std::vector<Fault> out;
  for (GateId g : nl.inputs()) {
    if (!nl.fanout(g).empty()) {
      out.push_back({g, -1, false});
      out.push_back({g, -1, true});
    }
  }
  for (GateId g : nl.storage()) {
    if (!nl.fanout(g).empty()) {
      out.push_back({g, -1, false});
      out.push_back({g, -1, true});
    }
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.type(g) == GateType::Output || is_storage(nl.type(g)) ||
        nl.type(g) == GateType::Input) {
      continue;
    }
    // Branch pins: pins whose driving stem has more than one connection.
    const auto& fin = nl.fanin(g);
    for (std::size_t p = 0; p < fin.size(); ++p) {
      const GateId d = fin[p];
      int connections = 0;
      for (GateId s : nl.fanout(d)) {
        for (GateId f : nl.fanin(s)) connections += f == d;
      }
      if (connections > 1 && has_pin_faults(nl, g, static_cast<int>(p))) {
        out.push_back({g, static_cast<int>(p), false});
        out.push_back({g, static_cast<int>(p), true});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dft
