#include "fault/fault.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace dft {

namespace {

// Disjoint-set forest over fault indices; a class's root is its smallest
// member, so no parent is larger than its child.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a < b) std::swap(a, b);
    parent_[a] = b;
  }
  int classes() const {
    int n = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      n += parent_[i] == static_cast<int>(i);
    }
    return n;
  }
  // Numbers the classes 0, 1, ... in order of their smallest members and
  // returns every element's class number in the forest's own storage. An
  // ascending pass finds each non-root's parent already numbered.
  std::vector<int> class_numbers() && {
    int next = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      const int p = parent_[i];
      parent_[i] = p == static_cast<int>(i) ? next++ : parent_[p];
    }
    return std::move(parent_);
  }

 private:
  std::vector<int> parent_;
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

// Unites the structurally equivalent faults of `universe` (in
// enumerate_faults order). The dense site index lives only for this call.
void unite_equivalent_faults(const Netlist& nl,
                             const std::vector<Fault>& universe,
                             UnionFind& uf) {
  // Dense fault index: site (g, pin, sa1) is slot site_begin[g] +
  // 2 * (pin + 1) + sa1, holding its universe index or kAbsent.
  constexpr int kAbsent = -1;
  const auto nu = static_cast<int>(universe.size());
  std::vector<std::uint32_t> site_begin(nl.size() + 1, 0);
  for (GateId g = 0; g < nl.size(); ++g) {
    site_begin[g + 1] = site_begin[g] +
        2 * static_cast<std::uint32_t>(nl.fanin(g).size() + 1);
  }
  const auto slot_of = [&](const Fault& f) {
    return site_begin[f.gate] + 2 * static_cast<std::uint32_t>(f.pin + 1) +
           (f.sa1 ? 1u : 0u);
  };
  std::vector<int> index(site_begin.back(), kAbsent);
  for (int i = 0; i < nu; ++i) index[slot_of(universe[i])] = i;
  auto unite = [&](const Fault& a, const Fault& b) {
    const int ia = index[slot_of(a)];
    const int ib = index[slot_of(b)];
    if (ia != kAbsent && ib != kAbsent) uf.unite(ia, ib);
  };

  // Rule 1: a stem with exactly one sink connection is the same net as that
  // sink pin. One walk over every fanin pin counts each stem's connections
  // and keeps its last one (a stem may feed thousands of pins, so scanning
  // its sinks' fanin lists would be quadratic).
  struct Connection {
    std::uint32_t count = 0;
    GateId sink = kNoGate;
    int pin = -1;
  };
  std::vector<Connection> conn(nl.size());
  for (GateId s = 0; s < nl.size(); ++s) {
    const auto& fin = nl.fanin(s);
    for (std::size_t p = 0; p < fin.size(); ++p) {
      Connection& c = conn[fin[p]];
      ++c.count;
      c.sink = s;
      c.pin = static_cast<int>(p);
    }
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    const Connection& c = conn[g];
    if (c.count == 1 && has_output_faults(nl, g) &&
        has_pin_faults(nl, c.sink, c.pin)) {
      unite({g, -1, false}, {c.sink, c.pin, false});
      unite({g, -1, true}, {c.sink, c.pin, true});
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
  // Count first so the list is allocated once, at its exact size.
  std::size_t n = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    n += has_output_faults(nl, g) ? 2 : 0;
    const int npins = static_cast<int>(nl.fanin(g).size());
    for (int p = 0; p < npins; ++p) n += has_pin_faults(nl, g, p) ? 2 : 0;
  }
  std::vector<Fault> out;
  out.reserve(n);
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
  UnionFind uf(static_cast<int>(res.universe.size()));
  unite_equivalent_faults(nl, res.universe, uf);

  // Extract representatives: the smallest member of each class.
  // enumerate_faults lists the universe in ascending order, so a class's
  // first member is its smallest and the representatives come out sorted.
  assert(std::is_sorted(res.universe.begin(), res.universe.end()));
  res.representatives.reserve(static_cast<std::size_t>(uf.classes()));
  res.rep_index_of_universe = std::move(uf).class_numbers();
  for (std::size_t i = 0; i < res.universe.size(); ++i) {
    if (res.rep_index_of_universe[i] ==
        static_cast<int>(res.representatives.size())) {
      res.representatives.push_back(res.universe[i]);
    }
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
