#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dft {

namespace {

void check_arity(GateType type, std::size_t n) {
  const FaninArity a = fanin_arity(type);
  const bool ok = n >= static_cast<std::size_t>(a.min) &&
                  (a.max < 0 || n <= static_cast<std::size_t>(a.max));
  if (!ok) {
    throw std::invalid_argument(std::string(gate_type_name(type)) +
                                " gate given " + std::to_string(n) +
                                " fanins");
  }
}

}  // namespace

GateId Netlist::add_gate(GateType type, std::vector<GateId> fanin,
                         std::string name) {
  check_arity(type, fanin.size());
  const GateId id = static_cast<GateId>(types_.size());
  for (GateId f : fanin) {
    if (f >= id) {
      throw std::invalid_argument("fanin id " + std::to_string(f) +
                                  " does not name an existing gate");
    }
  }
  types_.push_back(type);
  fanins_.push_back(std::move(fanin));
  names_.emplace_back();
  if (!name.empty()) set_name(id, std::move(name));

  if (type == GateType::Input) inputs_.push_back(id);
  if (type == GateType::Output) outputs_.push_back(id);
  if (is_storage(type)) storage_.push_back(id);
  invalidate_caches();
  return id;
}

void Netlist::reserve(std::size_t gates) {
  types_.reserve(gates);
  fanins_.reserve(gates);
  names_.reserve(gates);
  by_name_.reserve(gates);
}

void Netlist::set_fanin(GateId gate, int pin, GateId driver) {
  check_gate(gate);
  check_gate(driver);
  auto& f = fanins_.at(gate);
  if (pin < 0 || static_cast<std::size_t>(pin) >= f.size()) {
    throw std::invalid_argument("pin out of range");
  }
  f[static_cast<std::size_t>(pin)] = driver;
  invalidate_caches();
}

void Netlist::convert_storage(GateId gate, GateType new_type,
                              std::optional<GateId> scan_in) {
  check_gate(gate);
  if (!is_storage(types_.at(gate)) || !is_storage(new_type)) {
    throw std::invalid_argument(
        "convert_storage only converts between storage types");
  }
  auto& f = fanins_.at(gate);
  const GateId d = f.at(kStoragePinD);
  const int want = fanin_arity(new_type).min;
  if (want == 2) {
    if (!scan_in && f.size() < 2) {
      throw std::invalid_argument("conversion requires a scan-in driver");
    }
    const GateId si = scan_in ? *scan_in : f.at(kStoragePinScanIn);
    check_gate(si);
    f = {d, si};
  } else {
    f = {d};
  }
  types_.at(gate) = new_type;
  invalidate_caches();
}

void Netlist::set_name(GateId gate, std::string name) {
  check_gate(gate);
  if (name.empty()) throw std::invalid_argument("empty gate name");
  auto [it, inserted] = by_name_.try_emplace(name, gate);
  if (!inserted && it->second != gate) {
    throw std::invalid_argument("duplicate gate name: " + name);
  }
  auto& old = names_.at(gate);
  if (!old.empty() && old != name) by_name_.erase(old);
  old = std::move(name);
}

std::string Netlist::label(GateId g) const {
  const auto& n = names_.at(g);
  return n.empty() ? "g" + std::to_string(g) : n;
}

std::optional<GateId> Netlist::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

const std::vector<GateId>& Netlist::fanout(GateId g) const {
  if (!caches_valid_) topo_order();  // rebuilds all caches
  return fanouts_.at(g);
}

const std::vector<GateId>& Netlist::topo_order() const {
  if (caches_valid_) return topo_;

  const std::size_t n = types_.size();
  fanouts_.assign(n, {});
  for (GateId g = 0; g < n; ++g) {
    for (GateId f : fanins_[g]) fanouts_[f].push_back(g);
  }

  // Kahn's algorithm over combinational edges: an edge into a storage
  // element does not constrain ordering (storage outputs are sources).
  std::vector<int> pending(n, 0);
  for (GateId g = 0; g < n; ++g) {
    if (is_combinational(types_[g])) {
      pending[g] = static_cast<int>(fanins_[g].size());
    }
  }
  topo_.clear();
  topo_.reserve(n);
  levels_.assign(n, 0);
  std::vector<GateId> ready;
  for (GateId g = 0; g < n; ++g) {
    if (pending[g] == 0) ready.push_back(g);
  }
  std::size_t head = 0;
  std::vector<GateId> order;
  order.reserve(n);
  while (head < ready.size()) {
    const GateId g = ready[head++];
    order.push_back(g);
    for (GateId s : fanouts_[g]) {
      if (!is_combinational(types_[s])) continue;
      levels_[s] = std::max(levels_[s], levels_[g] + 1);
      if (--pending[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n) {
    throw std::runtime_error("netlist '" + name_ +
                             "' contains a combinational cycle");
  }
  // topo_ keeps only gates the combinational simulator must evaluate.
  for (GateId g : order) {
    if (is_combinational(types_[g])) topo_.push_back(g);
  }
  depth_ = 0;
  for (int l : levels_) depth_ = std::max(depth_, l);
  caches_valid_ = true;
  return topo_;
}

const std::vector<int>& Netlist::levels() const {
  topo_order();
  return levels_;
}

int Netlist::depth() const {
  topo_order();
  return depth_;
}

std::vector<GateId> Netlist::fanout_cone(GateId g) const {
  topo_order();
  std::vector<bool> seen(size(), false);
  std::vector<GateId> stack{g}, cone;
  seen[g] = true;
  while (!stack.empty()) {
    const GateId cur = stack.back();
    stack.pop_back();
    cone.push_back(cur);
    if (cur != g && !is_combinational(types_[cur])) continue;  // stop at FF/PO
    for (GateId s : fanouts_[cur]) {
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return cone;
}

std::vector<GateId> Netlist::fanin_cone(GateId g) const {
  topo_order();
  std::vector<bool> seen(size(), false);
  std::vector<GateId> stack{g}, cone;
  seen[g] = true;
  while (!stack.empty()) {
    const GateId cur = stack.back();
    stack.pop_back();
    cone.push_back(cur);
    if (cur != g && !is_combinational(types_[cur])) continue;  // stop at FF/PI
    for (GateId f : fanins_[cur]) {
      if (!seen[f]) {
        seen[f] = true;
        stack.push_back(f);
      }
    }
  }
  return cone;
}

int Netlist::gate_equivalents() const {
  int total = 0;
  for (GateId g = 0; g < size(); ++g) {
    total += gate_cost(types_[g], static_cast<int>(fanins_[g].size()));
  }
  return total;
}

int Netlist::count(GateType t) const {
  return static_cast<int>(std::count(types_.begin(), types_.end(), t));
}

void Netlist::validate() const {
  for (GateId g = 0; g < size(); ++g) {
    check_arity(types_[g], fanins_[g].size());
    for (GateId f : fanins_[g]) {
      if (f >= size()) throw std::runtime_error("dangling fanin on " + label(g));
      if (types_[g] == GateType::Bus && types_[f] != GateType::Tristate) {
        throw std::runtime_error("bus " + label(g) +
                                 " driven by non-tristate gate " + label(f));
      }
    }
  }
  topo_order();  // throws on combinational cycles
  for (GateId g : outputs_) {
    if (types_[g] != GateType::Output) {
      throw std::runtime_error("outputs_ list corrupt");
    }
  }
}

void Netlist::invalidate_caches() { caches_valid_ = false; }

void Netlist::check_gate(GateId g) const {
  if (g >= size()) {
    throw std::invalid_argument("gate id " + std::to_string(g) +
                                " out of range");
  }
}

std::vector<GateId> inline_netlist(Netlist& into, const Netlist& sub,
                                   const std::vector<GateId>& sources,
                                   const std::string& prefix) {
  std::vector<GateId> map(sub.size(), kNoGate);
  const auto& pis = sub.inputs();
  const auto& ffs = sub.storage();
  for (std::size_t i = 0; i < pis.size(); ++i) map[pis[i]] = sources[i];
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    map[ffs[i]] = sources[pis.size() + i];
  }
  for (GateId g = 0; g < sub.size(); ++g) {
    const GateType t = sub.type(g);
    if (t == GateType::Const0 || t == GateType::Const1) {
      map[g] = into.add_gate(t, {}, prefix + sub.label(g));
    }
  }
  for (GateId g : sub.topo_order()) {
    if (sub.type(g) == GateType::Output) continue;
    std::vector<GateId> fin;
    for (GateId x : sub.fanin(g)) fin.push_back(map[x]);
    map[g] = into.add_gate(sub.type(g), std::move(fin), prefix + sub.label(g));
  }
  std::vector<GateId> outs;
  for (GateId po : sub.outputs()) outs.push_back(map[sub.fanin(po)[0]]);
  for (GateId ff : ffs) outs.push_back(map[sub.fanin(ff)[kStoragePinD]]);
  return outs;
}

}  // namespace dft
