// Structural gate-level netlist.
//
// A gate and the net it drives share one id (single-driver discipline; buses
// are modeled with an explicit Bus resolution gate fed by Tristate drivers).
// This is the substrate every other module operates on: simulators, fault
// universe, testability measures, ATPG, scan insertion, and BIST.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"

namespace dft {

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // --- Construction -------------------------------------------------------

  // Adds a gate driven by `fanin` and returns its id. Throws
  // std::invalid_argument on bad arity or dangling fanin ids.
  GateId add_gate(GateType type, std::vector<GateId> fanin,
                  std::string name = {});

  GateId add_input(std::string name = {}) {
    return add_gate(GateType::Input, {}, std::move(name));
  }
  GateId add_output(GateId driver, std::string name = {}) {
    return add_gate(GateType::Output, {driver}, std::move(name));
  }

  // Makes room for `gates` gates in all, so a builder that knows its size
  // up front allocates each per-gate array once.
  void reserve(std::size_t gates);

  // Rewires a single fanin pin. Invalidates cached fanout/levels.
  void set_fanin(GateId gate, int pin, GateId driver);

  // Converts a storage element between storage types (e.g. Dff -> Srl during
  // scan insertion). `scan_in` must be supplied when converting a plain Dff
  // to a 2-pin scannable type that requires a scan-data fanin.
  void convert_storage(GateId gate, GateType new_type,
                       std::optional<GateId> scan_in = std::nullopt);

  // Assigns or reassigns a name; throws on duplicates.
  void set_name(GateId gate, std::string name);

  // --- Queries -------------------------------------------------------------

  std::size_t size() const { return types_.size(); }
  const std::string& name() const { return name_; }
  void set_netlist_name(std::string n) { name_ = std::move(n); }

  GateType type(GateId g) const { return types_.at(g); }
  const std::vector<GateId>& fanin(GateId g) const { return fanins_.at(g); }
  std::string_view gate_name(GateId g) const { return names_.at(g); }

  // Display label: the gate's name, or "g<id>" when unnamed.
  std::string label(GateId g) const;

  std::optional<GateId> find(std::string_view name) const;

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  const std::vector<GateId>& storage() const { return storage_; }

  // Fanout lists (computed on demand, cached until the netlist is mutated).
  const std::vector<GateId>& fanout(GateId g) const;

  // Topological order over combinational gates; storage outputs and primary
  // inputs act as sources. Throws std::runtime_error on a combinational
  // cycle (the survey's structured rules forbid them).
  const std::vector<GateId>& topo_order() const;

  // Logic level of each gate: sources are 0; a combinational gate is
  // 1 + max(level of fanins). Valid after topo_order().
  const std::vector<int>& levels() const;
  int depth() const;  // max combinational level

  // Transitive fanout cone of `g` over combinational edges (includes g).
  std::vector<GateId> fanout_cone(GateId g) const;
  // Transitive fanin cone of `g` over combinational edges (includes g);
  // stops at sources and storage outputs.
  std::vector<GateId> fanin_cone(GateId g) const;

  // Equivalent 2-input-gate count (overhead accounting, Secs. IV-V).
  int gate_equivalents() const;
  // Number of gates of a given type.
  int count(GateType t) const;

  // Structural sanity check; throws std::runtime_error with a description
  // of the first violation (dangling pins, bad bus drivers, ...).
  void validate() const;

 private:
  void invalidate_caches();
  void check_gate(GateId g) const;

  std::string name_;
  std::vector<GateType> types_;
  std::vector<std::vector<GateId>> fanins_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, GateId> by_name_;

  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> storage_;

  mutable bool caches_valid_ = false;
  mutable std::vector<std::vector<GateId>> fanouts_;
  mutable std::vector<GateId> topo_;
  mutable std::vector<int> levels_;
  mutable int depth_ = 0;
};

// Copies `sub`'s logic into `into`, driven by `sources` (sub's primary
// inputs, then its storage outputs, in order): each constant of sub, then
// each combinational gate in sub's topological order, is added anew as
// prefix + its label. Returns the nets that drive sub's primary outputs,
// then its storage elements' D pins. Sub's own inputs, outputs and storage
// are not copied.
std::vector<GateId> inline_netlist(Netlist& into, const Netlist& sub,
                                   const std::vector<GateId>& sources,
                                   const std::string& prefix);

}  // namespace dft
