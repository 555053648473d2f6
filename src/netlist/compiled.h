// Compiled structure-of-arrays netlist form for simulation hot loops.
//
// Netlist stores fanins as vector<vector<GateId>> and builds fanout/topo
// caches lazily -- convenient to mutate, hostile to the fault-simulation
// inner loop (Eq. 1 makes that loop the cost of everything downstream:
// every gate evaluation chases two pointers and every cached lookup is
// bounds-checked). CompiledNetlist freezes one immutable snapshot into flat
// CSR arrays:
//
//   * fanin / fanout edges in two CSR (offset + flat id) pairs,
//   * gate types and logic levels as plain arrays,
//   * the combinational evaluation order sorted by (level, id), so gates of
//     one level occupy one contiguous bucket -- the event wheel of the
//     event-driven fault kernel indexes levels directly into it,
//   * the primary inputs, primary outputs and storage elements in netlist
//     order, so a test pattern's sources (inputs first, then storage
//     outputs) and the full-scan observation points come from the snapshot.
//
// The snapshot shares nothing with the source netlist and never mutates, so
// any number of worker threads can read one instance concurrently (the
// PPSFP fault simulator builds one and hands it to every worker's machine).
// Accessors are asserted, not bounds-checked: callers index with ids the
// snapshot itself handed out.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace dft {

class CompiledNetlist {
 public:
  // Snapshots `nl` (levels/fanouts are built on demand if not yet cached).
  // Throws std::runtime_error on a combinational cycle, like topo_order().
  explicit CompiledNetlist(const Netlist& nl);

  std::size_t size() const { return types_.size(); }

  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  std::span<const GateId> storage() const { return storage_; }
  // Entries of one test pattern: inputs() then storage().
  std::size_t source_count() const { return inputs_.size() + storage_.size(); }

  GateType type(GateId g) const {
    assert(g < types_.size());
    return types_[g];
  }
  int level(GateId g) const {
    assert(g < levels_.size());
    return levels_[g];
  }
  // Max combinational level; the event wheel has depth()+1 slots.
  int depth() const { return depth_; }

  std::span<const GateId> fanin(GateId g) const {
    assert(g + 1 < fanin_offset_.size());
    return {fanin_.data() + fanin_offset_[g],
            fanin_.data() + fanin_offset_[g + 1]};
  }
  std::span<const GateId> fanout(GateId g) const {
    assert(g + 1 < fanout_offset_.size());
    return {fanout_.data() + fanout_offset_[g],
            fanout_.data() + fanout_offset_[g + 1]};
  }

  // Every combinational gate, sorted by (level, id): a valid evaluation
  // order (all of a gate's fanins live at strictly lower levels or are
  // sources) with each level contiguous.
  std::span<const GateId> topo() const { return topo_; }

  // Gates of `lvl` within topo(): topo()[level_begin(lvl) .. level_begin(lvl+1)).
  std::size_t level_begin(int lvl) const {
    assert(lvl >= 0 && static_cast<std::size_t>(lvl) + 1 < level_offset_.size());
    return level_offset_[static_cast<std::size_t>(lvl)];
  }
  std::size_t level_end(int lvl) const {
    return level_offset_[static_cast<std::size_t>(lvl) + 1];
  }

 private:
  std::vector<GateType> types_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> storage_;
  std::vector<std::int32_t> levels_;
  std::vector<std::uint32_t> fanin_offset_;
  std::vector<GateId> fanin_;
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<GateId> fanout_;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> level_offset_;
  int depth_ = 0;
};

}  // namespace dft
