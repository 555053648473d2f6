#include "netlist/compiled.h"

#include <numeric>

namespace dft {

CompiledNetlist::CompiledNetlist(const Netlist& nl)
    : inputs_(nl.inputs()), outputs_(nl.outputs()), storage_(nl.storage()) {
  const std::size_t n = nl.size();
  nl.topo_order();  // builds (or validates) fanouts + levels; throws on cycles

  types_.resize(n);
  levels_.resize(n);
  for (GateId g = 0; g < n; ++g) {
    types_[g] = nl.type(g);
    levels_[g] = nl.levels()[g];
  }
  depth_ = nl.depth();

  // Fanin CSR, preserving pin order (pin p of g is fanin(g)[p]).
  fanin_offset_.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    fanin_offset_[g + 1] =
        fanin_offset_[g] + static_cast<std::uint32_t>(nl.fanin(g).size());
  }
  fanin_.reserve(fanin_offset_[n]);
  for (GateId g = 0; g < n; ++g) {
    const auto& fin = nl.fanin(g);
    fanin_.insert(fanin_.end(), fin.begin(), fin.end());
  }

  // Fanout CSR, preserving the cache's order (ascending sink id, one entry
  // per driven pin -- a gate feeding two pins of one sink appears twice,
  // exactly like Netlist::fanout()).
  fanout_offset_.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    fanout_offset_[g + 1] =
        fanout_offset_[g] + static_cast<std::uint32_t>(nl.fanout(g).size());
  }
  fanout_.reserve(fanout_offset_[n]);
  for (GateId g = 0; g < n; ++g) {
    const auto& fo = nl.fanout(g);
    fanout_.insert(fanout_.end(), fo.begin(), fo.end());
  }

  // Combinational gates in (level, id) order: a counting sort by level over
  // ascending ids, so the order is deterministic and each level is one
  // contiguous span the event wheel can address.
  level_offset_.assign(static_cast<std::size_t>(depth_) + 2, 0);
  for (GateId g = 0; g < n; ++g) {
    if (is_combinational(types_[g])) {
      ++level_offset_[static_cast<std::size_t>(levels_[g]) + 1];
    }
  }
  std::partial_sum(level_offset_.begin(), level_offset_.end(),
                   level_offset_.begin());
  topo_.resize(level_offset_.back());
  std::vector<std::uint32_t> next(level_offset_.begin(),
                                  level_offset_.end() - 1);
  for (GateId g = 0; g < n; ++g) {
    if (is_combinational(types_[g])) {
      topo_[next[static_cast<std::size_t>(levels_[g])]++] = g;
    }
  }
}

}  // namespace dft
