#include "lint/rule.h"

#include <algorithm>

namespace dft {

LintContext::LintContext(const Netlist& netlist, const LintOptions& options,
                         const sta::StaticAnalyzer* shared_sta)
    : nl(netlist), opt(options), sta_(shared_sta) {
  fanouts_.assign(nl.size(), {});
  for (GateId g = 0; g < nl.size(); ++g) {
    for (GateId f : nl.fanin(g)) {
      if (f < nl.size()) fanouts_[f].push_back(g);
    }
  }
}

// Tarjan's SCC, iterative, over the combinational subgraph (edges between
// combinational gates only; sources and storage outputs cut the graph the
// same way Netlist::topo_order() treats them). A component is a cycle when
// it has >= 2 members or a self-edge.
const std::vector<std::vector<GateId>>& LintContext::comb_cycles() {
  if (cycles_) return *cycles_;
  const std::size_t n = nl.size();
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<GateId> stack;
  std::vector<std::vector<GateId>> sccs;
  int next_index = 0;

  struct Frame {
    GateId g;
    std::size_t edge = 0;
  };
  for (GateId root = 0; root < n; ++root) {
    if (index[root] != -1 || !is_combinational(nl.type(root))) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto& fo = fanouts_[fr.g];
      if (fr.edge < fo.size()) {
        const GateId s = fo[fr.edge++];
        if (!is_combinational(nl.type(s))) continue;
        if (index[s] == -1) {
          index[s] = low[s] = next_index++;
          stack.push_back(s);
          on_stack[s] = 1;
          frames.push_back({s, 0});
        } else if (on_stack[s]) {
          low[fr.g] = std::min(low[fr.g], index[s]);
        }
      } else {
        const GateId g = fr.g;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().g] = std::min(low[frames.back().g], low[g]);
        }
        if (low[g] == index[g]) {
          std::vector<GateId> scc;
          GateId m;
          do {
            m = stack.back();
            stack.pop_back();
            on_stack[m] = 0;
            scc.push_back(m);
          } while (m != g);
          const bool self_loop =
              scc.size() == 1 &&
              std::count(nl.fanin(g).begin(), nl.fanin(g).end(), g) > 0;
          if (scc.size() >= 2 || self_loop) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      }
    }
  }
  std::sort(sccs.begin(), sccs.end());
  cycles_ = std::move(sccs);
  return *cycles_;
}

const ScoapResult* LintContext::scoap() {
  if (!scoap_tried_) {
    scoap_tried_ = true;
    if (!has_comb_cycle()) {
      // Full-scan view when every storage element is already scannable,
      // sequential view otherwise (Sec. II).
      bool full_scan = true;
      for (GateId g : nl.storage()) {
        if (!is_scannable_storage(nl.type(g))) full_scan = false;
      }
      scoap_ = compute_scoap(
          nl, full_scan ? ScoapMode::FullScan : ScoapMode::Sequential);
    }
  }
  return scoap_ ? &*scoap_ : nullptr;
}

const CopResult* LintContext::cop() {
  if (!cop_tried_) {
    cop_tried_ = true;
    if (!has_comb_cycle()) cop_ = compute_cop(nl);
  }
  return cop_ ? &*cop_ : nullptr;
}

const sta::StaticAnalyzer* LintContext::sta() {
  if (!sta_tried_) {
    sta_tried_ = true;
    if (has_comb_cycle()) {
      sta_ = nullptr;
    } else if (sta_ == nullptr) {
      own_sta_ = std::make_unique<sta::StaticAnalyzer>(nl);
      sta_ = own_sta_.get();
    }
  }
  return sta_;
}

}  // namespace dft
