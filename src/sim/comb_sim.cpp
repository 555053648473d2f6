#include "sim/comb_sim.h"

#include <array>
#include <numeric>
#include <stdexcept>

#include "netlist/compiled.h"
#include "sim/eval.h"

namespace dft {

struct CombSim::Program {
  // A maximal stretch of ops of one gate type: ops [previous end, end).
  struct Run {
    GateType type;
    std::uint32_t end;
  };
  std::vector<GateId> gate;                // op -> the gate it evaluates
  std::vector<std::uint32_t> fanin_begin;  // op -> offset into fanin; ops+1
  std::vector<GateId> fanin;
  std::vector<Run> runs;
  std::vector<GateId> const0;
  std::vector<GateId> const1;
};

namespace {

constexpr std::size_t kGateTypes =
    static_cast<std::size_t>(GateType::AddressableLatch) + 1;

// Dual-rail code of a net value: bit 0 "may be 0", bit 1 "may be 1".
constexpr std::uint8_t kRails[4] = {0b01, 0b10, 0b11, 0b11};

inline unsigned rails(const Logic* v, GateId g) {
  return kRails[static_cast<unsigned>(v[g])];
}
// The inverse on the three codes a fold yields: 01 -> 0, 10 -> 1, 11 -> X.
inline Logic from_rails(unsigned r) { return static_cast<Logic>(r - 1); }
inline unsigned swap_rails(unsigned r) { return ((r & 1u) << 1) | (r >> 1); }

template <GateType T>
inline Logic fold(const GateId* f, std::uint32_t n, const Logic* v) {
  if constexpr (T == GateType::Buf) {
    return from_rails(rails(v, f[0]));
  } else if constexpr (T == GateType::Not) {
    return from_rails(swap_rails(rails(v, f[0])));
  } else if constexpr (T == GateType::Xor || T == GateType::Xnor) {
    unsigned parity = T == GateType::Xnor ? 1u : 0u;
    unsigned unknown = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const unsigned r = rails(v, f[i]);
      parity ^= r >> 1;
      unknown |= r & (r >> 1);
    }
    return from_rails((1u << parity) | (unknown * 3u));
  } else {
    unsigned any = 0;
    unsigned all = 0b11;
    for (std::uint32_t i = 0; i < n; ++i) {
      const unsigned r = rails(v, f[i]);
      any |= r;
      all &= r;
    }
    const unsigned and_rails = (any & 1u) | (all & 2u);
    const unsigned or_rails = (all & 1u) | (any & 2u);
    if constexpr (T == GateType::And) return from_rails(and_rails);
    if constexpr (T == GateType::Nand) return from_rails(swap_rails(and_rails));
    if constexpr (T == GateType::Or) return from_rails(or_rails);
    return from_rails(swap_rails(or_rails));  // Nor
  }
}

}  // namespace

CombSim::CombSim(const Netlist& nl) : nl_(&nl), values_(nl.size(), Logic::X) {
  const CompiledNetlist cn(nl);  // throws on a combinational cycle
  auto p = std::make_shared<Program>();
  const auto topo = cn.topo();
  std::size_t edges = 0;
  for (GateId g : topo) edges += cn.fanin(g).size();
  p->gate.reserve(topo.size());
  p->fanin_begin.reserve(topo.size() + 1);
  p->fanin_begin.push_back(0);
  p->fanin.reserve(edges);
  // Within each level (topo() is level-contiguous, ascending id inside a
  // level) a counting sort by type; the order inside a type stays by id.
  std::vector<GateId> bucket;
  for (int lvl = 0; lvl <= cn.depth(); ++lvl) {
    const auto level = topo.subspan(cn.level_begin(lvl),
                                    cn.level_end(lvl) - cn.level_begin(lvl));
    std::array<std::uint32_t, kGateTypes + 1> start{};
    for (GateId g : level) ++start[static_cast<std::size_t>(cn.type(g)) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    bucket.resize(level.size());
    auto next = start;
    for (GateId g : level) {
      bucket[next[static_cast<std::size_t>(cn.type(g))]++] = g;
    }
    for (std::size_t t = 0; t < kGateTypes; ++t) {
      if (start[t] == start[t + 1]) continue;
      for (std::uint32_t i = start[t]; i < start[t + 1]; ++i) {
        const GateId g = bucket[i];
        const auto fin = cn.fanin(g);
        p->gate.push_back(g);
        p->fanin.insert(p->fanin.end(), fin.begin(), fin.end());
        p->fanin_begin.push_back(static_cast<std::uint32_t>(p->fanin.size()));
      }
      p->runs.push_back({static_cast<GateType>(t),
                         static_cast<std::uint32_t>(p->gate.size())});
    }
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    if (cn.type(g) == GateType::Const0) p->const0.push_back(g);
    if (cn.type(g) == GateType::Const1) p->const1.push_back(g);
  }
  prog_ = std::move(p);
  for (GateId g : prog_->const0) values_[g] = Logic::Zero;
  for (GateId g : prog_->const1) values_[g] = Logic::One;
}

void CombSim::set_value(GateId source, Logic v) {
  const GateType t = nl_->type(source);
  if (t != GateType::Input && !is_storage(t)) {
    throw std::invalid_argument(
        "set_value target must be a primary input or storage output");
  }
  values_.at(source) = v;
}

void CombSim::set_inputs(const std::vector<Logic>& values) {
  const auto& pis = nl_->inputs();
  if (values.size() != pis.size()) {
    throw std::invalid_argument("input vector size mismatch");
  }
  for (std::size_t i = 0; i < pis.size(); ++i) values_[pis[i]] = values[i];
}

void CombSim::set_all_sources(Logic v) {
  for (GateId g : nl_->inputs()) values_[g] = v;
  for (GateId g : nl_->storage()) values_[g] = v;
}

// One gate through eval_gate, with the injected fault applied when `faulty`.
Logic CombSim::eval_op(GateType type, std::uint32_t op, bool faulty) {
  const Program& p = *prog_;
  scratch_.clear();
  for (std::uint32_t k = p.fanin_begin[op]; k < p.fanin_begin[op + 1]; ++k) {
    scratch_.push_back(values_[p.fanin[k]]);
  }
  if (faulty) {
    if (stuck_->pin < 0) return stuck_->value;
    if (static_cast<std::size_t>(stuck_->pin) < scratch_.size()) {
      scratch_[static_cast<std::size_t>(stuck_->pin)] = stuck_->value;
    }
  }
  return eval_gate(type, scratch_);
}

template <GateType T>
void CombSim::fold_run(GateType type, std::uint32_t begin, std::uint32_t end,
                       GateId stuck_gate) {
  const Program& p = *prog_;
  Logic* v = values_.data();
  for (std::uint32_t op = begin; op < end; ++op) {
    const GateId g = p.gate[op];
    if (g == stuck_gate) [[unlikely]] {
      v[g] = eval_op(type, op, true);
      continue;
    }
    const std::uint32_t b = p.fanin_begin[op];
    v[g] = fold<T>(p.fanin.data() + b, p.fanin_begin[op + 1] - b, v);
  }
}

void CombSim::eval_gate_run(GateType type, std::uint32_t begin,
                            std::uint32_t end, GateId stuck_gate) {
  for (std::uint32_t op = begin; op < end; ++op) {
    const GateId g = prog_->gate[op];
    values_[g] = eval_op(type, op, g == stuck_gate);
  }
}

void CombSim::evaluate() {
  const Program& p = *prog_;
  // Constants are re-established every pass so a previously injected stuck
  // fault on a constant net cannot leak into later evaluations.
  for (GateId g : p.const0) values_[g] = Logic::Zero;
  for (GateId g : p.const1) values_[g] = Logic::One;
  // A stuck output on a source (PI / storage output / constant) is applied
  // by forcing the source value itself; a forced PI or storage value
  // persists until the caller re-sets that source, which per-pattern
  // drivers always do. Any other fault is applied by its gate's op.
  GateId stuck_gate = kNoGate;
  if (stuck_) {
    if (stuck_->pin < 0 && !is_combinational(nl_->type(stuck_->gate))) {
      values_[stuck_->gate] = stuck_->value;
    } else {
      stuck_gate = stuck_->gate;
    }
  }
  std::uint32_t begin = 0;
  for (const Program::Run& run : p.runs) {
    switch (run.type) {
      case GateType::Buf:
      case GateType::Output:
        fold_run<GateType::Buf>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Not:
        fold_run<GateType::Not>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::And:
        fold_run<GateType::And>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Nand:
        fold_run<GateType::Nand>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Or:
        fold_run<GateType::Or>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Nor:
        fold_run<GateType::Nor>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Xor:
        fold_run<GateType::Xor>(run.type, begin, run.end, stuck_gate);
        break;
      case GateType::Xnor:
        fold_run<GateType::Xnor>(run.type, begin, run.end, stuck_gate);
        break;
      default:  // Mux, Tristate, Bus
        eval_gate_run(run.type, begin, run.end, stuck_gate);
        break;
    }
    begin = run.end;
  }
  // A plain per-object tally: evaluate() runs on worker threads (syndrome
  // and exhaustive grading give each worker its own CombSim), so touching a
  // shared atomic here would contend. The totals flush on destruction.
  tally_.add_pass(p.gate.size());
}

std::vector<Logic> CombSim::output_values() const {
  std::vector<Logic> out;
  out.reserve(nl_->outputs().size());
  for (GateId g : nl_->outputs()) out.push_back(values_[g]);
  return out;
}

Logic CombSim::next_state(GateId storage_gate) const {
  if (!is_storage(nl_->type(storage_gate))) {
    throw std::invalid_argument("next_state requires a storage element");
  }
  return values_.at(nl_->fanin(storage_gate).at(kStoragePinD));
}

}  // namespace dft
