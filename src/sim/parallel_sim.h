// Bit-parallel two-valued good machine over the compiled netlist, templated
// over the pattern-word backend -- the one word-parallel good machine of
// the toolkit.
//
// Bit i of every word is pattern i of a block of Traits::kBits patterns
// (64 for the classic std::uint64_t word, 256/512 for the widened
// PatternWord lanes -- sim/eval_backend.h). This is the classical "parallel
// simulation" the survey's fault-simulation discussion assumes (Sec. I-B;
// see also references [102], [110]): fault simulation of 3000 faults is
// ~3001 good-machine simulations, so good-machine simulation must be as
// cheap as possible. A pass reads fanin words through the CompiledNetlist's
// CSR spans in its (level, id) order; the PPSFP fault simulator evaluates
// one per pattern block on the snapshot its workers share.
//
// Storage-element outputs are free variables, like primary inputs. Buses
// OR their enabled drivers (sim/eval.h), which equals the four-valued
// CombSim wherever exactly one driver is enabled.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "obs/obs.h"
#include "sim/eval_backend.h"
#include "sim/pattern_word.h"

namespace dft {

template <typename EB>
class BasicParallelSim {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  // Compiles `nl`; the simulator keeps no reference to it.
  explicit BasicParallelSim(const Netlist& nl);
  // Reads a snapshot shared with other machines.
  explicit BasicParallelSim(std::shared_ptr<const CompiledNetlist> cn);
  // A copy shares the snapshot and carries the current words; its
  // "sim.parallel.*" counts start at zero (obs::PassTally).
  BasicParallelSim(const BasicParallelSim&) = default;
  BasicParallelSim& operator=(const BasicParallelSim&) = default;

  // Sets one word of pattern bits on a primary input or storage output.
  // This is the public setter boundary and stays range-checked; the readers
  // and the force path below are not -- they run per gate per fault word
  // and their ids come from the snapshot itself.
  void set_word(GateId source, const Word& w);
  const Word& word(GateId g) const { return words_[g]; }
  const std::vector<Word>& words() const { return words_; }

  // Evaluates every combinational gate (full pass).
  void evaluate();

  // Evaluates only the given gates, which must be in topological order
  // (e.g. cone_of(site) after force_word(site, ...)).
  void evaluate_gates(std::span<const GateId> gates_in_topo_order);

  // Evaluates gate g with input pin `pin` forced to `forced` (a stuck input
  // fault as seen by this gate only, Fig. 1(b), or one step of a
  // sensitization trace) and returns the output word without storing it.
  // g's own word must be current (as after evaluate()): a parity gate costs
  // O(1) whatever its fanin, its word XOR the pin's old and forced words.
  Word eval_with_forced_pin(GateId g, int pin, const Word& forced) const;

  // Direct store, used by the cone-walking graders (Walsh, syndrome) to
  // force a faulty site. evaluate() never rewrites a source or constant
  // gate, so such a site stays forced until stored back.
  void force_word(GateId g, const Word& w) { words_[g] = w; }

  // The combinational gates a change at `site` reaches, without the site
  // itself and without crossing a storage element, in the snapshot's
  // (level, id) order: what evaluate_gates() re-evaluates after
  // force_word(site, ...) to give the faulty machine of a site fault.
  std::vector<GateId> cone_of(GateId site) const;

  // Adds this machine's "sim.parallel.*" counts to the registry now rather
  // than on destruction; a long-lived owner calls it after each run.
  void flush_tally() { tally_.flush(); }

 private:
  std::shared_ptr<const CompiledNetlist> cn_;
  std::vector<Word> words_;
  obs::PassTally tally_{"sim.parallel"};
};

// The classic 64-pattern simulator every existing consumer names.
using ParallelSim = BasicParallelSim<ScalarEval<std::uint64_t>>;

template <typename EB>
BasicParallelSim<EB>::BasicParallelSim(const Netlist& nl)
    : BasicParallelSim(std::make_shared<const CompiledNetlist>(nl)) {}

template <typename EB>
BasicParallelSim<EB>::BasicParallelSim(
    std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)), words_(cn_->size(), Traits::zeros()) {
  for (GateId g = 0; g < cn_->size(); ++g) {
    if (cn_->type(g) == GateType::Const1) words_[g] = Traits::ones();
  }
}

template <typename EB>
void BasicParallelSim<EB>::set_word(GateId source, const Word& w) {
  Word& slot = words_.at(source);
  const GateType t = cn_->type(source);
  if (t != GateType::Input && !is_storage(t)) {
    throw std::invalid_argument(
        "set_word target must be a primary input or storage output");
  }
  slot = w;
}

template <typename EB>
void BasicParallelSim<EB>::evaluate() {
  evaluate_gates(cn_->topo());
  // Full good-machine passes only; per-fault cone resimulations through
  // evaluate_gates are not counted. A per-object tally: each grader owns
  // its simulator, so a shared atomic here would contend across threads.
  tally_.add_pass(cn_->topo().size());
}

template <typename EB>
void BasicParallelSim<EB>::evaluate_gates(std::span<const GateId> gates) {
  const Word* w = words_.data();
  for (GateId g : gates) {
    const auto fin = cn_->fanin(g);
    words_[g] = EB::eval_ids(cn_->type(g), fin.data(), fin.size(), w);
  }
}

template <typename EB>
typename BasicParallelSim<EB>::Word BasicParallelSim<EB>::eval_with_forced_pin(
    GateId g, int pin, const Word& forced) const {
  const GateType t = cn_->type(g);
  const auto fin = cn_->fanin(g);
  if (is_parity(t)) {
    return words_[g] ^ forced ^ words_[fin[static_cast<std::size_t>(pin)]];
  }
  return EB::eval_forced(t, fin.data(), fin.size(), words_.data(), pin,
                         forced);
}

template <typename EB>
std::vector<GateId> BasicParallelSim<EB>::cone_of(GateId site) const {
  std::vector<char> in_cone(cn_->size(), 0);
  std::vector<GateId> stack{site};
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId s : cn_->fanout(g)) {
      if (in_cone[s] || !is_combinational(cn_->type(s))) continue;
      in_cone[s] = 1;
      stack.push_back(s);
    }
  }
  std::vector<GateId> cone;
  for (GateId g : cn_->topo()) {
    if (in_cone[g]) cone.push_back(g);
  }
  return cone;
}

// The 64-bit instantiation lives in parallel_sim.cpp; wide lanes are
// instantiated where they are used (fault/simd_lanes.cpp, tests).
extern template class BasicParallelSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
