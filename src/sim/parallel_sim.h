// Bit-parallel two-valued combinational simulator, templated over the
// pattern-word backend.
//
// Bit i of every word is pattern i of a block of Traits::kBits patterns
// (64 for the classic std::uint64_t word, 256/512 for the widened
// PatternWord lanes -- sim/eval_backend.h). This is the classical "parallel
// simulation" the survey's fault-simulation discussion assumes (Sec. I-B;
// see also references [102], [110]): fault simulation of 3000 faults is
// ~3001 good-machine simulations, so good-machine simulation must be as
// cheap as possible.
//
// Storage-element outputs are free variables, like primary inputs.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

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

  explicit BasicParallelSim(const Netlist& nl);
  // The simulator keeps a reference: a temporary netlist would dangle.
  explicit BasicParallelSim(Netlist&&) = delete;
  // A copy carries the netlist and the current words; its
  // "sim.parallel.*" counts start at zero (obs::PassTally).
  BasicParallelSim(const BasicParallelSim&) = default;
  BasicParallelSim& operator=(const BasicParallelSim&) = default;

  const Netlist& netlist() const { return *nl_; }

  // Sets one word of pattern bits on a primary input or storage output.
  // This is the public setter boundary and stays range-checked; the readers
  // and the force path below are not -- they run per gate per fault word,
  // their ids come from the netlist itself, and the constructor validates
  // the netlist's id tables once in debug builds (the per-call asserts
  // these accessors used to carry, hoisted).
  void set_word(GateId source, const Word& w);
  const Word& word(GateId g) const { return words_[g]; }

  // Evaluates every combinational gate (full pass).
  void evaluate();

  // Evaluates only the given gates, which must be in topological order
  // (e.g. a fault's fanout cone, as the Walsh and syndrome graders do).
  void evaluate_gates(std::span<const GateId> gates_in_topo_order);

  // Evaluates one gate with input pin `pin` forced to `forced` (a stuck
  // input fault as seen by this gate only, Fig. 1(b)) and returns the output
  // word without storing it.
  Word eval_with_forced_pin(GateId g, int pin, const Word& forced) const;

  // Direct store, used by the cone-walking graders (Walsh, syndrome) to
  // force a faulty site.
  void force_word(GateId g, const Word& w) { words_[g] = w; }

 private:
  const Netlist* nl_;
  std::vector<Word> words_;
  obs::PassTally tally_{"sim.parallel"};
};

// The classic 64-pattern simulator every existing consumer names.
using ParallelSim = BasicParallelSim<ScalarEval<std::uint64_t>>;

template <typename EB>
BasicParallelSim<EB>::BasicParallelSim(const Netlist& nl)
    : nl_(&nl), words_(nl.size(), Traits::zeros()) {
  nl.topo_order();
#ifndef NDEBUG
  // One-time validation of every id the unchecked hot-path accessors will
  // read: all fanin ids must name gates of this netlist.
  for (GateId g = 0; g < nl.size(); ++g) {
    for (GateId f : nl.fanin(g)) assert(f < nl.size());
  }
#endif
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.type(g) == GateType::Const1) words_[g] = Traits::ones();
  }
}

template <typename EB>
void BasicParallelSim<EB>::set_word(GateId source, const Word& w) {
  const GateType t = nl_->type(source);
  if (t != GateType::Input && !is_storage(t)) {
    throw std::invalid_argument(
        "set_word target must be a primary input or storage output");
  }
  words_.at(source) = w;
}

template <typename EB>
void BasicParallelSim<EB>::evaluate() {
  evaluate_gates(nl_->topo_order());
  // Full good-machine passes only; per-fault cone resimulations through
  // evaluate_gates are not counted. A per-object tally, flushed on
  // destruction: each grader owns its simulator, so a shared atomic here
  // would contend across threads.
  tally_.add_pass(nl_->topo_order().size());
}

template <typename EB>
void BasicParallelSim<EB>::evaluate_gates(std::span<const GateId> gates) {
  // Fanin words are read through the id list straight out of the value
  // table (EB::eval_ids) -- no per-gate gather into a scratch buffer.
  const Word* w = words_.data();
  for (GateId g : gates) {
    const auto& fin = nl_->fanin(g);
    words_[g] = EB::eval_ids(nl_->type(g), fin.data(), fin.size(), w);
  }
}

template <typename EB>
typename BasicParallelSim<EB>::Word BasicParallelSim<EB>::eval_with_forced_pin(
    GateId g, int pin, const Word& forced) const {
  const auto& fin = nl_->fanin(g);
  return EB::eval_forced(nl_->type(g), fin.data(), fin.size(), words_.data(),
                         pin, forced);
}

// The 64-bit instantiation lives in parallel_sim.cpp; wide lanes are
// instantiated where they are used (fault/simd_lanes.cpp, tests).
extern template class BasicParallelSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
