// Event-driven selective-trace bit-parallel fault propagation (the "event"
// fault-sim kernel), templated over the pattern-word backend.
//
// Re-evaluating a fault's entire fanout cone per pattern word wastes work:
// the survey's observability argument (Sec. II) says most fault effects die
// within a level or two of the fault site. This kernel only ever touches
// the difference frontier: starting from the faulty site, it schedules the
// fanouts of gates whose pattern word actually changed on a levelized event
// wheel, evaluates each scheduled gate at most once when its level comes up
// (by then every fanin is final), and stops the moment no scheduled gate
// remains -- then restores only the gates it wrote. Levels come from a
// CompiledNetlist, whose CSR spans also feed the gather-free EB::eval_ids
// inner loop. The word is whatever the backend
// carries (sim/eval_backend.h): 64 patterns classic, 256/512 widened.
//
// One machine is one single-threaded machine (like BasicParallelSim); the
// CompiledNetlist behind it is immutable and may be shared across machines.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "netlist/compiled.h"
#include "sim/eval_backend.h"
#include "sim/pattern_word.h"

namespace dft {

template <typename EB>
class BasicEventSim {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  explicit BasicEventSim(std::shared_ptr<const CompiledNetlist> cn);

  const CompiledNetlist& compiled() const { return *cn_; }

  // Sets one word of pattern bits on a primary input or storage output.
  void set_source_word(GateId source, const Word& w) {
    assert(source < words_.size());
    assert(cn_->type(source) == GateType::Input ||
           is_storage(cn_->type(source)));
    words_[source] = w;
  }

  // Full good-machine pass in compiled (level, id) order; snapshots the
  // result as the restore baseline for the propagations that follow.
  void evaluate_good();

  const Word& good_word(GateId g) const {
    assert(g < good_.size());
    return good_[g];
  }

  // Evaluates gate g with input pin `pin` forced to `forced` (the faulty
  // site of an input-pin stuck fault) without storing the result.
  Word eval_with_forced_pin(GateId g, int pin, const Word& forced) const;

  struct Propagation {
    Word detect =
        Traits::zeros();  // XOR-vs-good at observed gates, all levels
    std::uint64_t gates_evaluated = 0;
    // Levels past the origin the difference frontier survived (0 = died at
    // the fault site's own fanout).
    int death_depth = 0;
  };

  // Forces `faulty` onto `origin` and runs the event wheel. `observed` is
  // indexed by GateId (1 = observation point). On return every touched word
  // is restored to the good machine -- the propagation leaves no residue.
  Propagation propagate(GateId origin, const Word& faulty,
                        const std::vector<char>& observed);

  // Running totals across propagate() calls, for the caller's obs flush.
  std::uint64_t events_scheduled() const { return events_scheduled_; }

 private:
  std::shared_ptr<const CompiledNetlist> cn_;
  std::vector<Word> words_;  // faulty machine; == good_ between calls
  std::vector<Word> good_;
  std::vector<std::vector<GateId>> wheel_;  // one bucket per level
  std::vector<std::uint32_t> stamp_;        // dedupe epoch per gate
  std::uint32_t epoch_ = 0;
  std::vector<GateId> touched_;
  std::uint64_t events_scheduled_ = 0;
};

// The classic 64-pattern machine every existing consumer names.
using EventSim = BasicEventSim<ScalarEval<std::uint64_t>>;

template <typename EB>
BasicEventSim<EB>::BasicEventSim(std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)),
      words_(cn_->size(), Traits::zeros()),
      good_(cn_->size(), Traits::zeros()),
      wheel_(static_cast<std::size_t>(cn_->depth()) + 1),
      stamp_(cn_->size(), 0) {
  for (GateId g = 0; g < cn_->size(); ++g) {
    if (cn_->type(g) == GateType::Const1) words_[g] = Traits::ones();
  }
}

template <typename EB>
void BasicEventSim<EB>::evaluate_good() {
  const Word* w = words_.data();
  for (GateId g : cn_->topo()) {
    const auto fin = cn_->fanin(g);
    words_[g] = EB::eval_ids(cn_->type(g), fin.data(), fin.size(), w);
  }
  good_ = words_;
}

template <typename EB>
typename BasicEventSim<EB>::Word BasicEventSim<EB>::eval_with_forced_pin(
    GateId g, int pin, const Word& forced) const {
  const auto fin = cn_->fanin(g);
  return EB::eval_forced(cn_->type(g), fin.data(), fin.size(), words_.data(),
                         pin, forced);
}

template <typename EB>
typename BasicEventSim<EB>::Propagation BasicEventSim<EB>::propagate(
    GateId origin, const Word& faulty, const std::vector<char>& observed) {
  Propagation out;
  assert(!(faulty == good_[origin]));  // caller screens dead activations

  // Fresh epoch; on wrap, clear every stamp once (stale stamps from 2^32
  // propagations ago must not suppress scheduling).
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }

  touched_.clear();
  words_[origin] = faulty;
  touched_.push_back(origin);

  const int origin_lvl = cn_->level(origin);
  int hi = origin_lvl;  // highest level holding a scheduled gate
  auto schedule_fanouts = [&](GateId g) {
    for (GateId s : cn_->fanout(g)) {
      if (!is_combinational(cn_->type(s)) || stamp_[s] == epoch_) continue;
      stamp_[s] = epoch_;
      const int lvl = cn_->level(s);
      wheel_[static_cast<std::size_t>(lvl)].push_back(s);
      hi = std::max(hi, lvl);
      ++events_scheduled_;
    }
  };
  schedule_fanouts(origin);

  // Ascending level sweep. A gate is scheduled only by a change at a
  // strictly lower level, so each bucket is complete when its level comes
  // up and each gate is evaluated at most once with final fanin words. The
  // sweep ends the moment no bucket up to `hi` remains -- the frontier died.
  const Word* w = words_.data();
  for (int lvl = origin_lvl + 1; lvl <= hi; ++lvl) {
    auto& bucket = wheel_[static_cast<std::size_t>(lvl)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const auto fin = cn_->fanin(g);
      const Word nw = EB::eval_ids(cn_->type(g), fin.data(), fin.size(), w);
      ++out.gates_evaluated;
      if (nw == good_[g]) continue;  // event absorbed; nothing downstream
      words_[g] = nw;
      touched_.push_back(g);
      if (observed[g]) out.detect |= nw ^ good_[g];
      out.death_depth = lvl - origin_lvl;
      schedule_fanouts(g);
    }
    bucket.clear();
  }

  // Restore only what was written.
  for (GateId g : touched_) words_[g] = good_[g];
  return out;
}

// The 64-bit instantiation lives in event_sim.cpp; wide lanes are
// instantiated where they are used (fault/simd_lanes.cpp, tests).
extern template class BasicEventSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
