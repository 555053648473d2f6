// Event-driven selective-trace bit-parallel fault propagation (the "event"
// fault-sim kernel), templated over the pattern-word backend.
//
// Re-evaluating a fault's entire fanout cone per pattern word wastes work:
// the survey's observability argument (Sec. II) says most fault effects die
// within a level or two of the fault site. This kernel only ever touches
// the difference frontier: starting from a changed gate, it schedules the
// fanouts of gates whose pattern word actually changed on a levelized event
// wheel, evaluates each scheduled gate at most once when its level comes up
// (by then every fanin is final), and stops the moment no scheduled gate
// remains -- then restores only the gates it wrote. Levels come from a
// CompiledNetlist, whose CSR spans also feed the gather-free EB::eval_ids
// inner loop. Parity gates cost O(1) per event whatever their fanin: a
// changed fanin folds its difference word into the gate at once, so the
// gate's new word is ready when its level comes up. The word is whatever
// the backend carries (sim/eval_backend.h): 64 patterns classic, 256/512
// widened.
//
// The good machine is shared work: one BasicParallelSim (sim/parallel_sim.h)
// per block is evaluated once and read by every BasicEventSim of the block
// (the PPSFP fault simulator runs one per worker). A BasicEventSim keeps
// only its faulty machine, which equals the good machine between
// propagations; forced-pin evaluations (fault activation, sensitization
// traces) read the good machine itself (eval_with_forced_pin). The
// CompiledNetlist behind both is immutable and shared across machines.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "netlist/compiled.h"
#include "sim/eval_backend.h"
#include "sim/parallel_sim.h"
#include "sim/pattern_word.h"

namespace dft {

template <typename EB>
class BasicEventSim {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  explicit BasicEventSim(std::shared_ptr<const CompiledNetlist> cn);

  // Binds `good` as the machine every propagation compares against and
  // restores to, and resets the faulty machine to it (a copy into storage
  // sized at construction). `good` must outlive the binding and stay
  // unchanged while bound.
  void load_good(const BasicParallelSim<EB>& good) {
    assert(good.words().size() == words_.size());
    good_ = good.words().data();
    std::copy(good.words().begin(), good.words().end(), words_.begin());
  }

  struct Propagation {
    Word detect =
        Traits::zeros();  // XOR-vs-good at observed gates, all levels
    std::uint64_t gates_evaluated = 0;
    // Levels past the origin the difference frontier survived (0 = died at
    // the origin's own fanout).
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
  const Word* good_ = nullptr;
  std::vector<Word> words_;  // faulty machine; == good_ between calls
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
      wheel_(static_cast<std::size_t>(cn_->depth()) + 1),
      stamp_(cn_->size(), 0) {}

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
  // `diff` is g's new word XOR its good word. A parity fanout takes it
  // before the dedupe, so a gate read on two pins of one sink cancels.
  auto schedule_fanouts = [&](GateId g, const Word& diff) {
    for (GateId s : cn_->fanout(g)) {
      const GateType t = cn_->type(s);
      if (!is_combinational(t)) continue;
      if (is_parity(t)) words_[s] ^= diff;
      if (stamp_[s] == epoch_) continue;
      stamp_[s] = epoch_;
      const int lvl = cn_->level(s);
      wheel_[static_cast<std::size_t>(lvl)].push_back(s);
      hi = std::max(hi, lvl);
      ++events_scheduled_;
    }
  };
  schedule_fanouts(origin, faulty ^ good_[origin]);

  // Ascending level sweep. A gate is scheduled only by a change at a
  // strictly lower level, so each bucket is complete when its level comes
  // up and each gate is evaluated at most once with final fanin words. The
  // sweep ends the moment no bucket up to `hi` remains -- the frontier died.
  const Word* w = words_.data();
  for (int lvl = origin_lvl + 1; lvl <= hi; ++lvl) {
    auto& bucket = wheel_[static_cast<std::size_t>(lvl)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const GateType t = cn_->type(g);
      Word nw;
      if (is_parity(t)) {
        nw = words_[g];  // good ^ the folded differences
      } else {
        const auto fin = cn_->fanin(g);
        nw = EB::eval_ids(t, fin.data(), fin.size(), w);
      }
      ++out.gates_evaluated;
      // Event absorbed; nothing downstream, and the word is still good.
      if (nw == good_[g]) continue;
      words_[g] = nw;
      touched_.push_back(g);
      const Word diff = nw ^ good_[g];
      if (observed[g]) out.detect |= diff;
      out.death_depth = lvl - origin_lvl;
      schedule_fanouts(g, diff);
    }
    bucket.clear();
  }

  // Restore only what was written.
  for (GateId g : touched_) words_[g] = good_[g];
  return out;
}

// The 64-bit instantiations live in event_sim.cpp; wide lanes are
// instantiated where they are used (fault/simd_lanes.cpp, tests).
extern template class BasicEventSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
