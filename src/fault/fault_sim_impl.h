// One lane's PPSFP machines, included at the bottom of fault/fault_sim.h;
// never include directly. The 64-bit backend is explicitly instantiated in
// fault_sim.cpp, the wide lanes in fault/simd_lanes.cpp -- ordinary
// consumers compile no template bodies.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <span>
#include <string>

#include "fault/fault_sim.h"
#include "obs/obs.h"

namespace dft::ppsfp {

template <typename EB>
class BasicMachineSet final : public MachineSet {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  // One compiled snapshot serves the good machine and every worker
  // machine: it is immutable after construction, so concurrent reads need
  // no synchronization.
  BasicMachineSet(std::shared_ptr<const CompiledNetlist> cn, int workers)
      : cn_(std::move(cn)), good_(cn_) {
    machines_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) machines_.emplace_back(cn_);
  }

  int bits() const override { return Traits::kBits; }

  void begin_run(const Regions& regions, std::size_t most_faults) override {
    for (Machine& m : machines_) {
      m.tallies = Tallies{};
      m.events_mark = m.ev.events_scheduled();
      if (m.sens.size() < regions.widest) {
        m.sens.resize(regions.widest);
        m.sens_stamp.resize(regions.widest, 0);
      }
      m.path.reserve(regions.widest);
      m.reaching.reserve(most_faults);
    }
  }

  void load_block(const std::vector<SourceVector>& patterns, std::size_t base,
                  std::size_t count) override {
    const auto pis = cn_->inputs();
    const auto ffs = cn_->storage();
    const std::size_t ns = cn_->source_count();
    for (std::size_t s = 0; s < ns; ++s) {
      Word w = Traits::zeros();
      for (std::size_t b = 0; b < count; ++b) {
        if (patterns[base + b][s] == Logic::One) Traits::set_bit(w, b);
      }
      good_.set_word(s < pis.size() ? pis[s] : ffs[s - pis.size()], w);
    }
    good_.evaluate();
  }

  std::size_t steal(int w, const Block& block,
                    std::atomic<std::size_t>& next) override {
    Machine& m = machines_[static_cast<std::size_t>(w)];
    m.ev.load_good(good_);
    const Word valid = Traits::prefix_mask(block.count);
    std::size_t found = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= block.busy.size()) break;
      ++m.tallies.regions;
      found += simulate_region(m, block, block.busy[i], valid);
    }
    return found;
  }

  // The fault_sim.ppsfp.* names describe the PPSFP block algorithm and keep
  // them at every word width and thread count, so reports stay comparable;
  // propagation counters live under fault_sim.event.*, the lane under
  // fault_sim.lanes.* and the sim.word_bits gauge, and the schedule under
  // fault_sim.threaded.*. The workers' tallies are summed first, so each
  // shared counter is looked up once per run; only the per-worker .faults
  // and .regions counters are looked up per worker.
  void end_run() override {
    good_.flush_tally();
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.lanes." + std::string(EB::tag())).add(1);
    reg.gauge("sim.word_bits").set(Traits::kBits);
    Tallies sum;
    std::uint64_t events = 0;
    for (std::size_t w = 0; w < machines_.size(); ++w) {
      const Machine& m = machines_[w];
      const Tallies& t = m.tallies;
      const std::string worker =
          "fault_sim.threaded.worker." + std::to_string(w);
      if (t.faults_simulated != 0) {
        reg.counter(worker + ".faults").add(t.faults_simulated);
      }
      if (t.regions != 0) reg.counter(worker + ".regions").add(t.regions);
      sum.faults_simulated += t.faults_simulated;
      sum.stems_propagated += t.stems_propagated;
      sum.gates_evaluated += t.gates_evaluated;
      sum.trace_evals += t.trace_evals;
      for (std::size_t d = 0; d < sum.death_depth.size(); ++d) {
        sum.death_depth[d] += t.death_depth[d];
      }
      events += m.ev.events_scheduled() - m.events_mark;
    }
    reg.counter("fault_sim.ppsfp.faults_simulated").add(sum.faults_simulated);
    reg.counter("fault_sim.ppsfp.stems_propagated").add(sum.stems_propagated);
    // The event counters and the frontier-death histogram count stem
    // propagations: one per region whose live faults reach its stem in a
    // block.
    reg.counter("fault_sim.event.events_scheduled").add(events);
    reg.counter("fault_sim.event.gates_evaluated").add(sum.gates_evaluated);
    reg.counter("fault_sim.event.trace_evals").add(sum.trace_evals);
    // Frontier-death histogram: bucket d = stem propagations whose
    // difference frontier died d levels past the stem (d=0 also counts
    // regions whose live faults never reached their stem in the block).
    // Flushed as counters so the whole run's distribution lands in one
    // report.
    for (int d = 0; d < Tallies::kDeathDepthBuckets; ++d) {
      const std::uint64_t n = sum.death_depth[static_cast<std::size_t>(d)];
      if (n == 0) continue;
      char name[48];
      std::snprintf(name, sizeof(name), "fault_sim.event.death_depth.%02d%s",
                    d, d == Tallies::kDeathDepthBuckets - 1 ? "_plus" : "");
      reg.counter(name).add(n);
    }
  }

 private:
  // One worker's tallies, added to dft::obs once per run -- nothing per
  // fault touches shared state.
  struct Tallies {
    std::uint64_t gates_evaluated = 0;
    std::uint64_t faults_simulated = 0;
    std::uint64_t stems_propagated = 0;
    // eval_with_forced_pin calls by sensitization() and reach(): the
    // critical-path-tracing work, which gates_evaluated does not count.
    std::uint64_t trace_evals = 0;
    // Regions this worker stole, summed over the run's blocks.
    std::uint64_t regions = 0;
    // death_depth[d] = regions whose stem difference died d levels past
    // the stem (last bucket collects >= kDeathDepthBuckets-1; bucket 0
    // also holds regions none of whose live faults reached the stem).
    static constexpr int kDeathDepthBuckets = 16;
    std::array<std::uint64_t, kDeathDepthBuckets> death_depth{};
  };

  // One worker's private machine and region workspace. Aligned so two
  // workers' tallies never share a cache line.
  struct alignas(64) Machine {
    explicit Machine(std::shared_ptr<const CompiledNetlist> cn)
        : ev(std::move(cn)) {}
    BasicEventSim<EB> ev;
    Tallies tallies;
    // events_scheduled() when the current run started.
    std::uint64_t events_mark = 0;
    // Sensitization to the stem by local index, valid where sens_stamp
    // equals epoch (one epoch per region visit).
    std::vector<Word> sens;
    std::vector<std::uint32_t> sens_stamp;
    std::uint32_t epoch = 0;
    std::vector<GateId> path;
    // The live faults of the current region whose effect reaches the stem.
    std::vector<std::uint32_t> reaching;
  };

  // Patterns in which flipping gate g flips its region's stem; traces (and
  // memoizes for the current region visit) the path from g to the stem.
  Word sensitization(Machine& m, const Regions& r, GateId g) const {
    // Climb to the stem, or to the first gate already traced in this visit.
    m.path.clear();
    for (GateId x = g;;) {
      const std::uint32_t l = r.local_of[x];
      if (m.sens_stamp[l] == m.epoch) break;
      if (r.sink_of[x] == kNoGate) {
        m.sens[l] = Traits::ones();
        m.sens_stamp[l] = m.epoch;
        break;
      }
      m.path.push_back(x);
      x = r.sink_of[x];
    }
    // Back down. Flipping y flips its sink where the sink's evaluation with
    // y's pin complemented differs from the good word, and the stem where the
    // sink's flip does; a tree has no other path.
    for (auto it = m.path.rbegin(); it != m.path.rend(); ++it) {
      const GateId y = *it;
      const GateId s = r.sink_of[y];
      const Word& above = m.sens[r.local_of[s]];
      Word w = Traits::zeros();
      if (Traits::any(above)) {
        ++m.tallies.trace_evals;
        w = above &
            (good_.eval_with_forced_pin(s, r.pin_of[y], ~good_.word(y)) ^
             good_.word(s));
      }
      m.sens[r.local_of[y]] = w;
      m.sens_stamp[r.local_of[y]] = m.epoch;
    }
    return m.sens[r.local_of[g]];
  }

  // Patterns of the block in which fault f (not a storage D-pin fault)
  // flips its region's stem: activation AND sensitization.
  Word reach(Machine& m, const Regions& r, const Fault& f,
             const Word& valid) const {
    const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();
    Word site = forced;
    if (f.pin >= 0) {
      ++m.tallies.trace_evals;
      site = good_.eval_with_forced_pin(f.gate, f.pin, forced);
    }
    const Word activation = (site ^ good_.word(f.gate)) & valid;
    if (!Traits::any(activation)) return activation;
    return activation & sensitization(m, r, f.gate);
  }

  // Simulates the live faults of one region against the loaded block,
  // writing first detections; returns how many it found.
  std::size_t simulate_region(Machine& m, const Block& block,
                              std::uint32_t region, const Word& valid) const {
    const Regions& regions = block.regions;
    const std::vector<char>& observed = block.observed;
    int* const first = block.first;
    std::size_t found = 0;
    const auto record = [&](std::size_t fi, const Word& det) {
      if (first[fi] < 0 && Traits::any(det)) {
        first[fi] = static_cast<int>(block.base) + Traits::first_set(det);
        ++found;
      }
    };
    // A fresh epoch forgets the previous region's traces; on wrap, clear the
    // stamps once.
    if (++m.epoch == 0) {
      std::fill(m.sens_stamp.begin(), m.sens_stamp.end(), 0);
      m.epoch = 1;
    }
    m.reaching.clear();
    bool live = false;
    // Patterns in which some live fault flips the stem.
    Word flip = Traits::zeros();
    const std::span<const std::uint32_t> ids(
        block.order.data() + block.fault_begin[region],
        block.order.data() + block.fault_begin[region + 1]);
    for (const std::uint32_t fi : ids) {
      if (block.drop_detected && first[fi] >= 0) continue;
      live = true;
      ++m.tallies.faults_simulated;
      const Fault& f = block.faults[fi];
      // Storage D-pin fault: the wrong value is captured and observed
      // whenever the D net is an observation point (it is, under the
      // full-scan default); nothing downstream sees it.
      if (is_storage(cn_->type(f.gate)) && f.pin == kStoragePinD) {
        const GateId din = cn_->fanin(f.gate)[kStoragePinD];
        if (observed[din]) {
          const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();
          record(fi, (good_.word(din) ^ forced) & valid);
        }
        continue;
      }
      const Word r = reach(m, regions, f, valid);
      if (!Traits::any(r)) continue;
      flip |= r;
      m.reaching.push_back(fi);
    }
    if (!live) return found;
    if (!Traits::any(flip)) {
      ++m.tallies.death_depth[0];
      return found;
    }

    // One propagation of the stem serves every fault of the region: each bit
    // is one single-fault machine, and in it the fault changes the stem and
    // nothing else outside the region.
    const GateId stem = regions.stem[region];
    const typename BasicEventSim<EB>::Propagation p =
        m.ev.propagate(stem, good_.word(stem) ^ flip, observed);
    ++m.tallies.stems_propagated;
    m.tallies.gates_evaluated += p.gates_evaluated;
    ++m.tallies.death_depth[static_cast<std::size_t>(
        std::min(p.death_depth, Tallies::kDeathDepthBuckets - 1))];
    const Word obs = observed[stem] ? flip | p.detect : p.detect;
    if (!Traits::any(obs)) return found;
    // The sensitizations are memoized, so a second reach() costs one
    // activation.
    for (const std::uint32_t fi : m.reaching) {
      record(fi, reach(m, regions, block.faults[fi], valid) & obs);
    }
    return found;
  }

  std::shared_ptr<const CompiledNetlist> cn_;
  BasicParallelSim<EB> good_;  // sim.parallel.* flushed per run
  std::vector<Machine> machines_;
};

extern template class BasicMachineSet<ScalarEval<std::uint64_t>>;

}  // namespace dft::ppsfp
