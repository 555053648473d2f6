// Member definitions of BasicParallelFaultSimulator<EB>. Included at the
// bottom of fault/fault_sim.h; never include directly. The 64-bit backend
// is explicitly instantiated in fault_sim.cpp, the wide lanes in
// fault/simd_lanes.cpp -- ordinary consumers compile no template bodies.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "fault/fault_sim.h"
#include "obs/obs.h"

namespace dft {

template <typename EB>
BasicParallelFaultSimulator<EB>::BasicParallelFaultSimulator(const Netlist& nl,
                                                             int threads)
    : BasicParallelFaultSimulator(std::make_shared<const CompiledNetlist>(nl),
                                  threads) {}

template <typename EB>
BasicParallelFaultSimulator<EB>::BasicParallelFaultSimulator(
    std::shared_ptr<const CompiledNetlist> cn, int threads)
    // One compiled snapshot serves the good machine and every worker
    // machine: it is immutable after construction, so concurrent reads need
    // no synchronization.
    : cn_(std::move(cn)), good_(cn_) {
  const int n = resolve_thread_count(threads);
  max_workers_ = std::min(n, resolve_thread_count(0));
  machines_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) machines_.emplace_back(cn_);
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n - 1);
  reset_observation_points();
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::set_observation_points(
    const std::vector<GateId>& observed) {
  std::vector<char> next(cn_->size(), 0);
  for (GateId g : observed) {
    if (g >= next.size()) {
      throw std::out_of_range("observation point " + std::to_string(g) +
                              " is not a gate of a " +
                              std::to_string(next.size()) + "-gate netlist");
    }
    next[g] = 1;
  }
  Regions regions = build_regions(*cn_, next);
  observed_ = std::move(next);
  regions_ = std::move(regions);
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::reset_observation_points() {
  std::vector<GateId> full(cn_->outputs().begin(), cn_->outputs().end());
  for (GateId ff : cn_->storage()) {
    full.push_back(cn_->fanin(ff)[kStoragePinD]);
  }
  set_observation_points(full);
}

template <typename EB>
typename BasicParallelFaultSimulator<EB>::Regions
BasicParallelFaultSimulator<EB>::build_regions(
    const CompiledNetlist& cn, const std::vector<char>& observed) {
  const std::size_t n = cn.size();
  Regions r;
  r.region_of.assign(n, 0);
  r.local_of.assign(n, 0);
  r.sink_of.assign(n, kNoGate);
  r.pin_of.assign(n, -1);
  for (GateId g = 0; g < n; ++g) {
    const auto fo = cn.fanout(g);
    if (fo.size() != 1 || !is_combinational(cn.type(fo[0])) || observed[g]) {
      continue;
    }
    const auto fin = cn.fanin(fo[0]);
    r.sink_of[g] = fo[0];
    r.pin_of[g] = static_cast<std::int32_t>(
        std::find(fin.begin(), fin.end(), g) - fin.begin());
  }
  // Stems are numbered in level order -- sources and storage outputs, then
  // the compiled (level, id) order -- so the stems with the deepest fanout
  // cones, the slowest to propagate, are stolen first.
  std::vector<std::uint32_t> size;
  const auto head = [&](GateId g) {
    if (r.sink_of[g] != kNoGate) return;
    r.region_of[g] = static_cast<std::uint32_t>(r.stem.size());
    r.stem.push_back(g);
    size.push_back(1);
  };
  for (GateId g = 0; g < n; ++g) {
    if (!is_combinational(cn.type(g))) head(g);
  }
  const auto topo = cn.topo();
  for (GateId g : topo) head(g);
  // A member joins its sink's region. Sinks are combinational and sit at a
  // strictly higher level, so descending level order, then the sources and
  // storage outputs, meets every sink before the gates it reads.
  const auto join = [&](GateId g) {
    if (r.sink_of[g] == kNoGate) return;
    const std::uint32_t region = r.region_of[r.sink_of[g]];
    r.region_of[g] = region;
    r.local_of[g] = size[region]++;
  };
  for (std::size_t i = topo.size(); i-- > 0;) join(topo[i]);
  for (GateId g = 0; g < n; ++g) {
    if (!is_combinational(cn.type(g))) join(g);
  }
  for (std::uint32_t s : size) r.widest = std::max(r.widest, s);
  return r;
}

template <typename EB>
typename BasicParallelFaultSimulator<EB>::Word
BasicParallelFaultSimulator<EB>::sensitization(Machine& m, GateId g) const {
  const Regions& r = regions_;
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
      w = above & (good_.eval_with_forced_pin(s, r.pin_of[y], ~good_.word(y)) ^
                   good_.word(s));
    }
    m.sens[r.local_of[y]] = w;
    m.sens_stamp[r.local_of[y]] = m.epoch;
  }
  return m.sens[r.local_of[g]];
}

template <typename EB>
typename BasicParallelFaultSimulator<EB>::Word
BasicParallelFaultSimulator<EB>::reach(Machine& m, const Fault& f,
                                       const Word& valid) const {
  const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();
  Word site = forced;
  if (f.pin >= 0) {
    ++m.tallies.trace_evals;
    site = good_.eval_with_forced_pin(f.gate, f.pin, forced);
  }
  const Word activation = (site ^ good_.word(f.gate)) & valid;
  if (!Traits::any(activation)) return activation;
  return activation & sensitization(m, f.gate);
}

template <typename EB>
std::size_t BasicParallelFaultSimulator<EB>::simulate_region(
    Machine& m, std::uint32_t region, const std::vector<Fault>& faults,
    std::span<const std::uint32_t> ids, bool drop_detected, const Word& valid,
    std::size_t base, int* first) const {
  std::size_t found = 0;
  const auto record = [&](std::size_t fi, const Word& det) {
    if (first[fi] < 0 && Traits::any(det)) {
      first[fi] = static_cast<int>(base) + Traits::first_set(det);
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
  for (const std::uint32_t fi : ids) {
    if (drop_detected && first[fi] >= 0) continue;
    live = true;
    ++m.tallies.faults_simulated;
    const Fault& f = faults[fi];
    // Storage D-pin fault: the wrong value is captured and observed
    // whenever the D net is an observation point (it is, under the
    // full-scan default); nothing downstream sees it.
    if (is_storage(cn_->type(f.gate)) && f.pin == kStoragePinD) {
      const GateId din = cn_->fanin(f.gate)[kStoragePinD];
      if (observed_[din]) {
        const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();
        record(fi, (good_.word(din) ^ forced) & valid);
      }
      continue;
    }
    const Word r = reach(m, f, valid);
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
  const GateId stem = regions_.stem[region];
  const typename BasicEventSim<EB>::Propagation p =
      m.ev.propagate(stem, good_.word(stem) ^ flip, observed_);
  ++m.tallies.stems_propagated;
  m.tallies.gates_evaluated += p.gates_evaluated;
  ++m.tallies.death_depth[static_cast<std::size_t>(
      std::min(p.death_depth, Tallies::kDeathDepthBuckets - 1))];
  const Word obs = observed_[stem] ? flip | p.detect : p.detect;
  if (!Traits::any(obs)) return found;
  // The sensitizations are memoized, so a second reach() costs one
  // activation.
  for (const std::uint32_t fi : m.reaching) {
    record(fi, reach(m, faults[fi], valid) & obs);
  }
  return found;
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::load_block(
    const std::vector<SourceVector>& patterns, std::size_t base,
    std::size_t count) {
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

// The one schedule, at every thread count. Pattern-word blocks run in
// order; in each block the caller evaluates the shared good machine, then
// every worker copies it into its own faulty machine and steals stem
// regions, one at a time, from a shared counter until the list is done.
// One region is one stem propagation, and those costs differ by orders of
// magnitude, so a region is the unit of stealing. The caller is worker 0
// and pool_->wait() is the barrier between blocks; at one worker the same
// loop runs inline.
//
// Regions are disjoint and blocks are ordered, so each first_detected_by
// entry has one writer per block and the first block that detects a fault
// is the earliest; dropping skips a fault an earlier block detected. What
// a region visit does depends only on the block and the region's faults,
// so the result and the work done (faults simulated, stems propagated,
// gates evaluated, events scheduled) do not depend on the thread count.
template <typename EB>
FaultSimResult BasicParallelFaultSimulator<EB>::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  // Validate before any machine is touched: a malformed pattern in the
  // middle of a block must not leave the engine half-mutated.
  validate_patterns(cn_->source_count(), patterns, /*require_binary=*/true);

  // The faults grouped by region: order[fault_begin[r], fault_begin[r+1]),
  // ascending within a region. Workers steal the regions that hold any.
  const std::size_t nf = faults.size();
  const std::size_t nr = regions_.stem.size();
  std::vector<std::uint32_t> fault_begin(nr + 1, 0);
  for (const Fault& f : faults) {
    if (f.gate >= cn_->size() ||
        (f.pin >= 0 &&
         static_cast<std::size_t>(f.pin) >= cn_->fanin(f.gate).size())) {
      throw std::out_of_range("fault site " + std::to_string(f.gate) + "." +
                              std::to_string(f.pin) + " is not in a " +
                              std::to_string(cn_->size()) + "-gate netlist");
    }
    ++fault_begin[regions_.region_of[f.gate] + 1];
  }
  std::vector<std::uint32_t> busy;
  std::size_t most_faults = 0;  // in one region
  for (std::uint32_t r = 0; r < nr; ++r) {
    const std::size_t here = fault_begin[r + 1];
    if (here == 0) continue;
    busy.push_back(r);
    most_faults = std::max(most_faults, here);
  }
  std::partial_sum(fault_begin.begin(), fault_begin.end(),
                   fault_begin.begin());
  std::vector<std::uint32_t> order(nf);
  {
    std::vector<std::uint32_t> at(fault_begin.begin(), fault_begin.end() - 1);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      order[at[regions_.region_of[faults[fi].gate]]++] =
          static_cast<std::uint32_t>(fi);
    }
  }

  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;
  // A worker with no region to steal would only copy the good machine for
  // nothing.
  const int workers =
      static_cast<int>(std::min<std::size_t>(max_workers_, busy.size()));
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();

  for (Machine& m : machines_) {
    m.tallies = Tallies{};
    m.events_mark = m.ev.events_scheduled();
    // Worker buffers are sized here, on the calling thread, so workers
    // allocate nothing.
    if (m.sens.size() < regions_.widest) {
      m.sens.resize(regions_.widest);
      m.sens_stamp.resize(regions_.widest, 0);
    }
    m.path.reserve(regions_.widest);
    m.reaching.reserve(most_faults);
  }
  std::vector<obs::Histogram*> task_timers;
  if (observed) {
    for (int w = 0; w < workers; ++w) {
      task_timers.push_back(&obs::Registry::global().timer(
          "fault_sim.threaded.worker." + std::to_string(w) + ".task"));
    }
  }

  FaultSimResult res;
  res.first_detected_by.assign(nf, -1);
  int* const first = res.first_detected_by.data();
  std::atomic<std::size_t> detected{0};
  std::uint64_t blocks = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t base = b * kBits;
    const std::size_t cnt = std::min(kBits, patterns.size() - base);
    const Word valid = Traits::prefix_mask(cnt);
    if (workers > 0) load_block(patterns, base, cnt);
    std::atomic<std::size_t> next{0};
    const auto work = [&](int w) {
      Machine& m = machines_[static_cast<std::size_t>(w)];
      std::optional<obs::ScopedTimer> timer;
      if (observed) timer.emplace(*task_timers[static_cast<std::size_t>(w)]);
      m.ev.load_good(good_);
      std::size_t found = 0;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= busy.size()) break;
        const std::uint32_t r = busy[i];
        ++m.tallies.regions;
        const std::span<const std::uint32_t> ids(
            order.data() + fault_begin[r], order.data() + fault_begin[r + 1]);
        found += simulate_region(m, r, faults, ids, drop_detected, valid, base,
                                 first);
      }
      detected.fetch_add(found, std::memory_order_relaxed);
    };
    for (int w = 1; w < workers; ++w) pool_->submit([&work, w] { work(w); });
    // Worker 0's exception waits for the pool jobs, which use this frame's
    // locals.
    std::exception_ptr err;
    try {
      if (workers > 0) work(0);
    } catch (...) {
      err = std::current_exception();
    }
    // The barrier: every write of this block happens before the next block
    // reads the entries (and before the caller sees the result).
    if (workers > 1) pool_->wait();
    if (err) std::rethrow_exception(err);
    ++blocks;
    res.num_detected = static_cast<int>(detected.load());
    if (progressing) {
      emit_progress(static_cast<std::uint64_t>(base + cnt), res.num_detected,
                    nf, b + 1, nblocks, budget);
    }
    // Nothing left to simulate (every fault dropped, or none given).
    if (static_cast<std::size_t>(res.num_detected) == nf &&
        (drop_detected || nf == 0)) {
      break;
    }
    // Poll after the block's detections are in: a partial covers a clean
    // pattern prefix, and an exhausted budget still gets one block of work.
    if (guarded) {
      budget->charge_patterns(cnt);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (observed) record_run_obs(res, drop_detected, blocks, workers);
  good_.flush_tally();
  return res;
}

// Every run-level counter, recorded once per run after the last barrier.
// The fault_sim.ppsfp.* names describe the PPSFP block algorithm and keep
// them at every word width and thread count, so reports stay comparable;
// propagation counters live under fault_sim.event.*, the lane under
// fault_sim.lanes.* and the sim.word_bits gauge, and the schedule under
// fault_sim.threaded.*.
template <typename EB>
void BasicParallelFaultSimulator<EB>::record_run_obs(const FaultSimResult& res,
                                                     bool drop_detected,
                                                     std::uint64_t blocks,
                                                     int workers) {
  obs::Registry& reg = obs::Registry::global();
  Tallies sum;
  std::uint64_t events = 0;
  for (std::size_t w = 0; w < machines_.size(); ++w) {
    const Machine& m = machines_[w];
    events += m.ev.events_scheduled() - m.events_mark;
    sum.gates_evaluated += m.tallies.gates_evaluated;
    sum.faults_simulated += m.tallies.faults_simulated;
    sum.stems_propagated += m.tallies.stems_propagated;
    sum.trace_evals += m.tallies.trace_evals;
    for (std::size_t d = 0; d < sum.death_depth.size(); ++d) {
      sum.death_depth[d] += m.tallies.death_depth[d];
    }
    const std::string worker =
        "fault_sim.threaded.worker." + std::to_string(w);
    if (m.tallies.faults_simulated != 0) {
      reg.counter(worker + ".faults").add(m.tallies.faults_simulated);
    }
    if (m.tallies.regions != 0) {
      reg.counter(worker + ".regions").add(m.tallies.regions);
    }
  }
  // The decomposition counter names the one schedule, so reports stay
  // comparable with older ones.
  reg.counter("fault_sim.threaded.runs").add(1);
  reg.counter("fault_sim.threaded.decomposition.fault_chunk").add(1);
  reg.gauge("fault_sim.threaded.workers").set(workers);
  if (pool_) {
    reg.gauge("thread_pool.max_queue_depth")
        .set_max(static_cast<std::int64_t>(pool_->max_queue_depth()));
  }

  reg.counter("fault_sim.ppsfp.runs").add(1);
  reg.counter(std::string("fault_sim.lanes.") + std::string(EB::tag())).add(1);
  reg.gauge("sim.word_bits").set(Traits::kBits);
  reg.counter("fault_sim.ppsfp.pattern_blocks").add(blocks);
  reg.counter("fault_sim.ppsfp.faults_simulated").add(sum.faults_simulated);
  reg.counter("fault_sim.ppsfp.stems_propagated").add(sum.stems_propagated);
  // Dropping takes a fault out of every later block the moment it is
  // detected, so each detection is one dropped fault -- counted once, not
  // once per block that skips it.
  const auto detections = static_cast<std::uint64_t>(res.num_detected);
  reg.counter("fault_sim.ppsfp.faults_dropped")
      .add(drop_detected ? detections : 0);
  reg.counter("fault_sim.ppsfp.detections").add(detections);
  record_final_coverage(res);

  // The event counters and the frontier-death histogram count stem
  // propagations: one per region whose live faults reach its stem in a
  // block.
  reg.counter("fault_sim.event.runs").add(1);
  reg.counter("fault_sim.event.events_scheduled").add(events);
  reg.counter("fault_sim.event.gates_evaluated").add(sum.gates_evaluated);
  reg.counter("fault_sim.event.trace_evals").add(sum.trace_evals);
  // Frontier-death histogram: bucket d = stem propagations whose difference
  // frontier died d levels past the stem (d=0 also counts regions whose
  // live faults never reached their stem in the block). Flushed as counters
  // so the whole run's distribution lands in one report.
  for (int d = 0; d < Tallies::kDeathDepthBuckets; ++d) {
    const std::uint64_t n = sum.death_depth[static_cast<std::size_t>(d)];
    if (n == 0) continue;
    char name[48];
    std::snprintf(name, sizeof(name), "fault_sim.event.death_depth.%02d%s", d,
                  d == Tallies::kDeathDepthBuckets - 1 ? "_plus" : "");
    reg.counter(name).add(n);
  }
}

}  // namespace dft
