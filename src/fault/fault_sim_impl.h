// Member definitions of BasicParallelFaultSimulator<EB>. Included at the
// bottom of fault/fault_sim.h; never include directly. The 64-bit backend
// is explicitly instantiated in fault_sim.cpp, the wide lanes in
// fault/simd_lanes.cpp -- ordinary consumers compile no template bodies.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "fault/fault_sim.h"
#include "obs/obs.h"

namespace dft {

template <typename EB>
BasicParallelFaultSimulator<EB>::BasicParallelFaultSimulator(const Netlist& nl,
                                                             int threads)
    : nl_(&nl), observed_(nl.size(), 0) {
  const int n = resolve_thread_count(threads);
  max_workers_ = std::min(n, resolve_thread_count(0));
  // One compiled snapshot serves every worker machine: it is immutable
  // after construction, so concurrent reads need no synchronization.
  const auto compiled = std::make_shared<const CompiledNetlist>(nl);
  machines_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) machines_.emplace_back(compiled);
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n - 1);
  reset_observation_points();
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::set_observation_points(
    const std::vector<GateId>& observed) {
  for (GateId g : observed) {
    if (g >= observed_.size()) {
      throw std::out_of_range("observation point " + std::to_string(g) +
                              " is not a gate of a " +
                              std::to_string(observed_.size()) +
                              "-gate netlist");
    }
  }
  std::fill(observed_.begin(), observed_.end(), 0);
  for (GateId g : observed) observed_[g] = 1;
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::reset_observation_points() {
  std::fill(observed_.begin(), observed_.end(), 0);
  for (GateId g : nl_->outputs()) observed_[g] = 1;
  for (GateId ff : nl_->storage()) {
    observed_[nl_->fanin(ff)[kStoragePinD]] = 1;
  }
}

template <typename EB>
typename BasicParallelFaultSimulator<EB>::Word
BasicParallelFaultSimulator<EB>::detect_word(Machine& m, const Fault& f) const {
  const GateType t = nl_->type(f.gate);
  const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();

  // Storage D-pin fault: the wrong value is captured and observed whenever
  // the D net is an observation point (it is, under the full-scan default).
  if (is_storage(t) && f.pin == kStoragePinD) {
    const GateId din = nl_->fanin(f.gate)[kStoragePinD];
    if (!observed_[din]) return Traits::zeros();
    return m.ev.good_word(din) ^ forced;
  }

  Word faulty_site;
  if (f.pin < 0) {
    faulty_site = forced;
  } else {
    faulty_site = m.ev.eval_with_forced_pin(f.gate, f.pin, forced);
  }
  const Word activation = faulty_site ^ m.ev.good_word(f.gate);
  if (!Traits::any(activation)) {
    ++m.tallies.death_depth[0];
    return Traits::zeros();
  }

  Word detect = Traits::zeros();
  if (observed_[f.gate]) detect = activation;

  const typename BasicEventSim<EB>::Propagation p =
      m.ev.propagate(f.gate, faulty_site, observed_);
  m.tallies.gates_evaluated += p.gates_evaluated;
  ++m.tallies.death_depth[static_cast<std::size_t>(std::min(
      p.death_depth, Tallies::kDeathDepthBuckets - 1))];
  return detect | p.detect;
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::load_block(
    Machine& m, const std::vector<SourceVector>& patterns, std::size_t base,
    std::size_t count) const {
  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  const std::size_t ns = pis.size() + ffs.size();
  for (std::size_t s = 0; s < ns; ++s) {
    Word w = Traits::zeros();
    for (std::size_t b = 0; b < count; ++b) {
      if (patterns[base + b][s] == Logic::One) Traits::set_bit(w, b);
    }
    m.ev.set_source_word(s < pis.size() ? pis[s] : ffs[s - pis.size()], w);
  }
  m.ev.evaluate_good();
}

// The one schedule, at every thread count. Pattern-word blocks run in
// order; in each block every worker loads the good machine itself, then
// steals 64-fault chunks from a shared counter until the list is done. The
// caller is worker 0 and pool_->wait() is the barrier between blocks; at
// one worker the same loop runs inline.
//
// Chunks are disjoint and blocks are ordered, so each first_detected_by
// entry has one writer per block and the first block that detects a fault
// is the earliest; dropping skips a fault an earlier block detected. The
// result and the work done (faults simulated, gates evaluated, events
// scheduled) therefore do not depend on the thread count.
template <typename EB>
FaultSimResult BasicParallelFaultSimulator<EB>::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  // Validate before any machine is touched: a malformed pattern in the
  // middle of a block must not leave the engine half-mutated.
  validate_patterns(*nl_, patterns, /*require_binary=*/true);

  const std::size_t nf = faults.size();
  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;
  const std::size_t nchunks = (nf + kChunk - 1) / kChunk;
  // A worker with no chunk to steal would only load the good machine for
  // nothing.
  const int workers = std::min(max_workers_, static_cast<int>(nchunks));
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();

  for (Machine& m : machines_) {
    m.tallies = Tallies{};
    m.events_mark = m.ev.events_scheduled();
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
    std::atomic<std::size_t> next{0};
    const auto work = [&](int w) {
      Machine& m = machines_[static_cast<std::size_t>(w)];
      std::optional<obs::ScopedTimer> timer;
      if (observed) timer.emplace(*task_timers[static_cast<std::size_t>(w)]);
      load_block(m, patterns, base, cnt);
      std::size_t found = 0;
      for (;;) {
        const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        const std::size_t end = std::min(nf, (c + 1) * kChunk);
        for (std::size_t fi = c * kChunk; fi < end; ++fi) {
          if (drop_detected && first[fi] >= 0) continue;
          ++m.tallies.faults_simulated;
          const Word det = detect_word(m, faults[fi]) & valid;
          if (first[fi] < 0 && Traits::any(det)) {
            first[fi] = static_cast<int>(base) + Traits::first_set(det);
            ++found;
          }
        }
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
    for (std::size_t d = 0; d < sum.death_depth.size(); ++d) {
      sum.death_depth[d] += m.tallies.death_depth[d];
    }
    if (m.tallies.faults_simulated != 0) {
      reg.counter("fault_sim.threaded.worker." + std::to_string(w) +
                  ".faults")
          .add(m.tallies.faults_simulated);
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
  // Dropping takes a fault out of every later block the moment it is
  // detected, so each detection is one dropped fault -- counted once, not
  // once per block that skips it.
  const auto detections = static_cast<std::uint64_t>(res.num_detected);
  reg.counter("fault_sim.ppsfp.faults_dropped")
      .add(drop_detected ? detections : 0);
  reg.counter("fault_sim.ppsfp.detections").add(detections);
  record_final_coverage(res);

  reg.counter("fault_sim.event.runs").add(1);
  reg.counter("fault_sim.event.events_scheduled").add(events);
  reg.counter("fault_sim.event.gates_evaluated").add(sum.gates_evaluated);
  // Frontier-death histogram: bucket d = fault words whose difference
  // frontier died d levels past the fault site (d=0 includes faults never
  // activated in the block). Flushed as counters so the whole run's
  // distribution lands in one report.
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
