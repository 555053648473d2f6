// Member definitions of BasicParallelFaultSimulator<EB>. Included at the
// bottom of fault/fault_sim.h; never include directly. The 64-bit backend
// is explicitly instantiated in fault_sim.cpp, the wide lanes in
// fault/simd_lanes.cpp -- ordinary consumers compile no template bodies.
#pragma once

#include <algorithm>
#include <cstdio>
#include <utility>

#include "fault/fault_sim.h"
#include "obs/obs.h"

namespace dft {

template <typename EB>
BasicParallelFaultSimulator<EB>::BasicParallelFaultSimulator(const Netlist& nl)
    : BasicParallelFaultSimulator(
          nl, std::make_shared<const CompiledNetlist>(nl)) {}

template <typename EB>
BasicParallelFaultSimulator<EB>::BasicParallelFaultSimulator(
    const Netlist& nl, std::shared_ptr<const CompiledNetlist> compiled)
    : nl_(&nl), observed_(nl.size(), 0), ev_(std::move(compiled)) {
  reset_observation_points();
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::set_observation_points(
    const std::vector<GateId>& observed) {
  std::fill(observed_.begin(), observed_.end(), 0);
  for (GateId g : observed) observed_.at(g) = 1;
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
BasicParallelFaultSimulator<EB>::detect_word(const Fault& f) {
  const GateType t = nl_->type(f.gate);
  const Word forced = f.sa1 ? Traits::ones() : Traits::zeros();

  // Storage D-pin fault: the wrong value is captured and observed whenever
  // the D net is an observation point (it is, under the full-scan default).
  if (is_storage(t) && f.pin == kStoragePinD) {
    const GateId din = nl_->fanin(f.gate)[kStoragePinD];
    if (!observed_[din]) return Traits::zeros();
    return ev_.good_word(din) ^ forced;
  }

  Word faulty_site;
  if (f.pin < 0) {
    faulty_site = forced;
  } else {
    faulty_site = ev_.eval_with_forced_pin(f.gate, f.pin, forced);
  }
  const Word activation = faulty_site ^ ev_.good_word(f.gate);
  if (!Traits::any(activation)) {
    ++event_stats_.death_depth[0];
    return Traits::zeros();
  }

  Word detect = Traits::zeros();
  if (observed_[f.gate]) detect = activation;

  const typename BasicEventSim<EB>::Propagation p =
      ev_.propagate(f.gate, faulty_site, observed_);
  event_stats_.gates_evaluated += p.gates_evaluated;
  ++event_stats_.death_depth[static_cast<std::size_t>(std::min(
      p.death_depth, EventStats::kDeathDepthBuckets - 1))];
  return detect | p.detect;
}

// Packs patterns[base, base + count) into the source words and runs the
// good-machine pass.
template <typename EB>
void BasicParallelFaultSimulator<EB>::load_words(
    const std::vector<SourceVector>& patterns, std::size_t base,
    std::size_t count) {
  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  const std::size_t ns = pis.size() + ffs.size();
  for (std::size_t s = 0; s < ns; ++s) {
    Word w = Traits::zeros();
    for (std::size_t b = 0; b < count; ++b) {
      if (patterns[base + b][s] == Logic::One) Traits::set_bit(w, b);
    }
    ev_.set_source_word(s < pis.size() ? pis[s] : ffs[s - pis.size()], w);
  }
  ev_.evaluate_good();
}

template <typename EB>
FaultSimResult BasicParallelFaultSimulator<EB>::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  // All validation happens before any set_word: a malformed pattern in the
  // middle of a block must not leave the simulator half-mutated.
  validate_patterns(*nl_, patterns, /*require_binary=*/true);
  const bool guarded = budget != nullptr && budget->limited();

  FaultSimResult res;
  res.first_detected_by.assign(faults.size(), -1);

  std::vector<std::size_t> alive(faults.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  // Local tallies flushed once at the end: this run() executes on worker
  // threads under the threaded engine, so the loop must not touch shared
  // counters.
  std::uint64_t blocks = 0;
  std::uint64_t faults_simulated = 0;
  std::uint64_t faults_dropped = 0;

  // Per-run event-kernel tallies (flushed to obs below, never per fault).
  event_stats_ = EventStats{};
  events_flushed_ = ev_.events_scheduled();

  for (std::size_t base = 0; base < patterns.size(); base += kBits) {
    const std::size_t blk = std::min(kBits, patterns.size() - base);
    load_words(patterns, base, blk);
    const Word valid = Traits::prefix_mask(blk);

    ++blocks;
    faults_simulated += alive.size();
    std::vector<std::size_t> still_alive;
    still_alive.reserve(alive.size());
    for (std::size_t fi : alive) {
      const Word det = detect_word(faults[fi]) & valid;
      const bool hit = Traits::any(det);
      if (hit && res.first_detected_by[fi] < 0) {
        res.first_detected_by[fi] =
            static_cast<int>(base) + Traits::first_set(det);
        ++res.num_detected;
      }
      if (!hit || !drop_detected) still_alive.push_back(fi);
      else ++faults_dropped;
    }
    alive = std::move(still_alive);
    if (progress_on()) {
      emit_progress(static_cast<std::uint64_t>(base + blk), res.num_detected,
                    faults.size(), blocks,
                    (patterns.size() + kBits - 1) / kBits, budget);
    }
    if (alive.empty()) break;
    // Poll at block granularity, after the block's detections are merged:
    // an already-exhausted budget still gets one block of real work, so a
    // partial run is never empty.
    if (guarded) {
      budget->charge_patterns(blk);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (obs::enabled()) {
    // The run-loop counters keep the fault_sim.ppsfp.* names at EVERY word
    // width: they describe the PPSFP block algorithm, so dashboards and the
    // report schema checks stay comparable across lanes and with the
    // threaded engine. Propagation counters live under fault_sim.event.*;
    // the lane itself is echoed under fault_sim.lanes.* and the
    // sim.word_bits gauge.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.ppsfp.runs").add(1);
    reg.counter(std::string("fault_sim.lanes.") + std::string(EB::tag()))
        .add(1);
    reg.gauge("sim.word_bits").set(Traits::kBits);
    reg.counter("fault_sim.ppsfp.pattern_blocks").add(blocks);
    reg.counter("fault_sim.ppsfp.faults_simulated").add(faults_simulated);
    reg.counter("fault_sim.ppsfp.faults_dropped").add(faults_dropped);
    reg.counter("fault_sim.ppsfp.detections")
        .add(static_cast<std::uint64_t>(res.num_detected));
    record_final_coverage(res);
    reg.counter("fault_sim.event.runs").add(1);
    flush_event_obs();
  }
  return res;
}

// Flushes the accumulated event-kernel tallies (events-scheduled delta
// since the watermark, gates evaluated, the frontier-death histogram) and
// resets them. Callers hold obs::enabled().
template <typename EB>
void BasicParallelFaultSimulator<EB>::flush_event_obs() {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("fault_sim.event.events_scheduled")
      .add(ev_.events_scheduled() - events_flushed_);
  events_flushed_ = ev_.events_scheduled();
  reg.counter("fault_sim.event.gates_evaluated")
      .add(event_stats_.gates_evaluated);
  // Frontier-death histogram: bucket d = fault words whose difference
  // frontier died d levels past the fault site (d=0 includes faults
  // never activated in the block). Flushed as counters so the whole
  // run's distribution lands in one report.
  for (int d = 0; d < EventStats::kDeathDepthBuckets; ++d) {
    if (event_stats_.death_depth[static_cast<std::size_t>(d)] == 0) {
      continue;
    }
    char name[48];
    std::snprintf(name, sizeof(name), "fault_sim.event.death_depth.%02d%s", d,
                  d == EventStats::kDeathDepthBuckets - 1 ? "_plus" : "");
    reg.counter(name).add(
        event_stats_.death_depth[static_cast<std::size_t>(d)]);
  }
  event_stats_ = EventStats{};
}

// --- Block-scoped entry points (threaded schedule) -------------------------

template <typename EB>
void BasicParallelFaultSimulator<EB>::load_block(
    const std::vector<SourceVector>& patterns, std::size_t base,
    std::size_t count) {
  load_words(patterns, base, count);
  block_base_ = base;
  block_valid_ = Traits::prefix_mask(count);
}

template <typename EB>
std::size_t BasicParallelFaultSimulator<EB>::run_block_faults(
    const std::vector<Fault>& faults, std::size_t begin, std::size_t end,
    bool drop_detected, int* first, std::size_t& detected) {
  const int base = static_cast<int>(block_base_);
  std::size_t simulated = 0;
  for (std::size_t fi = begin; fi < end; ++fi) {
    if (drop_detected && first[fi] >= 0) {
      ++tally_dropped_;
      continue;
    }
    ++simulated;
    const Word det = detect_word(faults[fi]) & block_valid_;
    if (first[fi] < 0 && Traits::any(det)) {
      first[fi] = base + Traits::first_set(det);
      ++detected;
    }
  }
  tally_faults_ += simulated;
  return simulated;
}

template <typename EB>
void BasicParallelFaultSimulator<EB>::flush_block_obs() {
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.ppsfp.faults_simulated").add(tally_faults_);
    reg.counter("fault_sim.ppsfp.faults_dropped").add(tally_dropped_);
    flush_event_obs();
  } else {
    event_stats_ = EventStats{};
    events_flushed_ = ev_.events_scheduled();
  }
  tally_faults_ = tally_dropped_ = 0;
}

}  // namespace dft
