// Member definitions of BasicThreadedFaultSimulator<EB>. Included at the
// bottom of fault/threaded_fault_sim.h; never include directly. The 64-bit
// backend is explicitly instantiated in threaded_fault_sim.cpp, the wide
// lanes in fault/simd_lanes.cpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <string>

#include "fault/threaded_fault_sim.h"
#include "obs/obs.h"

namespace dft {

template <typename EB>
BasicThreadedFaultSimulator<EB>::BasicThreadedFaultSimulator(
    const Netlist& nl, int threads)
    : nl_(&nl), pool_(threads) {
  // One compiled snapshot serves every worker machine: it is immutable
  // after construction, so concurrent reads need no synchronization.
  const auto compiled = std::make_shared<const CompiledNetlist>(nl);
  machines_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int i = 0; i < pool_.size(); ++i) {
    machines_.push_back(
        std::make_unique<BasicParallelFaultSimulator<EB>>(nl, compiled));
  }
}

template <typename EB>
void BasicThreadedFaultSimulator<EB>::set_observation_points(
    const std::vector<GateId>& observed) {
  for (auto& m : machines_) m->set_observation_points(observed);
}

template <typename EB>
void BasicThreadedFaultSimulator<EB>::reset_observation_points() {
  for (auto& m : machines_) m->reset_observation_points();
}

template <typename EB>
FaultSimResult BasicThreadedFaultSimulator<EB>::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  // Validate before any worker touches its machine: the whole engine stays
  // unmutated on malformed input, like the single-threaded engines.
  validate_patterns(*nl_, patterns, /*require_binary=*/true);

  const std::size_t nf = faults.size();
  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;
  const std::size_t nchunks = (nf + kChunk - 1) / kChunk;
  // Cap the active workers at the machine's real parallelism: a pool wider
  // than the hardware only adds time-slicing and cache churn between
  // per-worker machine states, never throughput. A worker with no chunk to
  // steal would only load the good machine for nothing.
  const int workers = std::min({pool_.size(), resolve_thread_count(0),
                                static_cast<int>(nchunks)});
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();
  if (observed) {
    // The decomposition counter names the one schedule, once per run, so
    // reports stay comparable with older ones.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.threaded.runs").add(1);
    reg.counter("fault_sim.threaded.decomposition.fault_chunk").add(1);
    reg.gauge("fault_sim.threaded.workers").set(workers);
  }

  FaultSimResult res;
  res.first_detected_by.assign(nf, -1);
  int* const first = res.first_detected_by.data();
  std::atomic<std::size_t> detected{0};
  std::uint64_t blocks = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t base = b * kBits;
    const std::size_t cnt = std::min(kBits, patterns.size() - base);
    std::atomic<std::size_t> next{0};
    const auto work = [&](int w) {
      BasicParallelFaultSimulator<EB>& m =
          *machines_[static_cast<std::size_t>(w)];
      std::optional<obs::ScopedTimer> timer;
      if (observed) {
        timer.emplace(obs::Registry::global().timer(
            "fault_sim.threaded.worker." + std::to_string(w) + ".task"));
      }
      m.load_block(patterns, base, cnt);
      std::size_t simulated = 0;
      std::size_t found = 0;
      for (;;) {
        const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        simulated += m.run_block_faults(faults, c * kChunk,
                                        std::min(nf, (c + 1) * kChunk),
                                        drop_detected, first, found);
      }
      detected.fetch_add(found, std::memory_order_relaxed);
      if (observed && simulated != 0) {
        obs::Registry::global()
            .counter("fault_sim.threaded.worker." + std::to_string(w) +
                     ".faults")
            .add(simulated);
      }
    };
    for (int w = 1; w < workers; ++w) pool_.submit([&work, w] { work(w); });
    // The driving thread is worker 0 rather than idling at the barrier; a
    // small job then costs about what one machine's inline run does. Its
    // exception waits for the pool jobs, which use this frame's locals.
    std::exception_ptr err;
    try {
      if (workers > 0) work(0);
    } catch (...) {
      err = std::current_exception();
    }
    // The barrier: every write of this block happens before the next block
    // reads the entries (and before the caller sees the result).
    pool_.wait();
    if (err) std::rethrow_exception(err);
    ++blocks;
    res.num_detected = static_cast<int>(detected.load());
    if (progressing) {
      emit_progress(static_cast<std::uint64_t>(base + cnt), res.num_detected,
                    nf, b + 1, nblocks, budget);
    }
    // Nothing left to simulate (every fault dropped, or none given): stop,
    // as the single-machine engine does.
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

  // The per-machine fault/event tallies accumulated on the workers flush
  // here, single-threaded, after the last barrier.
  for (int w = 0; w < workers; ++w) {
    machines_[static_cast<std::size_t>(w)]->flush_block_obs();
  }
  if (observed) {
    // The run-level counters keep the names the single-machine engine
    // uses, so a report reads the same at every thread count.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.ppsfp.runs").add(1);
    reg.counter(std::string("fault_sim.lanes.") + std::string(EB::tag()))
        .add(1);
    reg.gauge("sim.word_bits").set(Traits::kBits);
    reg.counter("fault_sim.ppsfp.pattern_blocks").add(blocks);
    reg.counter("fault_sim.ppsfp.detections")
        .add(static_cast<std::uint64_t>(res.num_detected));
    record_final_coverage(res);
    reg.counter("fault_sim.event.runs").add(1);
    reg.gauge("thread_pool.max_queue_depth")
        .set_max(static_cast<std::int64_t>(pool_.max_queue_depth()));
  }
  return res;
}

}  // namespace dft
