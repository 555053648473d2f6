// Member definitions of BasicThreadedFaultSimulator<EB>. Included at the
// bottom of fault/threaded_fault_sim.h; never include directly. The 64-bit
// backend is explicitly instantiated in threaded_fault_sim.cpp, the wide
// lanes in fault/simd_lanes.cpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>

#include "fault/threaded_fault_sim.h"
#include "obs/obs.h"

namespace dft {

namespace detail {

// Sentinel for "no detection recorded yet" in the shared per-fault array:
// every real pattern index compares below it, so CAS-min needs no special
// case.
inline constexpr std::int32_t kMtUndetected =
    std::numeric_limits<std::int32_t>::max();

}  // namespace detail

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

// Workers steal pattern-word blocks from a shared counter; each stolen
// block costs its machine one good-machine pass and one detect sweep over
// the full fault list. Stealing balances the tail: the last blocks land on
// whichever workers free up first.
template <typename EB>
void BasicThreadedFaultSimulator<EB>::run_pattern_block(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget,
    std::atomic<std::int32_t>* shared, int workers,
    std::vector<guard::RunStatus>& status,
    std::atomic<std::uint64_t>& detected) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> blocks_done{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (int w = 0; w < workers; ++w) {
    pool_.submit([&, w] {
      try {
        BasicParallelFaultSimulator<EB>& m =
            *machines_[static_cast<std::size_t>(w)];
        std::optional<obs::ScopedTimer> timer;
        if (observed) {
          timer.emplace(obs::Registry::global().timer(
              "fault_sim.threaded.worker." + std::to_string(w) + ".task"));
        }
        std::uint64_t simulated = 0;
        for (;;) {
          // Poll between stolen blocks: a processed block's detections are
          // already merged into the shared array, so stopping here leaves a
          // sound partial.
          if (guarded) {
            const guard::RunStatus st = budget->poll();
            if (st != guard::RunStatus::Completed) {
              status[static_cast<std::size_t>(w)] = st;
              break;
            }
          }
          const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
          if (b >= nblocks) break;
          const std::size_t base = b * kBits;
          const std::size_t cnt = std::min(kBits, patterns.size() - base);
          m.load_block(patterns, base, cnt);
          simulated +=
              m.run_block_faults(faults, 0, faults.size(), drop_detected,
                                 shared, &detected);
          if (guarded) budget->charge_patterns(cnt);
          if (progressing) {
            // Block boundary: the sink's CAS ticker picks one of the racing
            // workers per interval; the counters are relaxed running
            // totals, so coverage/patterns are both non-decreasing.
            const std::uint64_t done =
                blocks_done.fetch_add(1, std::memory_order_relaxed) + 1;
            emit_progress(
                std::min<std::uint64_t>(done * kBits, patterns.size()),
                static_cast<int>(detected.load(std::memory_order_relaxed)),
                faults.size(), done, nblocks, budget);
          }
        }
        if (observed && simulated != 0) {
          obs::Registry::global()
              .counter("fault_sim.threaded.worker." + std::to_string(w) +
                       ".faults")
              .add(simulated);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool_.wait();
  if (first_error) std::rethrow_exception(first_error);
}

// Too few blocks to feed every worker: blocks run in sequence, one machine
// evaluates the good pass, its siblings adopt the snapshot, and the workers
// steal chunks of the fault list.
template <typename EB>
void BasicThreadedFaultSimulator<EB>::run_fault_chunk(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget,
    std::atomic<std::int32_t>* shared, int workers,
    std::vector<guard::RunStatus>& status,
    std::atomic<std::uint64_t>& detected) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  const std::size_t nf = faults.size();
  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();
  const std::size_t chunk = std::max<std::size_t>(
      64, nf / (8 * static_cast<std::size_t>(workers)));
  const std::size_t nchunks = (nf + chunk - 1) / chunk;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t base = b * kBits;
    const std::size_t cnt = std::min(kBits, patterns.size() - base);
    machines_[0]->load_block(patterns, base, cnt);
    for (int w = 1; w < workers; ++w) {
      machines_[static_cast<std::size_t>(w)]->adopt_block_from(*machines_[0]);
    }
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;
    for (int w = 0; w < workers; ++w) {
      pool_.submit([&, w] {
        try {
          BasicParallelFaultSimulator<EB>& m =
              *machines_[static_cast<std::size_t>(w)];
          std::optional<obs::ScopedTimer> timer;
          if (observed) {
            timer.emplace(obs::Registry::global().timer(
                "fault_sim.threaded.worker." + std::to_string(w) + ".task"));
          }
          std::uint64_t simulated = 0;
          for (;;) {
            const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= nchunks) break;
            simulated += m.run_block_faults(
                faults, c * chunk, std::min(nf, (c + 1) * chunk),
                drop_detected, shared, &detected);
          }
          if (observed && simulated != 0) {
            obs::Registry::global()
                .counter("fault_sim.threaded.worker." + std::to_string(w) +
                         ".faults")
                .add(simulated);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool_.wait();
    if (first_error) std::rethrow_exception(first_error);
    if (progressing) {
      // Blocks are sequential here, so emitting once per block from the
      // merging thread gives the same clean-prefix view as the
      // single-machine engine.
      emit_progress(
          static_cast<std::uint64_t>(base + cnt),
          static_cast<int>(detected.load(std::memory_order_relaxed)), nf,
          b + 1, nblocks, budget);
    }
    // Poll at block granularity, after the block's detections are merged:
    // blocks are sequential here, so a partial covers a clean pattern
    // prefix, exactly like the single-machine engine.
    if (guarded) {
      budget->charge_patterns(cnt);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        status[0] = st;
        break;
      }
    }
  }
}

template <typename EB>
FaultSimResult BasicThreadedFaultSimulator<EB>::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  constexpr std::size_t kBits = static_cast<std::size_t>(Traits::kBits);
  // Validate before any worker touches its machine: the whole engine stays
  // unmutated on malformed input, like the single-threaded engines.
  validate_patterns(*nl_, patterns, /*require_binary=*/true);

  // Cap the active workers at the machine's real parallelism: a pool wider
  // than the hardware only adds time-slicing and cache churn between
  // per-worker machine states -- the original scaling inversion -- never
  // throughput. A forced (non-Auto) decomposition uses every pool worker
  // instead: tests and A/B runs want the real interleavings, clamp or not.
  const int workers = mode_ == MtDecomposition::Auto
                          ? std::min(pool_.size(), resolve_thread_count(0))
                          : pool_.size();
  const std::size_t nblocks = (patterns.size() + kBits - 1) / kBits;

  MtDecomposition chosen = mode_;
  const char* reason = "forced";
  if (chosen == MtDecomposition::Auto) {
    const std::uint64_t product =
        static_cast<std::uint64_t>(patterns.size()) * faults.size();
    if (workers <= 1) {
      chosen = MtDecomposition::Sequential;
      reason = pool_.size() <= 1 ? "one_worker" : "oversubscribed";
    } else if (product < kSequentialCutoff) {
      chosen = MtDecomposition::Sequential;
      reason = "small_workload";
    } else if (nblocks >= 2 * static_cast<std::size_t>(workers)) {
      chosen = MtDecomposition::PatternBlock;
    } else {
      chosen = MtDecomposition::FaultChunk;
    }
  }
  last_ = chosen;

  if (obs::enabled()) {
    // The decomposition decision is part of the run report: dashboards can
    // tell a parallel run from a sequential fallback (and why it fell
    // back) without rerunning anything.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.threaded.runs").add(1);
    reg.counter(std::string("fault_sim.threaded.decomposition.") +
                std::string(to_string(chosen)))
        .add(1);
    if (chosen == MtDecomposition::Sequential) {
      reg.counter(std::string("fault_sim.threaded.sequential_reason.") +
                  reason)
          .add(1);
    }
    reg.gauge("fault_sim.threaded.workers")
        .set(chosen == MtDecomposition::Sequential ? 1 : workers);
  }

  if (chosen == MtDecomposition::Sequential) {
    // Inline on machine 0: no dispatch, no shared array, no merge. The
    // single-machine run() flushes its own obs tallies (including the lane
    // echo) and emits the progress events (under this engine's phase
    // label).
    machines_[0]->set_progress_phase(progress_phase());
    return machines_[0]->run(patterns, faults, drop_detected, budget);
  }

  // Shared earliest-detection array: workers CAS-min the global pattern
  // index per fault; the merge below is a plain read after the pool
  // barrier.
  const std::size_t nf = faults.size();
  std::unique_ptr<std::atomic<std::int32_t>[]> shared(
      new std::atomic<std::int32_t>[nf]);
  for (std::size_t i = 0; i < nf; ++i) {
    shared[i].store(detail::kMtUndetected, std::memory_order_relaxed);
  }

  std::vector<guard::RunStatus> status(
      static_cast<std::size_t>(std::max(workers, 1)),
      guard::RunStatus::Completed);
  std::atomic<std::uint64_t> detected{0};
  if (chosen == MtDecomposition::PatternBlock) {
    run_pattern_block(patterns, faults, drop_detected, budget, shared.get(),
                      workers, status, detected);
  } else {
    run_fault_chunk(patterns, faults, drop_detected, budget, shared.get(),
                    workers, status, detected);
  }

  FaultSimResult res;
  res.first_detected_by.assign(nf, -1);
  for (std::size_t i = 0; i < nf; ++i) {
    const std::int32_t v = shared[i].load(std::memory_order_relaxed);
    if (v != detail::kMtUndetected) {
      res.first_detected_by[i] = v;
      ++res.num_detected;
    }
  }
  for (const guard::RunStatus st : status) {
    res.status = guard::worst(res.status, st);
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    // The per-machine block/fault tallies accumulated on the workers flush
    // here, single-threaded, after the barrier; the run-level counters keep
    // the fault_sim.ppsfp.* names the single-machine engine uses.
    for (int w = 0; w < workers; ++w) {
      machines_[static_cast<std::size_t>(w)]->flush_block_obs();
    }
    reg.counter("fault_sim.ppsfp.runs").add(1);
    reg.counter(std::string("fault_sim.lanes.") + std::string(EB::tag()))
        .add(1);
    reg.gauge("sim.word_bits").set(Traits::kBits);
    reg.counter("fault_sim.ppsfp.detections")
        .add(static_cast<std::uint64_t>(res.num_detected));
    record_final_coverage(res);
    reg.gauge("thread_pool.max_queue_depth")
        .set_max(static_cast<std::int64_t>(pool_.max_queue_depth()));
  }
  return res;
}

}  // namespace dft
