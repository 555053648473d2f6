#include "fault/threaded_fault_sim.h"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/deductive.h"
#include "obs/obs.h"

namespace dft {

namespace {

// The DFT_SIMD=auto engine (the header says why): a 64-bit head engine for
// a dropping run's first kHead patterns, and a wide-lane tail engine, built
// on first use, for the faults the head leaves. Both read one compiled
// snapshot.
class AutoLaneFaultSimulator final : public FaultSimEngine {
 public:
  static constexpr std::size_t kHead = 64;

  AutoLaneFaultSimulator(std::shared_ptr<const CompiledNetlist> cn,
                         int threads, simd::Lane wide)
      : cn_(std::move(cn)),
        threads_(threads),
        wide_lane_(wide),
        head_(cn_, threads) {}

  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults, bool drop_detected,
                     const guard::Budget* budget) override {
    if (patterns.size() <= kHead) {
      head_.set_progress_phase(progress_phase());
      return head_.run(patterns, faults, drop_detected, budget);
    }
    if (!drop_detected) {
      return wide(ProgressPrefix{}).run(patterns, faults, false, budget);
    }
    // The head checks the faults; the tail's patterns are checked here,
    // before the head touches a machine.
    validate_patterns(cn_->source_count(), patterns, /*require_binary=*/true);
    head_.set_progress_phase("");  // this engine reports the head itself
    const auto split = patterns.begin() + static_cast<std::ptrdiff_t>(kHead);
    FaultSimResult res = head_.run({patterns.begin(), split}, faults, true,
                                   budget);
    if (progress_on()) {
      const std::size_t bits =
          static_cast<std::size_t>(simd::lane_bits(wide_lane_));
      const std::size_t tail_blocks =
          (patterns.size() - kHead + bits - 1) / bits;
      emit_progress(kHead, res.num_detected, faults.size(), 1,
                    1 + tail_blocks, budget);
    }
    if (res.status != guard::RunStatus::Completed) return res;
    std::vector<Fault> survivors;
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.first_detected_by[i] >= 0) continue;
      survivors.push_back(faults[i]);
      at.push_back(i);
    }
    if (survivors.empty()) return res;

    const FaultSimResult t =
        wide({kHead, res.num_detected, /*blocks=*/1})
            .run({split, patterns.end()}, survivors, true, budget);
    for (std::size_t k = 0; k < at.size(); ++k) {
      if (t.first_detected_by[k] >= 0) {
        res.first_detected_by[at[k]] =
            t.first_detected_by[k] + static_cast<int>(kHead);
      }
    }
    res.num_detected += t.num_detected;
    res.status = t.status;
    if (obs::enabled()) {
      obs::Registry::global()
          .counter("fault_sim.auto.tail_faults")
          .add(survivors.size());
      record_final_coverage(res);
    }
    return res;
  }

  std::string_view name() const override { return "event"; }
  // The block size of the lane that grades every run longer than the head,
  // which keeps callers that batch by it (random TPG) lane-invariant.
  int pattern_word_bits() const override {
    return simd::lane_bits(wide_lane_);
  }

 private:
  // The wide-lane engine, built on first use, with this engine's progress
  // phase and the given prefix.
  FaultSimEngine& wide(ProgressPrefix prefix) {
    if (!wide_) {
      wide_ = make_fault_sim_engine(cn_, threads_, wide_lane_);
    }
    wide_->set_progress_phase(progress_phase());
    wide_->set_progress_prefix(prefix);
    return *wide_;
  }

  std::shared_ptr<const CompiledNetlist> cn_;
  int threads_;
  simd::Lane wide_lane_;
  ParallelFaultSimulator head_;
  std::unique_ptr<FaultSimEngine> wide_;
};

}  // namespace

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      int threads) {
  const simd::Lane lane = simd::resolve_lane();
  if (threads < 1 || !simd::resolves_auto()) {
    return make_fault_sim_engine(nl, threads, FaultSimKernel::Event, lane);
  }
  return std::make_unique<AutoLaneFaultSimulator>(
      std::make_shared<const CompiledNetlist>(nl), threads, lane);
}

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      std::string_view engine,
                                                      int threads) {
  if (threads >= 1 && (engine.empty() || engine == "event")) {
    return make_fault_sim_engine(nl, threads);
  }
  return make_fault_sim_engine(nl, engine, threads, simd::resolve_lane());
}

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      std::string_view engine,
                                                      int threads,
                                                      simd::Lane lane) {
  if (threads < 1) {
    throw std::invalid_argument(
        "fault-sim threads must be >= 1 (got " + std::to_string(threads) +
        ")");
  }
  check_fault_sim_engine(engine);
  if (engine.empty() || engine == "event") {
    return make_fault_sim_engine(nl, threads, FaultSimKernel::Event, lane);
  }
  if (threads != 1) {
    throw std::invalid_argument("engine '" + std::string(engine) +
                                "' is single-machine; --threads requires "
                                "event");
  }
  if (engine == "serial") return std::make_unique<SerialFaultSimulator>(nl);
  return std::make_unique<DeductiveFaultSimulator>(nl);
}

void check_fault_sim_engine(std::string_view engine) {
  for (std::string_view name : {"", "event", "serial", "deductive"}) {
    if (engine == name) return;
  }
  throw std::invalid_argument(
      "unknown fault-sim engine '" + std::string(engine) +
      "'; valid engines: event (default), serial, deductive");
}

}  // namespace dft
