// Fault simulation (Sec. I-B).
//
// Engine hierarchy (all implement FaultSimEngine; see also deductive.h and
// threaded_fault_sim.h):
//  * SerialFaultSimulator -- the textbook reference: one good-machine and one
//    faulty-machine simulation per (pattern, fault) pair. "Fault simulation,
//    with respect to run time, is similar to doing 3001 good machine
//    simulations."
//  * BasicParallelFaultSimulator<EB> -- parallel-pattern single-fault
//    propagation (PPSFP): one pattern word (64 bits classic, 256/512 on the
//    widened SIMD lanes -- sim/eval_backend.h) per block with fault
//    dropping, propagated by the compiled-netlist event-driven selective
//    trace, which only touches the difference frontier (see
//    sim/event_sim.h). `ParallelFaultSimulator` names the classic 64-bit
//    instantiation.
//  * DeductiveFaultSimulator (deductive.h) -- Armstrong-style fault-list
//    propagation, the independent cross-check.
//  * BasicThreadedFaultSimulator<EB> (threaded_fault_sim.h) -- the
//    multi-threaded engine: one PPSFP machine per worker, pattern-block or
//    fault-chunk decomposition with an earliest-pattern-wins merge,
//    bit-identical results at any thread count and any word width.
//
// All use the combinational test model: primary inputs and storage outputs
// are controllable (pseudo primary inputs), primary outputs and storage D
// pins are observable (pseudo primary outputs) -- precisely the access that
// LSSD/Scan Path/RAS provide (Sec. IV).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "guard/guard.h"
#include "netlist/compiled.h"
#include "netlist/logic.h"
#include "netlist/netlist.h"
#include "obs/progress.h"
#include "sim/comb_sim.h"
#include "sim/eval_backend.h"
#include "sim/event_sim.h"

namespace dft {

// One test pattern: values for netlist.inputs() followed by
// netlist.storage(), in order.
using SourceVector = std::vector<Logic>;

std::size_t source_count(const Netlist& nl);

// Uniform random binary pattern.
SourceVector random_source_vector(const Netlist& nl, std::mt19937_64& rng);
// Replaces X/Z entries with random binary values (test-pattern "fill").
void random_fill(SourceVector& v, std::mt19937_64& rng);

// Throws std::invalid_argument when any pattern's width differs from
// source_count(nl) or (with require_binary) any entry is X/Z. Engines call
// this before touching any simulator state, so a malformed pattern in the
// middle of a block can never leave an engine half-mutated.
void validate_patterns(const Netlist& nl,
                       const std::vector<SourceVector>& patterns,
                       bool require_binary);

struct FaultSimResult {
  // Parallel to the fault list passed in: index of the first detecting
  // pattern, or -1 if undetected.
  std::vector<int> first_detected_by;
  int num_detected = 0;
  // Completed unless a budget interrupted the run; on interruption the
  // vector is still full-size and entries not yet simulated stay -1 (a
  // valid partial result).
  guard::RunStatus status = guard::RunStatus::Completed;
  double coverage() const {
    return first_detected_by.empty()
               ? 1.0
               : static_cast<double>(num_detected) /
                     static_cast<double>(first_detected_by.size());
  }
};

// Common interface over every fault-simulation engine. The contract all
// implementations share:
//  * `first_detected_by[i]` is the index of the first pattern detecting
//    `faults[i]` (-1 if none) -- identical for every engine and, for the
//    threaded engine, for every thread count;
//  * `drop_detected` is a performance hint only: a detected fault is not
//    simulated against later patterns. It never changes the result.
//  * `budget` (optional) is polled cooperatively after each unit of work
//    (a pattern block / fault / pattern, depending on the engine); on
//    exhaustion or cancellation the engine returns the partial result with
//    `status` set. nullptr or an unlimited budget leaves behavior -- and
//    results -- exactly as before.
class FaultSimEngine {
 public:
  virtual ~FaultSimEngine() = default;

  virtual FaultSimResult run(const std::vector<SourceVector>& patterns,
                             const std::vector<Fault>& faults,
                             bool drop_detected = true,
                             const guard::Budget* budget = nullptr) = 0;

  // Short stable identifier ("serial", "event", "deductive",
  // "threaded-event").
  virtual std::string_view name() const = 0;

  // Patterns per simulation block: the natural batch size for callers that
  // generate patterns block-at-a-time (random TPG). 64 for the classic
  // engines; the widened PPSFP lanes report 256/512.
  virtual int pattern_word_bits() const { return 64; }

  // Progress streaming (obs::ProgressSink). With a phase label set, run()
  // emits throttled progress events from its budget-poll sites under that
  // label; unset (the default), even long runs stay silent -- so
  // subordinate runs (ATPG's one-pattern cross-drop sims, retry-ladder
  // re-sims) never pollute the stream of the driver that owns run-level
  // progress. Emission cost when the global sink is off: one relaxed load
  // per poll site.
  void set_progress_phase(std::string phase) {
    progress_phase_ = std::move(phase);
  }
  const std::string& progress_phase() const { return progress_phase_; }

 protected:
  bool progress_on() const {
    return !progress_phase_.empty() && obs::ProgressSink::global().active();
  }
  // One throttled event: cumulative detections over the full fault list,
  // pattern applications consumed, and block-granular ETA inputs.
  void emit_progress(std::uint64_t patterns, int detected, std::size_t total,
                     std::uint64_t items_done, std::uint64_t items_total,
                     const guard::Budget* budget) const;

 private:
  std::string progress_phase_;
};

// Records the fault_sim.coverage.final_pct obs value (100 * detected /
// total; 100 for an empty fault list, matching FaultSimResult::coverage).
// Every engine calls it at the end of run(), so the report's gauge always
// matches the returned ratio; a driver that runs engines as sub-steps
// (ATPG) records its own final coverage last, so the report never carries
// a sub-run's number.
void record_final_coverage(const FaultSimResult& res);

// Records the true fault-coverage-vs-pattern curve of a finished run into
// obs Curve `name` (shown under "curves" in the v2 report): one point per
// 64-pattern bucket, x = index of the bucket's last pattern applied (capped
// by num_patterns), y = cumulative percent of faults first-detected at or
// before x. Derived post-hoc from first_detected_by, so it is exact under
// every engine, thread count, and pattern-word width (earliest-pattern-wins
// keeps first_detected_by width-invariant; the fixed 64-pattern bucket
// keeps curves comparable across lanes). Replaces any previous points under
// the same name.
void record_coverage_curve(std::string_view name,
                           const std::vector<int>& first_detected_by,
                           std::size_t num_patterns);

class SerialFaultSimulator : public FaultSimEngine {
 public:
  explicit SerialFaultSimulator(const Netlist& nl);
  explicit SerialFaultSimulator(Netlist&&) = delete;  // would dangle

  // True when `pattern` is a test for `f`: some primary output or captured
  // next state differs binarily between good and faulty machine.
  bool detects(const SourceVector& pattern, const Fault& f);

  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults,
                     bool drop_detected = true,
                     const guard::Budget* budget = nullptr) override;

  std::string_view name() const override { return "serial"; }

 private:
  void apply(CombSim& sim, const SourceVector& pattern);
  const Netlist* nl_;
  CombSim good_;
  CombSim bad_;  // a copy of good_: one compiled program for both
};

template <typename EB>
class BasicParallelFaultSimulator : public FaultSimEngine {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  explicit BasicParallelFaultSimulator(const Netlist& nl);
  // Machine over a prebuilt compiled snapshot -- the threaded engine
  // compiles once and shares the (immutable) form across workers.
  BasicParallelFaultSimulator(const Netlist& nl,
                              std::shared_ptr<const CompiledNetlist> compiled);
  explicit BasicParallelFaultSimulator(Netlist&&) = delete;  // would dangle
  BasicParallelFaultSimulator(Netlist&&,
                              std::shared_ptr<const CompiledNetlist>) = delete;

  // Patterns must be binary (use random_fill for X entries).
  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults,
                     bool drop_detected = true,
                     const guard::Budget* budget = nullptr) override;

  std::string_view name() const override { return "event"; }
  int pattern_word_bits() const override { return Traits::kBits; }

  // Overrides the observation points. The default is the full-scan view
  // (primary outputs + every storage D net); restricting this models
  // partial observability (no-scan boards, Scan/Set sampling, nails).
  void set_observation_points(const std::vector<GateId>& observed);
  void reset_observation_points();

  // --- Block-scoped entry points (the threaded engine's decomposition) -----
  //
  // run() above is a loop over pattern-word blocks; these expose one block
  // at a time so the threaded engine can parallelize across blocks (each
  // worker machine loads its own) or across faults within a block (one
  // machine loads, siblings adopt_block_from() the result). Precondition:
  // the pattern set has already passed validate_patterns(require_binary) --
  // the threaded engine validates once up front, before any machine is
  // touched.

  // Packs patterns[base, base + count) into the source words
  // (count <= Traits::kBits) and runs the good-machine pass; remembers the
  // block window for run_block_faults.
  void load_block(const std::vector<SourceVector>& patterns, std::size_t base,
                  std::size_t count);

  // Copies `other`'s loaded block -- good-machine words plus the block
  // window -- instead of re-simulating it. Both machines must share the
  // same compiled snapshot.
  void adopt_block_from(const BasicParallelFaultSimulator& other);

  // Simulates faults[begin, end) against the loaded block. A detection at
  // in-block bit b lowers shared_first[fault index] to base + b with a
  // CAS-min, so concurrent blocks merge earliest-pattern-wins. Merge keys
  // are global PATTERN indices at every word width, which is what keeps
  // results bit-identical across lanes. With drop_detected, a fault is
  // skipped only when its shared entry already holds a detection from a
  // STRICTLY earlier block -- a same-or-later entry could still be beaten
  // by a bit in this block, so skipping then would change the result.
  // Returns the number of faults actually simulated (skips excluded).
  // `new_detections` (optional) is incremented once per fault whose shared
  // entry left the INT32_MAX "undetected" sentinel under this call's CAS --
  // a live coverage numerator for the threaded engine's progress events.
  std::size_t run_block_faults(const std::vector<Fault>& faults,
                               std::size_t begin, std::size_t end,
                               bool drop_detected,
                               std::atomic<std::int32_t>* shared_first,
                               std::atomic<std::uint64_t>* new_detections =
                                   nullptr);

  // Flushes tallies accumulated by the block-scoped calls into dft::obs
  // (fault_sim.ppsfp.* / fault_sim.event.*). Called by the merging thread
  // after the pool barrier, never concurrently with the calls above.
  void flush_block_obs();

 private:
  Word detect_word(const Fault& f);
  void load_words(const std::vector<SourceVector>& patterns, std::size_t base,
                  std::size_t count);
  void flush_event_obs();

  const Netlist* nl_;
  std::vector<char> observed_;
  BasicEventSim<EB> ev_;

  // Per-run event-kernel tallies, flushed to dft::obs once per run() --
  // nothing per fault touches shared state (this code runs on worker
  // threads under the threaded engine).
  struct EventStats {
    std::uint64_t gates_evaluated = 0;
    // death_depth[d] = faults whose difference frontier died d levels past
    // the origin (last bucket collects >= kDeathDepthBuckets-1).
    static constexpr int kDeathDepthBuckets = 16;
    std::array<std::uint64_t, kDeathDepthBuckets> death_depth{};
  };
  EventStats event_stats_;

  // Block-scoped state: the window load_block/adopt_block_from installed...
  std::size_t block_base_ = 0;
  Word block_valid_ = Traits::zeros();
  // ...and the tallies the block-scoped calls accumulate until
  // flush_block_obs() (run() keeps its own local tallies, as before).
  std::uint64_t tally_blocks_ = 0;
  std::uint64_t tally_faults_ = 0;
  std::uint64_t tally_dropped_ = 0;
  // events_scheduled() watermark at the last obs flush, so run() and the
  // block-scoped API flush deltas against the same running total.
  std::uint64_t events_flushed_ = 0;
};

// The classic 64-pattern PPSFP machine every existing consumer names.
using ParallelFaultSimulator =
    BasicParallelFaultSimulator<ScalarEval<std::uint64_t>>;

// The 64-bit instantiation lives in fault_sim.cpp; the wide lanes are
// instantiated in fault/simd_lanes.cpp (and by tests that name a backend).
extern template class BasicParallelFaultSimulator<ScalarEval<std::uint64_t>>;

}  // namespace dft

#include "fault/fault_sim_impl.h"  // IWYU pragma: keep
