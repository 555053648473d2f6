// Fault simulation (Sec. I-B).
//
// Engine hierarchy (all implement FaultSimEngine; see also deductive.h and
// threaded_fault_sim.h for the factories):
//  * SerialFaultSimulator -- the textbook reference: one good-machine and one
//    faulty-machine simulation per (pattern, fault) pair. "Fault simulation,
//    with respect to run time, is similar to doing 3001 good machine
//    simulations."
//  * PpsfpFaultSimulator -- parallel-pattern single-fault propagation
//    (PPSFP), the one fast engine at every thread count and lane: one
//    pattern word (64 bits classic, 256/512 on the widened SIMD lanes --
//    sim/eval_backend.h) per block with fault dropping. Faults are
//    simulated by stem region (Lee and Ha, ITC 1991): a gate with one
//    combinational fanout that is not observed belongs to the fanout-free
//    region of that fanout; every other gate is a stem heading its own
//    region. Per block the good machine (sim/parallel_sim.h) is evaluated
//    once and shared, then the workers steal regions. A region is traced
//    backwards from its stem (critical path tracing, Abramovici, Menon and
//    Miller, IEEE D&T 1984), which gives each gate the patterns in which
//    flipping it flips the stem, and the stem is propagated once by the
//    compiled-netlist event-driven selective trace (sim/event_sim.h) in the
//    patterns where some live fault of the region reaches it. A fault's
//    detect word is its activation AND its sensitization to the stem AND
//    the stem's observability -- exact per bit, since each bit is one
//    single-fault machine and a region is a tree. Results and work counts are the same
//    at every thread count and word width. The engine reads only its
//    CompiledNetlist, so it outlives the netlist it was compiled from.
//    BasicParallelFaultSimulator<EB>(nl, threads) pins backend EB for every
//    block, and `ParallelFaultSimulator` names the classic 64-bit one.
//  * DeductiveFaultSimulator (deductive.h) -- Armstrong-style fault-list
//    propagation, the independent cross-check.
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
#include <span>
#include <string_view>
#include <utility>
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
#include "sim/parallel_sim.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"

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
// `sources` (source_count(nl), or CompiledNetlist::source_count()) or (with
// require_binary) any entry is X/Z. Engines call this before touching any
// simulator state, so a malformed pattern in the middle of a block can
// never leave an engine half-mutated.
void validate_patterns(std::size_t sources,
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
//    PPSFP engine, for every thread count;
//  * `drop_detected` is a performance hint only: a detected fault is not
//    simulated against later patterns. It never changes the result.
//  * `budget` (optional) is polled cooperatively after each unit of work
//    (a pattern block / fault / pattern, depending on the engine); on
//    exhaustion or cancellation the engine returns the partial result with
//    `status` set. The PPSFP engine stops at a block boundary, so a
//    partial entry equals the full run's entry when that lies inside the
//    charged pattern prefix and is -1 otherwise.
//    nullptr or an unlimited budget leaves behavior -- and results --
//    exactly as before.
class FaultSimEngine {
 public:
  virtual ~FaultSimEngine() = default;

  virtual FaultSimResult run(const std::vector<SourceVector>& patterns,
                             const std::vector<Fault>& faults,
                             bool drop_detected = true,
                             const guard::Budget* budget = nullptr) = 0;

  // Short stable identifier ("serial", "event", "deductive"); the PPSFP
  // engine is "event" at every thread count.
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
// every engine, thread count, and pattern-word width (first_detected_by
// holds global pattern indices at every width; the fixed 64-pattern bucket
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

namespace ppsfp {

// The fanout-free regions of the netlist under the current observation
// points. A gate is a member of its fanout's region when it has exactly
// one fanout entry, that fanout is combinational and the gate is not
// observed; every other gate is a stem and heads a region of its own.
// Each region is a tree rooted at its stem.
struct Regions {
  std::vector<std::uint32_t> region_of;  // per gate
  // Per gate: its index within its region (the stem is 0), which
  // addresses the per-worker sensitization words.
  std::vector<std::uint32_t> local_of;
  // Per member: the gate it feeds and the pin; kNoGate for a stem.
  std::vector<GateId> sink_of;
  std::vector<std::int32_t> pin_of;
  std::vector<GateId> stem;  // per region
  std::uint32_t widest = 0;  // gates in the largest region
};

// What the workers of one block read. The run's faults are grouped by
// region: order[fault_begin[r], fault_begin[r+1]), ascending within a
// region, and the workers steal the regions of `busy`.
struct Block {
  const Regions& regions;
  const std::vector<char>& observed;
  const std::vector<Fault>& faults;
  const std::vector<std::uint32_t>& order;
  const std::vector<std::uint32_t>& fault_begin;
  bool drop_detected;
  int* first;  // first_detected_by, written by one worker per region
  std::span<const std::uint32_t> busy;
  std::size_t base = 0;   // the block grades patterns[base, base + count)
  std::size_t count = 0;
};

// One lane's machines: the good machine at the lane's word width and one
// faulty machine per worker. The engine calls it once per block, and once
// per worker within a block, never per region.
class MachineSet {
 public:
  virtual ~MachineSet() = default;
  virtual int bits() const = 0;
  // Zeroes the tallies and sizes the buffers, so workers allocate nothing.
  virtual void begin_run(const Regions& regions, std::size_t most_faults) = 0;
  // Packs patterns[base, base + count) into the good machine's source
  // words and evaluates it.
  virtual void load_block(const std::vector<SourceVector>& patterns,
                          std::size_t base, std::size_t count) = 0;
  // Worker w copies the good machine into its faulty machine and steals
  // block.busy regions through `next`; returns the detections it wrote.
  virtual std::size_t steal(int w, const Block& block,
                            std::atomic<std::size_t>& next) = 0;
  // Flushes the good machine's sim.parallel.* tally and, when obs is on,
  // adds the workers' work counts since begin_run.
  virtual void end_run() = 0;
};

template <typename EB>
class BasicMachineSet;  // fault/fault_sim_impl.h

// The machines of `lane` (an unsupported ISA degrades to the same-width
// scalar lane); defined with the wide instantiations in simd_lanes.cpp.
std::unique_ptr<MachineSet> make_machine_set(
    simd::Lane lane, std::shared_ptr<const CompiledNetlist> cn, int workers);

}  // namespace ppsfp

// The PPSFP engine. It holds what every lane shares: the compiled
// snapshot, the observation points, the stem-region table and the thread
// pool. `threads` workers (0 = one per hardware thread); worker 0 is the
// calling thread, so the pool holds threads() - 1 OS threads and none at
// one thread. The lane's machines are the only per-lane state.
class PpsfpFaultSimulator : public FaultSimEngine {
 public:
  // The DFT_SIMD=auto engine (fault/threaded_fault_sim.h): block 0 of a
  // dropping run at 64 bits, every other block at `lane`.
  PpsfpFaultSimulator(std::shared_ptr<const CompiledNetlist> cn, int threads,
                      simd::Lane lane);

  // Patterns must be binary (use random_fill for X entries). A fault whose
  // gate or pin is not in the netlist throws std::out_of_range before any
  // state changes.
  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults,
                     bool drop_detected = true,
                     const guard::Budget* budget = nullptr) override;

  std::string_view name() const override { return "event"; }
  // Every block's width but a 64-bit first block of the auto engine.
  int pattern_word_bits() const override {
    return lane_machines_ ? lane_machines_->bits() : simd::lane_bits(lane_);
  }

  int threads() const { return threads_; }

  // Overrides the observation points and rebuilds the stem regions they
  // bound. The default is the full-scan view (primary outputs + every
  // storage D net); restricting this models partial observability (no-scan
  // boards, Scan/Set sampling, nails). Throws std::out_of_range, leaving
  // the engine unchanged, when any id is not a gate of the netlist.
  void set_observation_points(const std::vector<GateId>& observed);
  void reset_observation_points();

 protected:
  // One lane, `machines`, grades every block (null: the auto engine).
  PpsfpFaultSimulator(std::shared_ptr<const CompiledNetlist> cn, int threads,
                      std::unique_ptr<ppsfp::MachineSet> machines);

 private:
  std::shared_ptr<const CompiledNetlist> cn_;
  std::vector<char> observed_;
  ppsfp::Regions regions_;
  int threads_ = 1;
  // Workers a run may start: threads(), capped at the host's hardware
  // threads -- a pool wider than the hardware only adds time-slicing and
  // cache churn between per-worker machine states, never throughput.
  int max_workers_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // threads() - 1 workers; null at 1
  // The auto engine's 64-bit machines for block 0; null on a pinned lane.
  std::unique_ptr<ppsfp::MachineSet> head_;
  // The machines of every other block: built with the engine on a pinned
  // lane, on first use (as lane_) under auto.
  std::unique_ptr<ppsfp::MachineSet> lane_machines_;
  simd::Lane lane_ = simd::Lane::Off;
};

// The engine pinned to backend EB for every block (64 bits classic,
// 256/512 on the widened SIMD lanes -- sim/eval_backend.h).
template <typename EB>
class BasicParallelFaultSimulator : public PpsfpFaultSimulator {
 public:
  using Traits = WordTraits<typename EB::Word>;

  explicit BasicParallelFaultSimulator(const Netlist& nl, int threads = 1)
      : BasicParallelFaultSimulator(
            std::make_shared<const CompiledNetlist>(nl), threads) {}
  explicit BasicParallelFaultSimulator(
      std::shared_ptr<const CompiledNetlist> cn, int threads = 1)
      : PpsfpFaultSimulator(
            cn, threads,
            std::make_unique<ppsfp::BasicMachineSet<EB>>(
                cn, resolve_thread_count(threads))) {}
};

// The classic 64-pattern PPSFP engine every existing consumer names.
using ParallelFaultSimulator =
    BasicParallelFaultSimulator<ScalarEval<std::uint64_t>>;

}  // namespace dft

#include "fault/fault_sim_impl.h"  // IWYU pragma: keep
