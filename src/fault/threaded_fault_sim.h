// Multi-threaded fault simulation over per-worker PPSFP machines.
//
// The survey's Eq. 1 (T = K*N^3) makes fault simulation the inner-loop cost
// of everything downstream -- ATPG dropping, random-TPG grading, BIST
// coverage measurement. The parallel unit here is the pattern-word block
// (64 patterns classic, 256/512 on the widened SIMD lanes), not the fault
// list: partitioning faults across workers re-executes the fault-free
// good-machine pass -- the dominant cost the selective-trace propagation
// exists to amortize -- once per worker. Instead each worker machine loads
// a whole pattern block (one good pass) and simulates EVERY fault against
// it, and workers steal blocks from a shared counter so the last block
// never straggles. When there are too few blocks to go around, the roles
// flip: blocks run in sequence, one machine evaluates the good pass, its
// siblings adopt the snapshot, and the workers split the fault list in
// chunks (fault-chunk decomposition). A wider word means proportionally
// fewer blocks per pattern set, so the block-vs-chunk Auto decision adapts
// with the lane.
//
// Determinism guarantee: the merged FaultSimResult is bit-identical to
// BasicParallelFaultSimulator::run on the same inputs for ANY thread count
// and ANY block schedule -- and across every word width, because the merge
// keys stay global PATTERN indices. Detections meet in a shared per-fault
// array merged earliest-pattern-wins (CAS-min on the global pattern index),
// and cross-block fault dropping only skips a fault when a STRICTLY earlier
// block already detected it -- so the first-detection minimum is always
// preserved. The differential tests assert this at 1, 2, and 8 threads
// under both decompositions at every compiled lane width.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "netlist/netlist.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"

namespace dft {

// How the threaded engine splits a run across the pool. Auto picks per run
// from the workload shape (see run()); the forced values exist for tests
// and A/B measurement and are honored even where Auto would not pick them.
enum class MtDecomposition {
  Auto,
  Sequential,    // inline on one machine: no dispatch, no merge
  PatternBlock,  // workers steal pattern-word blocks, all faults per block
  FaultChunk,    // blocks in sequence, workers split the fault list
};

std::string_view to_string(MtDecomposition d);

template <typename EB>
class BasicThreadedFaultSimulator : public FaultSimEngine {
 public:
  using Word = typename EB::Word;
  using Traits = WordTraits<Word>;

  // threads == 0 means one worker per hardware thread. The netlist is
  // compiled once and the (immutable) snapshot is shared by every worker
  // machine.
  explicit BasicThreadedFaultSimulator(const Netlist& nl, int threads = 0);
  explicit BasicThreadedFaultSimulator(Netlist&&, int = 0) = delete;  // dangle

  // Budgets are polled cooperatively: between stolen blocks in
  // pattern-block mode, between sequential blocks in fault-chunk mode. The
  // partial result is always sound -- every non-(-1) entry is a pattern
  // that really detects its fault -- but in pattern-block mode blocks
  // complete out of order, so a partial entry may name a detecting pattern
  // that is not the earliest one (a completed run is always exact).
  // Fault-chunk and sequential partials keep the clean prefix semantics of
  // the single-machine engine.
  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults,
                     bool drop_detected = true,
                     const guard::Budget* budget = nullptr) override;

  std::string_view name() const override { return "threaded-event"; }
  int pattern_word_bits() const override { return Traits::kBits; }

  int threads() const { return pool_.size(); }

  // Workloads below this many (patterns x faults) products run inline on
  // one machine: dispatch and merge overhead beats any parallel win at this
  // size, so multi-threading is never a pessimization. ~sn74181 scale.
  // Pattern-granular on purpose -- the crossover is about total work, not
  // how many words it packs into.
  static constexpr std::uint64_t kSequentialCutoff = 1ull << 18;

  // Forces a decomposition (default Auto). Tests use this to drive every
  // code path regardless of the cutoff and the machine's core count.
  void set_decomposition(MtDecomposition d) { mode_ = d; }
  MtDecomposition decomposition() const { return mode_; }
  // What the last run() actually executed -- the Auto decision or the
  // forced mode. Also echoed in the obs run report
  // (fault_sim.threaded.decomposition.*).
  MtDecomposition last_decomposition() const { return last_; }

  // Same observability override as the single-machine engine, forwarded to
  // every worker machine.
  void set_observation_points(const std::vector<GateId>& observed);
  void reset_observation_points();

 private:
  // `detected` accumulates sentinel-leaving CAS wins across every worker
  // (see run_block_faults) -- the live coverage numerator for the progress
  // events emitted at block boundaries.
  void run_pattern_block(const std::vector<SourceVector>& patterns,
                         const std::vector<Fault>& faults, bool drop_detected,
                         const guard::Budget* budget,
                         std::atomic<std::int32_t>* shared, int workers,
                         std::vector<guard::RunStatus>& status,
                         std::atomic<std::uint64_t>& detected);
  void run_fault_chunk(const std::vector<SourceVector>& patterns,
                       const std::vector<Fault>& faults, bool drop_detected,
                       const guard::Budget* budget,
                       std::atomic<std::int32_t>* shared, int workers,
                       std::vector<guard::RunStatus>& status,
                       std::atomic<std::uint64_t>& detected);

  const Netlist* nl_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<BasicParallelFaultSimulator<EB>>> machines_;
  MtDecomposition mode_ = MtDecomposition::Auto;
  MtDecomposition last_ = MtDecomposition::Sequential;
};

// The classic 64-pattern threaded engine every existing consumer names.
using ThreadedFaultSimulator =
    BasicThreadedFaultSimulator<ScalarEval<std::uint64_t>>;

// The 64-bit instantiation lives in threaded_fault_sim.cpp; wide lanes in
// fault/simd_lanes.cpp.
extern template class BasicThreadedFaultSimulator<ScalarEval<std::uint64_t>>;

// Engine factory for the hot callers: threads == 1 yields a single PPSFP
// machine (no pool, no synchronization), anything larger the threaded
// engine. Results are identical either way. threads < 1 throws
// std::invalid_argument -- callers resolve "one per core" themselves via
// resolve_thread_count(0) rather than passing 0 through. The engine's
// pattern-word lane comes from simd::resolve_lane() (the DFT_SIMD policy);
// the four-argument overload pins it explicitly.
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      int threads = 1);
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(Netlist&&,
                                                      int = 1) = delete;

// The propagation kernel of a PPSFP machine. Only the event-driven
// selective trace remains; the enum survives as the lane-pinning factory
// overload's parameter so existing callers keep compiling.
enum class FaultSimKernel { Event };

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      int threads,
                                                      FaultSimKernel kernel,
                                                      simd::Lane lane);
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(Netlist&&, int,
                                                      FaultSimKernel,
                                                      simd::Lane) = delete;

// Name-based factory behind dft_tool's --engine flag and the options
// structs: "event" (the default; also ""), "serial", "deductive". "event"
// honors threads (> 1 wraps it in the threaded engine) and the SIMD lane;
// "serial" and "deductive" are inherently single-machine, 64-bit engines
// and throw std::invalid_argument when threads != 1, like an unknown engine
// name or a thread count < 1 does.
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(
    const Netlist& nl, std::string_view engine, int threads = 1);
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(Netlist&&,
                                                      std::string_view,
                                                      int = 1) = delete;
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      std::string_view engine,
                                                      int threads,
                                                      simd::Lane lane);
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(Netlist&&,
                                                      std::string_view, int,
                                                      simd::Lane) = delete;

}  // namespace dft

#include "fault/threaded_fault_sim_impl.h"  // IWYU pragma: keep
