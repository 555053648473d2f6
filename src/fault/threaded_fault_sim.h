// Multi-threaded fault simulation over per-worker PPSFP machines.
//
// The survey's Eq. 1 (T = K*N^3) makes fault simulation the inner-loop cost
// of everything downstream -- ATPG dropping, random-TPG grading, BIST
// coverage measurement -- and Sec. I-B prices it at about "3001 good
// machine simulations". The good machine is shared work; propagating each
// fault's difference frontier is the parallel work. The engine has one
// schedule:
//
//  * Pattern-word blocks (64 patterns classic, 256/512 on the widened SIMD
//    lanes) run in order.
//  * For each block every worker (the calling thread is worker 0) loads the
//    block's good machine itself, in parallel, then steals fixed 64-fault
//    chunks of the fault list from a shared counter until the list is
//    done. Small chunks keep every worker busy even though propagation cost
//    is very uneven along the fault order.
//  * pool_.wait() is the barrier between blocks; after it the driving
//    thread emits progress, charges the budget and polls it.
//
// Determinism guarantee: the result is bit-identical to
// BasicParallelFaultSimulator::run on the same inputs for any thread count
// and across every word width. Chunks are disjoint and blocks are ordered,
// so each first_detected_by entry has exactly one writer per block and the
// first block that detects a fault is the earliest; fault dropping skips a
// fault whose entry an earlier block already set. The work done -- faults
// simulated, gates evaluated, events scheduled -- is the single machine's
// too, whatever the thread count. The differential tests assert this at
// 1, 2, 4 and 8 threads at every compiled lane width.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "netlist/netlist.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"

namespace dft {

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

  // Budgets are polled at block boundaries, after the block's detections
  // are in: a partial result covers a clean pattern prefix, exactly like
  // the single-machine engine's.
  FaultSimResult run(const std::vector<SourceVector>& patterns,
                     const std::vector<Fault>& faults,
                     bool drop_detected = true,
                     const guard::Budget* budget = nullptr) override;

  std::string_view name() const override { return "threaded-event"; }
  int pattern_word_bits() const override { return Traits::kBits; }

  int threads() const { return pool_.size(); }

  // Same observability override as the single-machine engine, forwarded to
  // every worker machine.
  void set_observation_points(const std::vector<GateId>& observed);
  void reset_observation_points();

 private:
  // Faults per stolen chunk: small enough that the slow chunks of a block
  // spread over every worker, large enough that the shared counter stays
  // cold.
  static constexpr std::size_t kChunk = 64;

  const Netlist* nl_;
  // One machine per requested thread; worker 0 runs on the calling thread,
  // so at most threads() - 1 pool threads take jobs.
  ThreadPool pool_;
  std::vector<std::unique_ptr<BasicParallelFaultSimulator<EB>>> machines_;
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
// name or a thread count < 1 does. check_fault_sim_engine throws the
// factory's unknown-name error without building anything.
void check_fault_sim_engine(std::string_view engine);
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
