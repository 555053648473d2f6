// Fault-simulation engine factories.
//
// The survey's Eq. 1 (T = K*N^3) makes fault simulation the inner-loop cost
// of everything downstream -- ATPG dropping, random-TPG grading, BIST
// coverage measurement -- and Sec. I-B prices it at about "3001 good
// machine simulations". The good machine is shared work; propagating
// fault effects is the parallel work. One PPSFP engine,
// BasicParallelFaultSimulator<EB>(nl, threads) in fault/fault_sim.h, does
// both at every thread count with one schedule: blocks in order, the good
// machine evaluated once per block, then the workers stealing fanout-free
// stem regions, each region traced back from its stem and its stem
// propagated once for all of its faults. Its result and its work counts do
// not depend on the thread count.
//
// The factories below pick the engine by name, the pattern-word lane by
// the DFT_SIMD policy (or an explicit simd::Lane), and pass the thread
// count through.
//
// Under DFT_SIMD=auto (the shipped default) the policy-following
// factories return an engine that uses two lanes. The toolkit grades with
// fault dropping, so most faults fall to the first few patterns, and a
// wide word would carry every one of them through up to 8x the patterns
// the 64-bit word needs; yet the hard tail of a long run spreads its
// per-fault tracing over the wider word. So a dropping run grades its
// first 64 patterns on the 64-bit engine and hands only the faults still
// undetected, with the remaining patterns, to the resolved (widest) lane,
// whose engine is built on first use from the head's CompiledNetlist (the
// netlist may be gone by then); the tail's pattern indices are
// shifted back by 64 on merge. Runs of at most 64 patterns never leave
// the 64-bit engine, and longer runs without dropping keep the widest
// lane. The result is the one-lane result; a budget partial is a pattern
// prefix (the head charges 64 patterns, the tail the rest); progress
// counts the whole run over the whole fault list;
// fault_sim.coverage.final_pct is recorded last, from the merged result;
// and fault_sim.auto.tail_faults sums the faults handed to the tail. An
// explicit DFT_SIMD value, or the lane-pinning overloads, keep one lane
// for the whole run.
#pragma once

#include <memory>
#include <string_view>

#include "fault/fault_sim.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "sim/simd.h"

namespace dft {

// Engine factory for the hot callers: the PPSFP engine on `threads`
// workers (no pool at one). Results are identical at every thread count.
// threads < 1 throws std::invalid_argument -- callers resolve "one per
// core" themselves via resolve_thread_count(0) rather than passing 0
// through. The engine's pattern-word lane comes from simd::resolve_lane()
// (the DFT_SIMD policy; under auto, the 64-bit head plus that lane as
// above); the four-argument overload pins one lane explicitly.
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
// The same engine on a snapshot the caller may share (the auto engine's two
// lanes share one).
std::unique_ptr<FaultSimEngine> make_fault_sim_engine(
    std::shared_ptr<const CompiledNetlist> cn, int threads, simd::Lane lane);

// Name-based factory behind dft_tool's --engine flag and the options
// structs: "event" (the default; also ""), "serial", "deductive". "event"
// honors threads and the SIMD lane (the DFT_SIMD policy, auto included,
// in the three-argument overload); "serial" and "deductive" are
// inherently single-machine, 64-bit engines and throw
// std::invalid_argument when threads != 1, like an unknown engine name or a
// thread count < 1 does. check_fault_sim_engine throws the factory's
// unknown-name error without building anything.
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
