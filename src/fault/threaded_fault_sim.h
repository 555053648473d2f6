// Fault-simulation engine factories. They pick the engine by name, the
// pattern-word lane by the DFT_SIMD policy (or an explicit simd::Lane), and
// pass the thread count through to the one PPSFP engine
// (PpsfpFaultSimulator, fault/fault_sim.h).
//
// Under DFT_SIMD=auto (the shipped default) the lane is a per-block
// choice. With fault dropping most faults fall to the first few patterns,
// where a wide word would carry each of them through up to 8x the patterns
// the 64-bit word needs, while the hard tail of a long run spreads its
// per-fault tracing over the wider word. So a dropping run grades block 0,
// its first 64 patterns, at 64 bits and every later block at the resolved
// (widest) lane; a run of at most 64 patterns is one 64-bit block, and a
// longer run without dropping uses the widest lane throughout. It is one
// run over one region table and one pool, so a budget partial is a
// pattern prefix and progress emits one event per block;
// fault_sim.auto.tail_faults sums the faults still undetected at the
// switch. An explicit DFT_SIMD value, or the lane-pinning overloads, keep
// one lane for the whole run.
#pragma once

#include <memory>
#include <string_view>

#include "fault/fault_sim.h"
#include "netlist/netlist.h"
#include "sim/simd.h"

namespace dft {

// Engine factory for the hot callers: the PPSFP engine on `threads`
// workers (no pool at one). Results are identical at every thread count.
// threads < 1 throws std::invalid_argument -- callers resolve "one per
// core" themselves via resolve_thread_count(0) rather than passing 0
// through. The engine's pattern-word lane comes from simd::resolve_lane()
// (the DFT_SIMD policy; under auto, a 64-bit block 0 and that lane after,
// as above); the four-argument overload pins one lane explicitly.
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
