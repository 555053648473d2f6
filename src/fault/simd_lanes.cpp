// Wide-lane engine instantiations and the lane-aware factory.
//
// This is the only TU in the library that compiles the 256/512-bit
// instantiations of the PPSFP engine stack (simulators and the threaded
// engine) -- everything else sees only the extern-template'd
// 64-bit machines, so the wide templates cost nothing where they are not
// used. The factory maps a simd::Lane onto a backend type; unsupported ISA
// lanes degrade to the same-width scalar backend, mirroring
// simd::resolve_lane's policy for forced values, so a caller can pass any
// Lane on any host and always get a working, bit-identical engine.
#include <stdexcept>
#include <string>

#include "fault/threaded_fault_sim.h"

namespace dft {

template class BasicParallelFaultSimulator<ScalarEval<PatternWord<4>>>;
template class BasicThreadedFaultSimulator<ScalarEval<PatternWord<4>>>;
template class BasicParallelFaultSimulator<ScalarEval<PatternWord<8>>>;
template class BasicThreadedFaultSimulator<ScalarEval<PatternWord<8>>>;
#if DFT_SIMD_X86
template class BasicParallelFaultSimulator<Avx2Eval>;
template class BasicThreadedFaultSimulator<Avx2Eval>;
template class BasicParallelFaultSimulator<Avx512Eval>;
template class BasicThreadedFaultSimulator<Avx512Eval>;
#endif

namespace {

template <typename EB>
std::unique_ptr<FaultSimEngine> make_engine(const Netlist& nl, int threads) {
  if (threads == 1) {
    return std::make_unique<BasicParallelFaultSimulator<EB>>(nl);
  }
  return std::make_unique<BasicThreadedFaultSimulator<EB>>(nl, threads);
}

}  // namespace

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      int threads,
                                                      FaultSimKernel,
                                                      simd::Lane lane) {
  if (threads < 1) {
    throw std::invalid_argument(
        "fault-sim threads must be >= 1 (got " + std::to_string(threads) +
        "); resolve \"one per core\" with resolve_thread_count(0) before "
        "calling the factory");
  }
  if (!simd::host_supports(lane)) {
    lane = lane == simd::Lane::Avx512 ? simd::Lane::Scalar8
                                      : simd::Lane::Scalar4;
  }
  switch (lane) {
    case simd::Lane::Off:
      return make_engine<ScalarEval<std::uint64_t>>(nl, threads);
    case simd::Lane::Scalar4:
      return make_engine<ScalarEval<PatternWord<4>>>(nl, threads);
    case simd::Lane::Scalar8:
      return make_engine<ScalarEval<PatternWord<8>>>(nl, threads);
#if DFT_SIMD_X86
    case simd::Lane::Avx2:
      return make_engine<Avx2Eval>(nl, threads);
    case simd::Lane::Avx512:
      return make_engine<Avx512Eval>(nl, threads);
#else
    case simd::Lane::Avx2:
    case simd::Lane::Avx512:
      break;  // unreachable: host_supports() degraded these above
#endif
  }
  return make_engine<ScalarEval<std::uint64_t>>(nl, threads);
}

}  // namespace dft
