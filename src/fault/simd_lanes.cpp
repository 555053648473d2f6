// Wide-lane machine instantiations and the lane-aware factories.
//
// This is the only TU in the library that compiles the 256/512-bit
// instantiations of the PPSFP machines -- everything else sees only the
// extern-template'd 64-bit machines, so the wide templates cost nothing
// where they are not used. The factories map a simd::Lane onto a backend
// type; unsupported ISA lanes degrade to the same-width scalar backend,
// mirroring simd::resolve_lane's policy for forced values, so a caller can
// pass any Lane on any host and always get a working, bit-identical engine.
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/threaded_fault_sim.h"

namespace dft {

template class ppsfp::BasicMachineSet<ScalarEval<PatternWord<4>>>;
template class ppsfp::BasicMachineSet<ScalarEval<PatternWord<8>>>;
#if DFT_SIMD_X86
template class ppsfp::BasicMachineSet<Avx2Eval>;
template class ppsfp::BasicMachineSet<Avx512Eval>;
#endif

namespace {

// make.template operator()<EB>() for the backend of `lane`.
template <typename Make>
auto for_lane(simd::Lane lane, Make make) {
  if (!simd::host_supports(lane)) {
    lane = lane == simd::Lane::Avx512 ? simd::Lane::Scalar8
                                      : simd::Lane::Scalar4;
  }
  switch (lane) {
    case simd::Lane::Scalar4:
      return make.template operator()<ScalarEval<PatternWord<4>>>();
    case simd::Lane::Scalar8:
      return make.template operator()<ScalarEval<PatternWord<8>>>();
#if DFT_SIMD_X86
    case simd::Lane::Avx2:
      return make.template operator()<Avx2Eval>();
    case simd::Lane::Avx512:
      return make.template operator()<Avx512Eval>();
#endif
    default:  // Off, or an ISA lane host_supports() degraded above
      return make.template operator()<ScalarEval<std::uint64_t>>();
  }
}

}  // namespace

std::unique_ptr<ppsfp::MachineSet> ppsfp::make_machine_set(
    simd::Lane lane, std::shared_ptr<const CompiledNetlist> cn, int workers) {
  return for_lane(lane, [&]<typename EB>() -> std::unique_ptr<MachineSet> {
    return std::make_unique<BasicMachineSet<EB>>(std::move(cn), workers);
  });
}

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
  return for_lane(lane, [&]<typename EB>() -> std::unique_ptr<FaultSimEngine> {
    return std::make_unique<BasicParallelFaultSimulator<EB>>(nl, threads);
  });
}

}  // namespace dft
