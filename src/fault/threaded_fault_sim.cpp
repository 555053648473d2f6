#include "fault/threaded_fault_sim.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "fault/deductive.h"

namespace dft {

std::unique_ptr<FaultSimEngine> make_fault_sim_engine(const Netlist& nl,
                                                      int threads) {
  const simd::Lane lane = simd::resolve_lane();
  if (threads < 1 || !simd::resolves_auto() || simd::lane_bits(lane) == 64) {
    return make_fault_sim_engine(nl, threads, FaultSimKernel::Event, lane);
  }
  return std::make_unique<PpsfpFaultSimulator>(
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
