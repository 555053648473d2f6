#include "sim/event_sim.h"

namespace dft {

// The classic 64-pattern machine, compiled once here so the header's
// extern template keeps every consumer TU from re-instantiating it.
template class BasicEventSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
