#include "sim/event_sim.h"

namespace dft {

// The classic 64-pattern machines, compiled once here so the header's
// extern templates keep every consumer TU from re-instantiating them.
template class BasicGoodMachine<ScalarEval<std::uint64_t>>;
template class BasicEventSim<ScalarEval<std::uint64_t>>;

}  // namespace dft
