// Scan-chain test application on the real sequential machine.
//
// This closes the loop the survey describes: combinational ATPG produces
// (PI, state) patterns; the scan chain serializes the state part in, the
// system clock captures, and the chain shifts the response out (Figs. 9-12).
// "An apparent disadvantage is the serialization of the test" -- the stats
// returned here quantify exactly that cost (clock cycles and shifted bits,
// i.e. test data volume).
#pragma once

#include <vector>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "netlist/netlist.h"
#include "scan/scan_insert.h"
#include "sim/seq_sim.h"

namespace dft {

struct ScanTestStats {
  int patterns = 0;
  long long clock_cycles = 0;
  long long shifted_bits = 0;  // serial test data volume (in + out)
};

class ScanTester {
 public:
  ScanTester(const Netlist& nl, std::vector<ScanChain> chains);

  // Shifts a 00110011... flush sequence through every chain and checks it
  // emerges intact: the standard chain-integrity test, which also covers
  // the scan-in pin faults excluded from the combinational fault universe.
  bool flush_test(SeqSim& sim);

  struct Application {
    std::vector<Logic> po_values;  // observed before capture
    std::vector<Logic> unloaded;   // captured states, in storage() order
  };

  // Full protocol for one pattern: load state via chains, drive PIs,
  // observe POs, capture, unload.
  Application apply(SeqSim& sim, const SourceVector& pattern);

  // Applies the whole test set to a good and a faulty machine and compares
  // every observation. The scan hardware itself is simulated, so chain
  // corruption by the fault is modeled faithfully.
  bool detects(const Fault& f, const std::vector<SourceVector>& tests);

  const ScanTestStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void load_states(SeqSim& sim, const SourceVector& pattern);
  const Netlist* nl_;
  std::vector<ScanChain> chains_;
  std::vector<int> storage_slot_;  // GateId -> index into pattern state part
  ScanTestStats stats_;
  // detects()'s good and faulty machines, compiled once per tester.
  SeqSim good_;
  SeqSim bad_;
};

}  // namespace dft
