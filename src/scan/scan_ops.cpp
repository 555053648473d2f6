#include "scan/scan_ops.h"

#include <algorithm>
#include <stdexcept>

namespace dft {

ScanTester::ScanTester(const Netlist& nl, std::vector<ScanChain> chains)
    : nl_(&nl),
      chains_(std::move(chains)),
      storage_slot_(nl.size(), -1),
      good_(nl),
      bad_(good_) {
  const auto& ffs = nl.storage();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    storage_slot_[ffs[i]] = static_cast<int>(nl.inputs().size() + i);
  }
  for (const auto& c : chains_) {
    if (c.scan_in == kNoGate || c.elements.empty()) {
      throw std::invalid_argument("malformed scan chain");
    }
  }
}

bool ScanTester::flush_test(SeqSim& sim) {
  // Shift 0,0,1,1,0,0,1,1,... through each chain, one chain at a time, and
  // verify the sequence appears at the scan-out after `len` shifts.
  for (const auto& c : chains_) {
    const int len = static_cast<int>(c.elements.size());
    const int total = len + 8;
    std::vector<Logic> sent;
    std::vector<Logic> seen;
    for (int t = 0; t < total; ++t) {
      const Logic bit = to_logic(((t / 2) % 2) != 0);
      sent.push_back(bit);
      sim.set_input(c.scan_in, bit);
      sim.evaluate();
      if (c.scan_out != kNoGate) seen.push_back(sim.value(c.scan_out));
      sim.clock(ClockMode::Shift);
      ++stats_.clock_cycles;
      ++stats_.shifted_bits;
    }
    if (c.scan_out == kNoGate) continue;
    // After the pipeline fills, seen[t] == sent[t - len].
    for (int t = len; t < total; ++t) {
      if (seen[static_cast<std::size_t>(t)] !=
          sent[static_cast<std::size_t>(t - len)]) {
        return false;
      }
    }
  }
  return true;
}

void ScanTester::load_states(SeqSim& sim, const SourceVector& pattern) {
  // Shift each chain full; last element's target value goes in first.
  const std::size_t max_len =
      std::max_element(chains_.begin(), chains_.end(),
                       [](const ScanChain& a, const ScanChain& b) {
                         return a.elements.size() < b.elements.size();
                       })
          ->elements.size();
  for (std::size_t step = 0; step < max_len; ++step) {
    for (const auto& c : chains_) {
      const std::size_t len = c.elements.size();
      if (step >= len) continue;
      // On this step we inject the value destined for element
      // len - 1 - step  (first in = farthest element).
      const GateId target = c.elements[len - 1 - step];
      const int slot = storage_slot_[target];
      sim.set_input(c.scan_in, pattern[static_cast<std::size_t>(slot)]);
      stats_.shifted_bits += 1;
    }
    sim.clock(ClockMode::Shift);
    ++stats_.clock_cycles;
  }
  // Non-scanned storage keeps whatever state it has (partial scan).
}

ScanTester::Application ScanTester::apply(SeqSim& sim,
                                          const SourceVector& pattern) {
  const auto& pis = nl_->inputs();
  if (pattern.size() != pis.size() + nl_->storage().size()) {
    throw std::invalid_argument("pattern size mismatch");
  }
  // Park the scan-in PIs and primary inputs at X before loading so stale
  // values do not leak into the combinational logic during shifting.
  load_states(sim, pattern);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    sim.set_input(pis[i], pattern[i]);
  }
  sim.evaluate();

  Application app;
  app.po_values = sim.output_values();
  sim.clock(ClockMode::Normal);
  ++stats_.clock_cycles;

  // Unload: read scan-outs while shifting; captured bit of element e_j
  // appears at the scan-out after (len-1-j) shifts.
  std::vector<std::pair<GateId, Logic>> got;  // element -> captured value
  const std::size_t max_len =
      std::max_element(chains_.begin(), chains_.end(),
                       [](const ScanChain& a, const ScanChain& b) {
                         return a.elements.size() < b.elements.size();
                       })
          ->elements.size();
  for (std::size_t step = 0; step < max_len; ++step) {
    sim.evaluate();
    for (const auto& c : chains_) {
      const std::size_t len = c.elements.size();
      if (step >= len || c.scan_out == kNoGate) continue;
      const GateId element = c.elements[len - 1 - step];
      got.emplace_back(element, sim.value(c.scan_out));
      stats_.shifted_bits += 1;
      sim.set_input(c.scan_in, Logic::Zero);
    }
    sim.clock(ClockMode::Shift);
    ++stats_.clock_cycles;
  }
  app.unloaded.assign(nl_->storage().size(), Logic::X);
  for (const auto& [elem, v] : got) {
    const int slot =
        storage_slot_[elem] - static_cast<int>(nl_->inputs().size());
    app.unloaded[static_cast<std::size_t>(slot)] = v;
  }
  ++stats_.patterns;
  return app;
}

bool ScanTester::detects(const Fault& f,
                         const std::vector<SourceVector>& tests) {
  // Both machines start every call from the all-X state of a fresh
  // simulator: every source at X, then this fault injected.
  for (SeqSim* sim : {&good_, &bad_}) {
    for (GateId pi : nl_->inputs()) sim->set_input(pi, Logic::X);
    sim->reset(Logic::X);
  }
  bad_.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
  auto differs = [](Logic a, Logic b) {
    return is_binary(a) && is_binary(b) && a != b;
  };
  for (const auto& t : tests) {
    const Application ga = apply(good_, t);
    const Application ba = apply(bad_, t);
    for (std::size_t i = 0; i < ga.po_values.size(); ++i) {
      if (differs(ga.po_values[i], ba.po_values[i])) return true;
    }
    for (std::size_t i = 0; i < ga.unloaded.size(); ++i) {
      if (differs(ga.unloaded[i], ba.unloaded[i])) return true;
    }
  }
  return false;
}

}  // namespace dft
