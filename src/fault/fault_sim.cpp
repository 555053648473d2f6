#include "fault/fault_sim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace dft {

std::size_t source_count(const Netlist& nl) {
  return nl.inputs().size() + nl.storage().size();
}

SourceVector random_source_vector(const Netlist& nl, std::mt19937_64& rng) {
  SourceVector v(source_count(nl));
  for (auto& l : v) l = to_logic((rng() & 1) != 0);
  return v;
}

void random_fill(SourceVector& v, std::mt19937_64& rng) {
  for (auto& l : v) {
    if (!is_binary(l)) l = to_logic((rng() & 1) != 0);
  }
}

void validate_patterns(const Netlist& nl,
                       const std::vector<SourceVector>& patterns,
                       bool require_binary) {
  const std::size_t ns = source_count(nl);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (patterns[p].size() != ns) {
      throw std::invalid_argument(
          "pattern " + std::to_string(p) + " has " +
          std::to_string(patterns[p].size()) + " entries, netlist has " +
          std::to_string(ns) + " sources");
    }
    if (require_binary) {
      for (Logic l : patterns[p]) {
        if (!is_binary(l)) {
          throw std::invalid_argument(
              "pattern " + std::to_string(p) +
              " contains X/Z entries; this engine requires binary patterns "
              "(random_fill them first)");
        }
      }
    }
  }
}

// --- Progress / coverage reporting ---------------------------------------

void FaultSimEngine::emit_progress(std::uint64_t patterns, int detected,
                                   std::size_t total, std::uint64_t items_done,
                                   std::uint64_t items_total,
                                   const guard::Budget* budget) const {
  obs::Progress p;
  p.phase = progress_phase_;
  if (total > 0) {
    p.coverage_pct =
        100.0 * static_cast<double>(detected) / static_cast<double>(total);
  }
  p.patterns = patterns;
  p.items_done = items_done;
  p.items_total = items_total;
  if (budget != nullptr) p.budget_remaining_ms = budget->remaining_ms();
  obs::ProgressSink::global().maybe_emit(p);
}

void record_final_coverage(const FaultSimResult& res) {
  obs::Registry::global()
      .value("fault_sim.coverage.final_pct")
      .set(100.0 * res.coverage());
}

void record_coverage_curve(std::string_view name,
                           const std::vector<int>& first_detected_by,
                           std::size_t num_patterns) {
  obs::Curve& curve = obs::Registry::global().curve(name);
  curve.reset();
  if (num_patterns == 0) return;
  const std::size_t nblocks = (num_patterns + 63) / 64;
  std::vector<std::uint64_t> per_block(nblocks, 0);
  for (const int fd : first_detected_by) {
    if (fd >= 0 && static_cast<std::size_t>(fd) < num_patterns) {
      ++per_block[static_cast<std::size_t>(fd) / 64];
    }
  }
  const double total = static_cast<double>(first_detected_by.size());
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    cum += per_block[b];
    const std::size_t last = std::min(num_patterns, (b + 1) * 64) - 1;
    curve.add(static_cast<double>(last),
              total == 0.0 ? 100.0
                           : 100.0 * static_cast<double>(cum) / total);
  }
}

// --- Serial --------------------------------------------------------------

SerialFaultSimulator::SerialFaultSimulator(const Netlist& nl)
    : nl_(&nl), good_(nl), bad_(good_) {}

void SerialFaultSimulator::apply(CombSim& sim, const SourceVector& pattern) {
  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  if (pattern.size() != pis.size() + ffs.size()) {
    throw std::invalid_argument("pattern size mismatch");
  }
  for (std::size_t i = 0; i < pis.size(); ++i) sim.set_value(pis[i], pattern[i]);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    sim.set_value(ffs[i], pattern[pis.size() + i]);
  }
}

bool SerialFaultSimulator::detects(const SourceVector& pattern,
                                   const Fault& f) {
  apply(good_, pattern);
  good_.clear_stuck();
  good_.evaluate();

  apply(bad_, pattern);
  const bool storage_d_fault =
      is_storage(nl_->type(f.gate)) && f.pin == kStoragePinD;
  if (storage_d_fault) {
    bad_.clear_stuck();
  } else {
    bad_.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
  }
  bad_.evaluate();

  auto differs = [](Logic a, Logic b) {
    return is_binary(a) && is_binary(b) && a != b;
  };
  for (GateId po : nl_->outputs()) {
    if (differs(good_.value(po), bad_.value(po))) return true;
  }
  for (GateId ff : nl_->storage()) {
    Logic faulty_next = bad_.next_state(ff);
    if (storage_d_fault && ff == f.gate) {
      faulty_next = f.sa1 ? Logic::One : Logic::Zero;
    }
    if (differs(good_.next_state(ff), faulty_next)) return true;
  }
  return false;
}

FaultSimResult SerialFaultSimulator::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  validate_patterns(*nl_, patterns, /*require_binary=*/false);
  FaultSimResult res;
  res.first_detected_by.assign(faults.size(), -1);
  const bool guarded = budget != nullptr && budget->limited();
  std::uint64_t pairs = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::uint64_t fault_pairs = 0;
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      ++fault_pairs;
      if (detects(patterns[pi], faults[fi])) {
        if (res.first_detected_by[fi] < 0) {
          res.first_detected_by[fi] = static_cast<int>(pi);
          ++res.num_detected;
        }
        // Dropping only skips the remaining (pattern, fault) pairs; the
        // first-detection result is the same either way -- the contract the
        // other engines follow.
        if (drop_detected) break;
      }
    }
    pairs += fault_pairs;
    if (progress_on()) {
      emit_progress(pairs, res.num_detected, faults.size(), fi + 1,
                    faults.size(), budget);
    }
    // Poll after each fully-simulated fault: the partial result covers a
    // clean prefix of the fault list, the rest stays -1.
    if (guarded) {
      budget->charge_patterns(fault_pairs);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.serial.runs").add(1);
    reg.counter("fault_sim.serial.pairs_simulated").add(pairs);
    reg.counter("fault_sim.serial.detections")
        .add(static_cast<std::uint64_t>(res.num_detected));
    record_final_coverage(res);
  }
  return res;
}

// --- Parallel-pattern single-fault propagation -----------------------------
//
// All member definitions are templated over the evaluation backend and live
// in fault_sim_impl.h; this TU compiles the classic 64-bit instantiation
// once so the header's extern template keeps every consumer TU from
// re-instantiating it (the wide lanes compile in simd_lanes.cpp).

template class BasicParallelFaultSimulator<ScalarEval<std::uint64_t>>;

}  // namespace dft
