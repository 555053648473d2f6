#include "fault/dictionary.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sim/comb_sim.h"

namespace dft {

FaultDictionary::FaultDictionary(const Netlist& nl,
                                 std::vector<SourceVector> patterns,
                                 std::vector<Fault> faults)
    : nl_(&nl), patterns_(std::move(patterns)), faults_(std::move(faults)) {
  for (const auto& p : patterns_) {
    for (Logic l : p) {
      if (!is_binary(l)) {
        throw std::invalid_argument("dictionary patterns must be binary");
      }
    }
  }
  maps_.reserve(faults_.size());
  for (const Fault& f : faults_) {
    maps_.push_back(response_map(f));
    bool any = false;
    for (std::uint64_t w : maps_.back()) any = any || w != 0;
    detected_ += any;
  }
}

std::vector<std::uint64_t> FaultDictionary::response_map(
    const Fault& f) const {
  // One bit per (pattern, observation point): 1 = the faulty machine
  // disagrees with the good machine there.
  const std::size_t obs_count =
      nl_->outputs().size() + nl_->storage().size();
  const std::size_t total_bits = patterns_.size() * obs_count;
  std::vector<std::uint64_t> map((total_bits + 63) / 64, 0);

  CombSim good(*nl_);
  CombSim bad(good);  // shares good's compiled program
  bad.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
  const bool storage_d_fault =
      is_storage(nl_->type(f.gate)) && f.pin == kStoragePinD;
  if (storage_d_fault) bad.clear_stuck();

  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  for (std::size_t p = 0; p < patterns_.size(); ++p) {
    const SourceVector& pat = patterns_[p];
    for (CombSim* s : {&good, &bad}) {
      for (std::size_t i = 0; i < pis.size(); ++i) {
        s->set_value(pis[i], pat[i]);
      }
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        s->set_value(ffs[i], pat[pis.size() + i]);
      }
      s->evaluate();
    }
    std::size_t bit = p * obs_count;
    for (GateId po : nl_->outputs()) {
      if (good.value(po) != bad.value(po)) {
        map[bit / 64] |= 1ull << (bit % 64);
      }
      ++bit;
    }
    for (GateId ff : ffs) {
      Logic bv = bad.next_state(ff);
      if (storage_d_fault && ff == f.gate) {
        bv = f.sa1 ? Logic::One : Logic::Zero;
      }
      if (good.next_state(ff) != bv) map[bit / 64] |= 1ull << (bit % 64);
      ++bit;
    }
  }
  return map;
}

std::vector<std::uint64_t> FaultDictionary::observe(const Fault& f) const {
  return response_map(f);
}

std::vector<int> FaultDictionary::diagnose(
    const std::vector<std::uint64_t>& observed) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < maps_.size(); ++i) {
    if (maps_[i] == observed) out.push_back(static_cast<int>(i));
  }
  return out;
}

int FaultDictionary::distinguishable_classes() const {
  std::map<std::vector<std::uint64_t>, int> classes;
  for (const auto& m : maps_) {
    bool any = false;
    for (std::uint64_t w : m) any = any || w != 0;
    if (any) classes[m] += 1;
  }
  return static_cast<int>(classes.size());
}

double FaultDictionary::diagnostic_resolution() const {
  return detected_ == 0
             ? 0.0
             : static_cast<double>(distinguishable_classes()) / detected_;
}

}  // namespace dft
