#include "fault/deductive.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.h"
#include "sim/eval.h"

namespace dft {

namespace {

using List = std::vector<int>;

List set_union(const List& a, const List& b) {
  List out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

List set_intersection(const List& a, const List& b) {
  List out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

List set_difference(const List& a, const List& b) {
  List out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

List symmetric_difference(const List& a, const List& b) {
  List out;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out;
}

void insert_sorted(List& l, int x) {
  auto it = std::lower_bound(l.begin(), l.end(), x);
  if (it == l.end() || *it != x) l.insert(it, x);
}

}  // namespace

DeductiveFaultSimulator::DeductiveFaultSimulator(const Netlist& nl)
    : nl_(&nl), good_(nl), lists_(nl.size()), observed_(nl.size(), 0) {
  for (GateId g : nl.outputs()) observed_[g] = 1;
  for (GateId ff : nl.storage()) observed_[nl.fanin(ff)[kStoragePinD]] = 1;
}

std::vector<char> DeductiveFaultSimulator::detected(
    const SourceVector& pattern, const std::vector<Fault>& faults) {
  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  if (pattern.size() != pis.size() + ffs.size()) {
    throw std::invalid_argument("pattern size mismatch");
  }
  for (Logic l : pattern) {
    if (!is_binary(l)) {
      throw std::invalid_argument(
          "DeductiveFaultSimulator requires binary patterns");
    }
  }
  // Good-machine values.
  for (std::size_t i = 0; i < pis.size(); ++i) good_.set_value(pis[i], pattern[i]);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    good_.set_value(ffs[i], pattern[pis.size() + i]);
  }
  good_.clear_stuck();
  good_.evaluate();

  // Index the fault list by site.
  std::unordered_map<Fault, int, FaultHash> index;
  index.reserve(faults.size() * 2);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    index.emplace(faults[i], static_cast<int>(i));
  }
  auto site_fault = [&](GateId g, int pin, Logic good_value) -> int {
    // The fault "this site stuck at the complement of its current value".
    auto it = index.find({g, pin, good_value == Logic::Zero});
    return it == index.end() ? -1 : it->second;
  };

  for (auto& l : lists_) l.clear();

  // Sources seed their own output faults.
  for (GateId g : pis) {
    const int fi = site_fault(g, -1, good_.value(g));
    if (fi >= 0) lists_[g].push_back(fi);
  }
  for (GateId g : ffs) {
    const int fi = site_fault(g, -1, good_.value(g));
    if (fi >= 0) lists_[g].push_back(fi);
  }
  for (GateId g = 0; g < nl_->size(); ++g) {
    const GateType t = nl_->type(g);
    if (t == GateType::Const0 || t == GateType::Const1) {
      const int fi = site_fault(g, -1, good_.value(g));
      if (fi >= 0) lists_[g].push_back(fi);  // a stuck constant can flip
    }
  }

  std::vector<List> pin_lists;
  for (GateId g : nl_->topo_order()) {
    const auto& fin = nl_->fanin(g);
    const GateType t = nl_->type(g);

    // Per-pin lists: the driver's list plus this pin's own fault.
    pin_lists.assign(fin.size(), {});
    for (std::size_t p = 0; p < fin.size(); ++p) {
      pin_lists[p] = lists_[fin[p]];
      const int fi = site_fault(g, static_cast<int>(p), good_.value(fin[p]));
      if (fi >= 0) insert_sorted(pin_lists[p], fi);
    }

    List out;
    Logic c;
    if (controlling_value(t, c)) {
      // Partition pins by controlling value.
      List inter, uni;
      bool have_controlling = false, first_c = true;
      for (std::size_t p = 0; p < fin.size(); ++p) {
        const Logic v = as_input(good_.value(fin[p]));
        if (v == c) {
          have_controlling = true;
          inter = first_c ? pin_lists[p] : set_intersection(inter, pin_lists[p]);
          first_c = false;
        } else {
          uni = set_union(uni, pin_lists[p]);
        }
      }
      out = have_controlling
                ? set_difference(inter, uni)
                : [&] {
                    List u;
                    for (const auto& l : pin_lists) u = set_union(u, l);
                    return u;
                  }();
    } else if (t == GateType::Xor || t == GateType::Xnor ||
               t == GateType::Buf || t == GateType::Not ||
               t == GateType::Output) {
      // Parity gates: a fault flips the output iff it flips an odd number
      // of inputs.
      for (const auto& l : pin_lists) out = symmetric_difference(out, l);
    } else {
      // Generic exact fallback (MUX etc.): enumerate the union of input
      // lists and re-evaluate the gate with the flipped inputs.
      List candidates;
      for (const auto& l : pin_lists) candidates = set_union(candidates, l);
      std::vector<Logic> goods, flipped;
      for (GateId x : fin) goods.push_back(good_.value(x));
      const Logic gv = eval_gate(t, goods);
      for (int fi : candidates) {
        flipped = goods;
        for (std::size_t p = 0; p < fin.size(); ++p) {
          if (std::binary_search(pin_lists[p].begin(), pin_lists[p].end(),
                                 fi)) {
            flipped[p] = flipped[p] == Logic::One ? Logic::Zero : Logic::One;
          }
        }
        if (eval_gate(t, flipped) != gv) out.push_back(fi);
      }
    }
    // The gate's own output fault.
    const int fi = site_fault(g, -1, good_.value(g));
    if (fi >= 0) insert_sorted(out, fi);
    lists_[g] = std::move(out);
  }

  std::vector<char> det(faults.size(), 0);
  for (GateId g = 0; g < nl_->size(); ++g) {
    if (!observed_[g]) continue;
    for (int fi : lists_[g]) det[static_cast<std::size_t>(fi)] = 1;
  }
  // Storage D-pin faults are captured directly.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    if (is_storage(nl_->type(f.gate)) && f.pin == kStoragePinD) {
      const Logic v = good_.value(nl_->fanin(f.gate)[kStoragePinD]);
      if (is_binary(v) && (v == Logic::One) != f.sa1) det[i] = 1;
    }
  }
  return det;
}

FaultSimResult DeductiveFaultSimulator::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  validate_patterns(source_count(*nl_), patterns, /*require_binary=*/true);
  const bool guarded = budget != nullptr && budget->limited();
  FaultSimResult res;
  res.first_detected_by.assign(faults.size(), -1);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const auto det = detected(patterns[p], faults);
    bool all_done = true;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.first_detected_by[i] < 0) {
        if (det[i]) {
          res.first_detected_by[i] = static_cast<int>(p);
          ++res.num_detected;
        } else {
          all_done = false;
        }
      }
    }
    if (progress_on()) {
      emit_progress(p + 1, res.num_detected, faults.size(), p + 1,
                    patterns.size(), budget);
    }
    if (drop_detected && all_done) break;
    // Per-pattern poll, after the pattern's detections are merged.
    if (guarded) {
      budget->charge_patterns(1);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (obs::enabled()) record_final_coverage(res);
  return res;
}

}  // namespace dft
