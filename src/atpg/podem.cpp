#include "atpg/podem.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/progress.h"

namespace dft {

namespace {

Logic negate(Logic v) { return v == Logic::One ? Logic::Zero : Logic::One; }

}  // namespace

Podem::Podem(const Netlist& nl, int backtrack_limit)
    : backtrack_limit_(backtrack_limit),
      cn_(nl),
      scoap_(compute_scoap(nl, ScoapMode::FullScan)),
      source_index_of_(nl.size(), -1),
      values_(nl.size(), DVal::X),
      observe_(nl.size(), 0),
      wheel_(static_cast<std::size_t>(cn_.depth()) + 1),
      queued_(nl.size(), 0),
      error_slot_(nl.size(), 0),
      seen_(nl.size(), 0) {
  for (GateId g : nl.inputs()) {
    source_index_of_[g] = static_cast<int>(sources_.size());
    sources_.push_back(g);
  }
  for (GateId g : nl.storage()) {
    source_index_of_[g] = static_cast<int>(sources_.size());
    sources_.push_back(g);
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType t = nl.type(g);
    if (t == GateType::Const0 || t == GateType::Const1) constants_.push_back(g);
  }
  assignment_.assign(sources_.size(), Logic::X);
  for (GateId g : nl.outputs()) observe_[g] = 1;
  for (GateId ff : nl.storage()) observe_[nl.fanin(ff)[kStoragePinD]] = 1;
}

DVal Podem::source_value(std::size_t si) const {
  const Logic a = assignment_[si];
  // compose() of an unassigned source is X, faulty or not.
  return sources_[si] == fault_gate_ && fault_pin_ < 0 ? compose(a, stuck_)
                                                       : to_dval(a);
}

DVal Podem::eval(GateId g) const {
  const auto fin = cn_.fanin(g);
  const DVal* v = values_.data();
  if (g != fault_gate_) [[likely]] {
    return eval_gate_dval_at(cn_.type(g), fin.size(),
                             [&](std::size_t p) { return v[fin[p]]; });
  }
  // The faulted gate perceives the stuck value on its faulted pin.
  const DVal out =
      eval_gate_dval_at(cn_.type(g), fin.size(), [&](std::size_t p) {
        return static_cast<int>(p) == fault_pin_
                   ? compose(good_of(v[fin[p]]), stuck_)
                   : v[fin[p]];
      });
  return fault_pin_ < 0 ? compose(good_of(out), stuck_) : out;
}

void Podem::set_value(GateId g, DVal v) {
  const bool was_error = is_error(values_[g]);
  values_[g] = v;
  if (was_error == is_error(v)) return;
  if (!was_error) {
    error_slot_[g] = static_cast<std::uint32_t>(errors_.size());
    errors_.push_back(g);
    errors_observed_ += observe_[g];
    return;
  }
  const std::uint32_t slot = error_slot_[g];
  errors_[slot] = errors_.back();
  error_slot_[errors_[slot]] = slot;
  errors_.pop_back();
  errors_observed_ -= observe_[g];
}

void Podem::schedule_fanouts(GateId g) {
  for (GateId s : cn_.fanout(g)) {
    if (queued_[s] || !is_combinational(cn_.type(s))) continue;
    queued_[s] = 1;
    const int lvl = cn_.level(s);
    wheel_[static_cast<std::size_t>(lvl)].push_back(s);
    wheel_lo_ = std::min(wheel_lo_, lvl);
    wheel_hi_ = std::max(wheel_hi_, lvl);
  }
}

void Podem::full_pass(const Fault& f) {
  for (int l = wheel_lo_; l <= wheel_hi_; ++l) {
    for (GateId g : wheel_[static_cast<std::size_t>(l)]) queued_[g] = 0;
    wheel_[static_cast<std::size_t>(l)].clear();
  }
  wheel_lo_ = static_cast<int>(wheel_.size());
  wheel_hi_ = -1;

  // Storage elements are sources, never evaluated, so a pin fault on one is
  // not injected: fault_detected() reads its captured value directly.
  fault_gate_ = f.gate;
  fault_pin_ = f.pin;
  stuck_ = f.sa1 ? Logic::One : Logic::Zero;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    set_value(sources_[i], source_value(i));
  }
  for (GateId g : constants_) {
    const DVal c =
        cn_.type(g) == GateType::Const1 ? DVal::One : DVal::Zero;
    set_value(g, g == fault_gate_ ? compose(good_of(c), stuck_) : c);
  }
  for (GateId g : cn_.topo()) set_value(g, eval(g));
  gate_evals_ += cn_.topo().size();
}

void Podem::assign(std::size_t si, Logic v) {
  assignment_[si] = v;
  const GateId g = sources_[si];
  const DVal nv = source_value(si);
  if (nv == values_[g]) return;
  set_value(g, nv);
  schedule_fanouts(g);
}

void Podem::propagate() {
  // Fanouts sit at strictly higher levels, so wheel_hi_ can grow while the
  // loop runs but never behind it.
  for (int l = wheel_lo_; l <= wheel_hi_; ++l) {
    auto& bucket = wheel_[static_cast<std::size_t>(l)];
    for (GateId g : bucket) {
      queued_[g] = 0;
      const DVal v = eval(g);
      if (v == values_[g]) continue;
      set_value(g, v);
      schedule_fanouts(g);
    }
    gate_evals_ += bucket.size();
    bucket.clear();
  }
  wheel_lo_ = static_cast<int>(wheel_.size());
  wheel_hi_ = -1;
}

bool Podem::fault_detected(const Fault& f) const {
  if (is_storage(cn_.type(f.gate)) && f.pin == kStoragePinD) {
    const GateId d = cn_.fanin(f.gate)[kStoragePinD];
    const Logic g = good_of(values_[d]);
    return is_binary(g) && g != (f.sa1 ? Logic::One : Logic::Zero);
  }
  return errors_observed_ > 0;
}

bool Podem::excitation_impossible(const Fault& f) const {
  const Logic stuck = f.sa1 ? Logic::One : Logic::Zero;
  GateId site;
  if (f.pin >= 0) {
    site = cn_.fanin(f.gate)[static_cast<std::size_t>(f.pin)];
  } else {
    site = f.gate;
  }
  const Logic good = good_of(values_[site]);
  return is_binary(good) && good == stuck;
}

bool Podem::x_path_exists(const Fault& f) const {
  // DFS through X-valued gates from every D-frontier gate (or from any
  // error-valued gate, which covers the fault site) to an observation point.
  if (errors_observed_ > 0) return true;
  if (++epoch_ == 0) {  // wrapped: forget every stale stamp
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  std::vector<GateId>& frontier = xpath_stack_;
  frontier.clear();
  const auto push_x = [&](GateId s) {
    if (seen_[s] != epoch_ && values_[s] == DVal::X &&
        is_combinational(cn_.type(s))) {
      frontier.push_back(s);
    }
  };
  // An excited input-pin fault whose gate output is still X is itself the
  // first frontier gate: the error lives on the composed pin, which is not
  // visible in values_.
  if (f.pin >= 0) push_x(f.gate);
  for (GateId g : errors_) {
    for (GateId s : cn_.fanout(g)) push_x(s);
  }
  while (!frontier.empty()) {
    const GateId g = frontier.back();
    frontier.pop_back();
    if (seen_[g] == epoch_) continue;
    seen_[g] = epoch_;
    if (observe_[g]) return true;
    for (GateId s : cn_.fanout(g)) push_x(s);
  }
  return false;
}

bool Podem::objective(const Fault& f, GateId& net, Logic& value) const {
  const Logic stuck = f.sa1 ? Logic::One : Logic::Zero;

  // Phase 1: excite the fault.
  GateId site;
  if (f.pin >= 0) {
    site = cn_.fanin(f.gate)[static_cast<std::size_t>(f.pin)];
  } else {
    site = f.gate;
  }
  const Logic site_good = good_of(values_[site]);
  const bool excited =
      is_error(values_[site]) ||
      (is_binary(site_good) && site_good != stuck);
  if (!excited) {
    if (is_binary(site_good)) return false;  // conflicting; backtrack
    net = site;
    value = negate(stuck);
    return true;
  }

  // Storage D-pin faults are detected at excitation; nothing to propagate.
  if (is_storage(cn_.type(f.gate)) && f.pin == kStoragePinD) return false;

  if (!x_path_exists(f)) return false;

  // The effective value of a pin as the gate perceives it (composes the
  // stuck value on the faulted pin).
  const Logic stuck_l = stuck;
  auto pin_val = [&](GateId g, std::size_t p) {
    DVal v = values_[cn_.fanin(g)[p]];
    if (g == f.gate && f.pin == static_cast<int>(p)) {
      v = compose(good_of(v), stuck_l);
    }
    return v;
  };

  // Phase 2: propagate -- pick the D-frontier gate closest to an
  // observation point (lowest CO, lowest id on a tie). A frontier gate has
  // an error on some pin, so it is a fanout of an error gate or, for a pin
  // fault, the faulted gate itself.
  GateId best = kNoGate;
  const auto consider = [&](GateId g) {
    if (values_[g] != DVal::X || !is_combinational(cn_.type(g))) return;
    if (best != kNoGate && (scoap_.co[g] > scoap_.co[best] ||
                            (scoap_.co[g] == scoap_.co[best] && g >= best))) {
      return;
    }
    for (std::size_t p = 0; p < cn_.fanin(g).size(); ++p) {
      if (is_error(pin_val(g, p))) {
        best = g;
        return;
      }
    }
  };
  if (f.pin >= 0) consider(f.gate);
  for (GateId g : errors_) {
    for (GateId s : cn_.fanout(g)) consider(s);
  }
  if (best == kNoGate) return false;

  const auto fin = cn_.fanin(best);
  const GateType t = cn_.type(best);
  Logic c;
  if (controlling_value(t, c)) {
    for (std::size_t p = 0; p < fin.size(); ++p) {
      if (pin_val(best, p) == DVal::X) {
        net = fin[p];
        value = negate(c);
        return true;
      }
    }
    return false;
  }
  if (t == GateType::Mux) {
    const DVal sel = pin_val(best, kMuxPinSel);
    const DVal a = pin_val(best, kMuxPinA);
    const DVal b = pin_val(best, kMuxPinB);
    if (is_error(a) && sel == DVal::X) {
      net = fin[kMuxPinSel];
      value = Logic::Zero;
      return true;
    }
    if (is_error(b) && sel == DVal::X) {
      net = fin[kMuxPinSel];
      value = Logic::One;
      return true;
    }
    if (is_error(sel)) {
      // Data inputs must differ.
      if (a == DVal::X) {
        net = fin[kMuxPinA];
        value = is_assigned(b) ? negate(good_of(b)) : Logic::One;
        return true;
      }
      if (b == DVal::X) {
        net = fin[kMuxPinB];
        value = is_assigned(a) ? negate(good_of(a)) : Logic::Zero;
        return true;
      }
      return false;
    }
    // Error on a data pin but select already known: value flows already or
    // is blocked; nothing useful to assign here.
    for (std::size_t p = 0; p < fin.size(); ++p) {
      if (pin_val(best, p) == DVal::X) {
        net = fin[p];
        value = Logic::Zero;
        return true;
      }
    }
    return false;
  }
  // XOR family (and buffers, which never linger on the frontier): bind any
  // X input; any binary value propagates through parity gates.
  for (std::size_t p = 0; p < fin.size(); ++p) {
    if (pin_val(best, p) == DVal::X) {
      net = fin[p];
      value = Logic::Zero;
      return true;
    }
  }
  return false;
}

bool Podem::backtrace(GateId net, Logic value, std::size_t& source_index,
                      bool& set_to_one) const {
  int guard = static_cast<int>(cn_.size()) + 8;
  while (guard-- > 0) {
    if (source_index_of_[net] >= 0) {
      if (assignment_[static_cast<std::size_t>(source_index_of_[net])] !=
          Logic::X) {
        return false;  // source already bound: objective unreachable here
      }
      source_index = static_cast<std::size_t>(source_index_of_[net]);
      set_to_one = value == Logic::One;
      return true;
    }
    const GateType t = cn_.type(net);
    const auto fin = cn_.fanin(net);
    if (fin.empty()) return false;  // constants cannot be justified

    Logic target = inverts(t) ? negate(value) : value;
    Logic c;
    if (controlling_value(t, c)) {
      // Controlling target: one (easiest) input suffices; non-controlling:
      // all inputs needed, descend the hardest to fail fast.
      const bool want_controlling = target == c;
      GateId pick = kNoGate;
      int best_cost = 0;
      for (GateId fi : fin) {
        if (good_of(values_[fi]) != Logic::X) continue;
        const int cost = target == Logic::One ? scoap_.cc1[fi] : scoap_.cc0[fi];
        if (pick == kNoGate || (want_controlling ? cost < best_cost
                                                 : cost > best_cost)) {
          pick = fi;
          best_cost = cost;
        }
      }
      if (pick == kNoGate) return false;
      net = pick;
      value = target;
      continue;
    }
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Output) {
      net = fin[0];
      value = target;
      continue;
    }
    if (t == GateType::Xor || t == GateType::Xnor) {
      // Choose an X input; required value is target xor parity of known
      // inputs (other X inputs optimistically treated as 0).
      GateId pick = kNoGate;
      bool parity = target == Logic::One;
      for (GateId fi : fin) {
        const Logic g = good_of(values_[fi]);
        if (g == Logic::One) parity = !parity;
        if (g == Logic::X && pick == kNoGate) pick = fi;
      }
      if (pick == kNoGate) return false;
      net = pick;
      value = parity ? Logic::One : Logic::Zero;
      continue;
    }
    if (t == GateType::Mux) {
      const DVal sel = values_[fin[kMuxPinSel]];
      if (good_of(sel) == Logic::Zero) {
        net = fin[kMuxPinA];
      } else if (good_of(sel) == Logic::One) {
        net = fin[kMuxPinB];
      } else {
        // Bind the select first, toward the cheaper data side.
        net = fin[kMuxPinSel];
        const int costa = target == Logic::One ? scoap_.cc1[fin[kMuxPinA]]
                                               : scoap_.cc0[fin[kMuxPinA]];
        const int costb = target == Logic::One ? scoap_.cc1[fin[kMuxPinB]]
                                               : scoap_.cc0[fin[kMuxPinB]];
        value = costa <= costb ? Logic::Zero : Logic::One;
        continue;
      }
      value = target;
      continue;
    }
    return false;
  }
  return false;
}

namespace {

// One bulk registry flush per generate() call; the search loop itself only
// touches the outcome's plain counters.
void flush_podem_obs(const AtpgOutcome& out, std::uint64_t gate_evals) {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("podem.calls").add(1);
  reg.counter("podem.decisions").add(static_cast<std::uint64_t>(out.decisions));
  reg.counter("podem.backtracks")
      .add(static_cast<std::uint64_t>(out.backtracks));
  reg.counter("podem.implications")
      .add(static_cast<std::uint64_t>(out.implications));
  reg.counter("podem.gate_evals").add(gate_evals);
  switch (out.status) {
    case AtpgStatus::TestFound: reg.counter("podem.tests_found").add(1); break;
    case AtpgStatus::Redundant: reg.counter("podem.redundant").add(1); break;
    case AtpgStatus::Aborted: reg.counter("podem.aborted").add(1); break;
  }
}

}  // namespace

AtpgOutcome Podem::generate(const Fault& fault) {
  std::fill(assignment_.begin(), assignment_.end(), Logic::X);
  gate_evals_ = 0;
  full_pass(fault);
  std::vector<Decision> stack;
  AtpgOutcome out;
  if (obs::enabled()) {
    obs::Registry::global()
        .gauge("podem.backtrack_limit")
        .set(backtrack_limit_);
  }

  const bool guarded = budget_ != nullptr && budget_->limited();
  std::uint64_t charged = 0;
  for (;;) {
    propagate();
    ++out.implications;
    // Progress on the same 32-pass stride as the budget poll below: one
    // relaxed load when the sink is off. Coverage is unknown inside a
    // single fault's search, so only the decision counters stream.
    if ((out.implications & 31) == 0 &&
        obs::ProgressSink::global().active()) {
      obs::Progress prog;
      prog.phase = "podem";
      prog.decisions =
          static_cast<std::uint64_t>(out.decisions + out.backtracks);
      if (budget_ != nullptr) {
        prog.budget_remaining_ms = budget_->remaining_ms();
      }
      obs::ProgressSink::global().maybe_emit(prog);
    }
    // Budget poll every 32 implication passes. A pass is one decision's
    // event-driven implication, anywhere from a few gates to the whole
    // output cone, so the stride keeps poll overhead invisible while still
    // bounding overshoot to 32 implications past the deadline.
    if (guarded && (out.implications & 31) == 0) {
      const auto total =
          static_cast<std::uint64_t>(out.decisions + out.backtracks);
      budget_->charge_decisions(total - charged);
      charged = total;
      const guard::RunStatus st = budget_->poll();
      if (st != guard::RunStatus::Completed) {
        out.status = AtpgStatus::Aborted;
        out.run_status = st;
        flush_podem_obs(out, gate_evals_);
        return out;
      }
    }
    if (fault_detected(fault)) {
      out.status = AtpgStatus::TestFound;
      out.pattern = assignment_;
      flush_podem_obs(out, gate_evals_);
      return out;
    }
    bool need_backtrack = excitation_impossible(fault);
    GateId net = kNoGate;
    Logic value = Logic::X;
    if (!need_backtrack && !objective(fault, net, value)) {
      need_backtrack = true;
    }
    if (!need_backtrack) {
      std::size_t si = 0;
      bool one = false;
      if (backtrace(net, value, si, one)) {
        stack.push_back({si, false});
        assign(si, one ? Logic::One : Logic::Zero);
        ++out.decisions;
        continue;
      }
      need_backtrack = true;
    }
    // Backtrack: flip the most recent untried decision.
    for (;;) {
      if (stack.empty()) {
        out.status = AtpgStatus::Redundant;
        flush_podem_obs(out, gate_evals_);
        return out;
      }
      Decision& d = stack.back();
      if (!d.tried_both) {
        d.tried_both = true;
        assign(d.source_index, assignment_[d.source_index] == Logic::One
                                   ? Logic::Zero
                                   : Logic::One);
        if (++out.backtracks > backtrack_limit_) {
          out.status = AtpgStatus::Aborted;
          flush_podem_obs(out, gate_evals_);
          return out;
        }
        break;
      }
      assign(d.source_index, Logic::X);
      stack.pop_back();
    }
  }
}

}  // namespace dft
