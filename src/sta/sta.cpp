#include "sta/sta.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
#include "sim/eval.h"

namespace dft::sta {

namespace {

// Gates probed for constants: combinational logic with real function.
// Sources and storage outputs are free variables (probing one can never
// conflict -- every source vector is a consistent assignment), and an
// Output gate mirrors its driver.
bool probe_worthy(GateType t) {
  return is_combinational(t) && t != GateType::Output;
}

std::uint8_t code_of(Logic v) {
  return v == Logic::Zero ? 1 /*k0*/ : 2 /*k1*/;
}

}  // namespace

LineConst StaticAnalyzer::const_of(GateId g) const {
  if (contradiction_[g] != 0) return LineConst::Contradiction;
  if (base_[g] == k0) return LineConst::Zero;
  if (base_[g] == k1) return LineConst::One;
  return LineConst::Free;
}

// --- the implication core ---------------------------------------------------

// Records g=v, schedules the affected gates, and fires learned edges.
// False on conflict with the current partial assignment.
bool StaticAnalyzer::assign(GateId g, std::uint8_t v) {
  const std::uint8_t cur = val_[g];
  if (cur == v) return true;
  if (cur != kX) return false;
  val_[g] = v;
  trail_.push_back(g);
  push_dirty(g);
  for (GateId f : cn_.fanout(g)) push_dirty(f);
  const auto& cons = learned_[lit(g, v)];
  pending_.insert(pending_.end(), cons.begin(), cons.end());
  return true;
}

void StaticAnalyzer::push_dirty(GateId g) {
  if (in_dirty_[g] != 0) return;
  in_dirty_[g] = 1;
  dirty_.push_back(g);
}

void StaticAnalyzer::clear_queues() {
  for (GateId g : dirty_) in_dirty_[g] = 0;
  dirty_.clear();
  pending_.clear();
}

// Re-derives everything implied locally at gate g from the current partial
// assignment: forward evaluation of g's output and backward justification
// of g's fanins. False on conflict.
bool StaticAnalyzer::examine(GateId g) {
  const GateType t = cn_.type(g);
  const auto fi = cn_.fanin(g);
  const std::uint8_t out = val_[g];

  switch (t) {
    case GateType::Const0: return assign(g, k0);
    case GateType::Const1: return assign(g, k1);

    case GateType::Input:
    case GateType::Dff:
    case GateType::ScanDff:
    case GateType::Srl:
    case GateType::AddressableLatch:
      // Free sources in the combinational test model: no local rules.
      return true;

    case GateType::Buf:
    case GateType::Output: {
      if (val_[fi[0]] != kX && !assign(g, val_[fi[0]])) return false;
      if (out != kX && !assign(fi[0], out)) return false;
      return true;
    }
    case GateType::Not: {
      if (val_[fi[0]] != kX && !assign(g, neg(val_[fi[0]]))) return false;
      if (out != kX && !assign(fi[0], neg(out))) return false;
      return true;
    }

    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const bool inv = t == GateType::Nand || t == GateType::Nor;
      const std::uint8_t c =
          (t == GateType::And || t == GateType::Nand) ? k0 : k1;
      const std::uint8_t nc = neg(c);
      bool all_known = true;
      GateId unknown = kNoGate;
      bool many_unknowns = false;  // >= 2 DISTINCT unknown drivers
      for (GateId w : fi) {
        const std::uint8_t v = val_[w];
        // One controlling input settles the output, and nothing else the
        // scan could find would fire a rule.
        if (v == c) return assign(g, inv ? nc : c);
        if (v == kX) {
          all_known = false;
          // Distinctness must be sticky: the same line on two pins is one
          // unknown (And(u,u) = u), but a repeated pin must never un-count
          // a different unknown seen in between.
          if (unknown == kNoGate) {
            unknown = w;
          } else if (unknown != w) {
            many_unknowns = true;
          }
        }
      }
      const std::uint8_t out_nc = inv ? c : nc;  // all-non-controlling
      if (all_known && !assign(g, out_nc)) return false;
      if (out != kX) {
        if (out == out_nc) {
          for (GateId w : fi) {
            if (!assign(w, nc)) return false;
          }
        } else if (unknown != kNoGate && !many_unknowns) {
          // Output at the controlled value, every known input
          // non-controlling, exactly one unknown driver: it must control.
          if (!assign(unknown, c)) return false;
        }
      }
      return true;
    }

    case GateType::Xor:
    case GateType::Xnor: {
      // Parity over the odd-multiplicity drivers only: a driver on an even
      // number of pins cancels out of the parity entirely, which is how
      // XOR(a,a)-style constants become visible. A second unknown driver
      // ends the scan, since no rule fires with two.
      bool parity = t == GateType::Xnor;  // fold the inversion in
      GateId unknown = kNoGate;
      for (GateId w : odd_drivers(g)) {
        const std::uint8_t v = val_[w];
        if (v == k1) {
          parity = !parity;
        } else if (v == kX) {
          if (unknown != kNoGate) return true;
          unknown = w;
        }
      }
      if (unknown == kNoGate) return assign(g, parity ? k1 : k0);
      if (out != kX) {
        const bool want = (out == k1) != parity;
        return assign(unknown, want ? k1 : k0);
      }
      return true;
    }

    case GateType::Mux: {
      const GateId a = fi[kMuxPinA], b = fi[kMuxPinB], s = fi[kMuxPinSel];
      const std::uint8_t va = val_[a], vb = val_[b], vs = val_[s];
      if (vs == k0 && va != kX && !assign(g, va)) return false;
      if (vs == k1 && vb != kX && !assign(g, vb)) return false;
      if (va != kX && va == vb && !assign(g, va)) return false;
      if (out != kX) {
        if (vs == k0 && !assign(a, out)) return false;
        if (vs == k1 && !assign(b, out)) return false;
        if (va == neg(out)) {
          if (!assign(s, k1) || !assign(b, out)) return false;
        }
        if (vb == neg(out)) {
          if (!assign(s, k0) || !assign(a, out)) return false;
        }
      }
      return true;
    }

    case GateType::Tristate: {
      // Only the rules valid in BOTH logic models (Z-aware eval_gate and
      // the pull-down data-AND-enable of the D-calculus): enable=1 makes
      // the driver transparent, and a driven 1 needs enable=1, data=1.
      // out=0 implies nothing (Z model: enable=1 & data=0; pull-down:
      // either input 0).
      const GateId d = fi[kTristatePinData], e = fi[kTristatePinEnable];
      if (val_[e] == k1 && val_[d] != kX && !assign(g, val_[d])) return false;
      if (out == k1) {
        if (!assign(e, k1) || !assign(d, k1)) return false;
      }
      return true;
    }

    case GateType::Bus: {
      // Single driver: a plain wire in both models. Multiple drivers agree
      // only when every driver is known and equal (the OR-resolution and
      // the Z-resolution then coincide).
      if (fi.size() == 1) {
        if (val_[fi[0]] != kX && !assign(g, val_[fi[0]])) return false;
        if (out != kX && !assign(fi[0], out)) return false;
        return true;
      }
      std::uint8_t all = val_[fi[0]];
      for (GateId w : fi) {
        if (val_[w] != all) { all = kX; break; }
      }
      if (all != kX && !assign(g, all)) return false;
      return true;
    }
  }
  return true;
}

// Drains the pending-literal and dirty-gate queues. False on conflict.
// Stops quietly (soundly under-propagating) after `max_work` queue pops:
// a truncated closure can miss a conflict but never fabricate one. Work is
// counted in pops, not assignments -- one assignment to a high-fanout line
// schedules every sink, so an assignment cap would not bound the cost.
bool StaticAnalyzer::propagate(std::size_t max_work) {
  std::size_t work = 0;
  while (!pending_.empty() || !dirty_.empty()) {
    if (max_work != 0 && ++work > max_work) {
      clear_queues();
      return true;
    }
    ++stats_.probe_work;
    if (!pending_.empty()) {
      const std::uint32_t l = pending_.back();
      pending_.pop_back();
      if (!assign(l >> 1, (l & 1) != 0 ? k1 : k0)) return false;
    } else if (!dirty_.empty()) {
      const GateId g = dirty_.back();
      dirty_.pop_back();
      in_dirty_[g] = 0;  // examine may legitimately re-dirty g
      if (!examine(g)) return false;
    }
  }
  return true;
}

// One probe: assume g=v on top of the committed constants, propagate to
// closure. Leaves the trail in place (caller inspects it for learning,
// then calls undo()). False on conflict.
bool StaticAnalyzer::imply(GateId g, std::uint8_t v) {
  ++stats_.imply_calls;
  clear_queues();
  const bool ok = assign(g, v) && propagate(probe_cap_);
  if (!ok) clear_queues();
  return ok;
}

void StaticAnalyzer::undo() {
  for (GateId g : trail_) val_[g] = base_[g];
  trail_.clear();
}

// Permanently installs g=v (a proven constant) into the baseline and
// re-propagates. Conflicts cannot occur here by construction (the opposite
// phase was just refuted and this phase implied cleanly).
void StaticAnalyzer::commit(GateId g, std::uint8_t v) {
  // Committed constants propagate uncapped: there are at most as many
  // commits as constants, so this cannot go quadratic.
  clear_queues();
  if (assign(g, v) && propagate(0)) {
    for (GateId t : trail_) {
      if (base_[t] == kX) ++stats_.constants_found;
      base_[t] = val_[t];
    }
    trail_.clear();
  } else {
    // Both phases refuted: unreachable logic (impossible on an acyclic
    // netlist; defensive classification only).
    undo();
    clear_queues();
    contradiction_[g] = 1;
  }
}

// --- phase probing + contrapositive learning --------------------------------

void StaticAnalyzer::run_probing(const StaOptions& opt) {
  std::size_t learned_total = 0;
  probe_cap_ = opt.max_probe_work;
  // adjacent[b] == epoch marks g, its fanins and its fanouts for the probe
  // of g being learned from.
  std::vector<std::uint32_t> adjacent(cn_.size(), 0);
  std::uint32_t epoch = 0;

  // Collects contrapositives of the literals the last imply() derived:
  // (g=v -> b=w) becomes (b=~w -> g=~v). Adjacent pairs are skipped -- the
  // direct rules re-derive those for free.
  auto learn_from_trail = [&](GateId g, std::uint8_t v) {
    if (!opt.learn || learned_total >= opt.max_learned) return;
    ++epoch;
    adjacent[g] = epoch;
    for (GateId w : cn_.fanin(g)) adjacent[w] = epoch;
    for (GateId w : cn_.fanout(g)) adjacent[w] = epoch;
    const std::uint32_t consequent = lit(g, neg(v));
    for (GateId b : trail_) {
      if (adjacent[b] == epoch) continue;
      const std::uint32_t key = lit(b, neg(val_[b]));
      // A key holds at most max_learned_per_literal edges, so a linear
      // scan is the whole dedupe.
      auto& edges = learned_[key];
      if (edges.size() >= opt.max_learned_per_literal) continue;
      if (std::find(edges.begin(), edges.end(), consequent) != edges.end()) {
        continue;
      }
      edges.push_back(consequent);
      ++learned_total;
      ++stats_.implications_learned;
      if (learned_total >= opt.max_learned) break;
    }
  };

  const int rounds = std::max(1, opt.max_learn_rounds);
  bool progress = true;
  for (int round = 0; round < rounds && progress; ++round) {
    progress = false;
    ++stats_.fixpoint_iterations;
    const std::size_t learned_before = learned_total;
    int since_poll = 0;
    for (GateId g : cn_.topo()) {
      if (!probe_worthy(cn_.type(g))) continue;
      if (base_[g] != kX || contradiction_[g] != 0) continue;
      if (opt.budget.limited() && ++since_poll >= 64) {
        since_poll = 0;
        const guard::RunStatus st = opt.budget.poll();
        if (st != guard::RunStatus::Completed) {
          stats_.status = st;
          return;
        }
      }
      const bool ok0 = imply(g, k0);
      if (ok0) learn_from_trail(g, k0);
      undo();
      const bool ok1 = imply(g, k1);
      if (ok1) learn_from_trail(g, k1);
      undo();
      if (!ok0 && !ok1) {
        contradiction_[g] = 1;
        progress = true;
      } else if (!ok0) {
        commit(g, k1);
        progress = true;
      } else if (!ok1) {
        commit(g, k0);
        progress = true;
      }
    }
    if (learned_total != learned_before) progress = true;
  }
}

// --- observability ----------------------------------------------------------

// True when a fault effect arriving at fanin pin `pin` of gate `h` is
// statically blocked from changing h's output. With `cone` null, only
// origin-independent facts are used (the duplicate-line parity rule and --
// pessimistically -- every constant side input). With `cone` set, a
// constant side input only blocks when its driver lies OUTSIDE the fault
// origin's fanout cone; a constant inside the cone may be flipped by the
// very fault under analysis and proves nothing.
bool StaticAnalyzer::edge_blocked(GateId h, std::size_t pin,
                                  const std::vector<std::uint8_t>* cone)
    const {
  const GateType t = cn_.type(h);
  const auto fi = cn_.fanin(h);
  const GateId w = fi[pin];

  auto side_const = [&](std::size_t q, std::uint8_t v) {
    const GateId d = fi[q];
    if (base_[d] != v) return false;
    return cone == nullptr || (*cone)[d] == 0;
  };

  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Tristate:
      for (std::size_t q = 0; q < fi.size(); ++q) {
        if (q != pin && side_const(q, k0)) return true;
      }
      return false;
    case GateType::Or:
    case GateType::Nor:
    case GateType::Bus:
      if (t == GateType::Bus && fi.size() == 1) return false;
      for (std::size_t q = 0; q < fi.size(); ++q) {
        if (q != pin && side_const(q, k1)) return true;
      }
      return false;
    case GateType::Xor:
    case GateType::Xnor: {
      // The same faulty line on an even number of pins cancels its own
      // effect out of the parity -- exact regardless of origin.
      int mult = 0;
      for (GateId d : fi) mult += d == w ? 1 : 0;
      return mult % 2 == 0;
    }
    case GateType::Mux: {
      if (pin == static_cast<std::size_t>(kMuxPinA)) {
        return side_const(kMuxPinSel, k1);
      }
      if (pin == static_cast<std::size_t>(kMuxPinB)) {
        return side_const(kMuxPinSel, k0);
      }
      // Select-line effect: invisible when both data inputs always agree.
      if (fi[kMuxPinA] == fi[kMuxPinB]) return true;
      return base_[fi[kMuxPinA]] != kX &&
             base_[fi[kMuxPinA]] == base_[fi[kMuxPinB]] &&
             (cone == nullptr ||
              ((*cone)[fi[kMuxPinA]] == 0 && (*cone)[fi[kMuxPinB]] == 0));
    }
    default:
      return false;  // Buf/Not/Output: single input, never blocked
  }
}

// Exact per-origin check for candidate gates: DFS toward the observation
// points with constant-blocking restricted to side inputs outside the
// origin's fanout cone. Optimistic (returns true) is the sound direction.
bool StaticAnalyzer::exact_observable(GateId origin,
                                      std::vector<std::uint8_t>& cone,
                                      std::vector<std::uint8_t>& seen,
                                      std::vector<GateId>& stack) const {
  // Fanout cone of the origin: every line the fault could corrupt within
  // one combinational frame (storage outputs are next-frame, Outputs sink).
  std::fill(cone.begin(), cone.end(), 0);
  std::fill(seen.begin(), seen.end(), 0);
  stack.clear();
  cone[origin] = 1;
  stack.push_back(origin);
  while (!stack.empty()) {
    const GateId u = stack.back();
    stack.pop_back();
    if (u != origin && !is_combinational(cn_.type(u))) continue;
    if (cn_.type(u) == GateType::Output) continue;
    for (GateId f : cn_.fanout(u)) {
      if (cone[f] == 0) {
        cone[f] = 1;
        stack.push_back(f);
      }
    }
  }

  // DFS from the origin over sensitizable edges.
  stack.clear();
  seen[origin] = 1;
  stack.push_back(origin);
  while (!stack.empty()) {
    const GateId u = stack.back();
    stack.pop_back();
    if (cn_.type(u) == GateType::Output || drives_storage_d_[u] != 0) {
      return true;
    }
    for (GateId h : cn_.fanout(u)) {
      if (seen[h] != 0 || !is_combinational(cn_.type(h))) continue;
      const auto fi = cn_.fanin(h);
      bool traversable = false;
      for (std::size_t p = 0; p < fi.size() && !traversable; ++p) {
        if (fi[p] == u && !edge_blocked(h, p, &cone)) traversable = true;
      }
      if (traversable) {
        seen[h] = 1;
        stack.push_back(h);
      }
    }
  }
  return false;
}

void StaticAnalyzer::run_observability(const StaOptions& opt) {
  const std::size_t n = cn_.size();
  observable_.assign(n, 0);
  drives_storage_d_.assign(n, 0);
  for (GateId g = 0; g < n; ++g) {
    if (is_storage(cn_.type(g))) {
      const auto fi = cn_.fanin(g);
      if (!fi.empty()) drives_storage_d_[fi[kStoragePinD]] = 1;
    }
  }

  // Two reverse sweeps from the observation points:
  //   plain   -- pure reachability; not reachable => proven unobservable.
  //   blocked -- every constant-blocked edge removed, ignoring origins;
  //              still reachable => a fully unblockable path exists, so
  //              observable for EVERY origin.
  // Gates reachable plain but not blocked get the exact per-origin check.
  auto reverse_sweep = [&](bool use_blocking, std::vector<std::uint8_t>& out) {
    out.assign(n, 0);
    std::vector<GateId> stack;
    for (GateId g = 0; g < n; ++g) {
      if (cn_.type(g) == GateType::Output || drives_storage_d_[g] != 0) {
        if (out[g] == 0) {
          out[g] = 1;
          stack.push_back(g);
        }
      }
    }
    while (!stack.empty()) {
      const GateId u = stack.back();
      stack.pop_back();
      if (!is_combinational(cn_.type(u))) continue;
      const auto fi = cn_.fanin(u);
      for (std::size_t p = 0; p < fi.size(); ++p) {
        const GateId w = fi[p];
        if (out[w] != 0) continue;
        if (use_blocking && edge_blocked(u, p, nullptr)) continue;
        out[w] = 1;
        stack.push_back(w);
      }
    }
  };

  std::vector<std::uint8_t> plain, unblocked;
  reverse_sweep(false, plain);
  reverse_sweep(true, unblocked);

  std::vector<std::uint8_t> cone(n), seen(n);
  std::vector<GateId> stack;
  int since_poll = 0;
  for (GateId g = 0; g < n; ++g) {
    if (unblocked[g] != 0) {
      observable_[g] = 1;
    } else if (plain[g] == 0) {
      observable_[g] = 0;
    } else {
      if (opt.budget.limited() && ++since_poll >= 32) {
        since_poll = 0;
        const guard::RunStatus st = opt.budget.poll();
        if (st != guard::RunStatus::Completed) {
          stats_.status = guard::worst(stats_.status, st);
          // Out of budget: the optimistic default is the sound one.
          for (GateId r = g; r < n; ++r) observable_[r] = 1;
          return;
        }
      }
      observable_[g] = exact_observable(g, cone, seen, stack) ? 1 : 0;
    }
  }
}

// --- construction / queries -------------------------------------------------

void StaticAnalyzer::build_odd_drivers() {
  const std::size_t n = cn_.size();
  odd_offset_.assign(n + 1, 0);
  std::vector<std::uint8_t> odd(n, 0);  // pin-count parity per driver
  for (GateId g = 0; g < n; ++g) {
    const GateType t = cn_.type(g);
    if (t == GateType::Xor || t == GateType::Xnor) {
      const auto fi = cn_.fanin(g);
      for (GateId w : fi) odd[w] ^= 1;
      for (GateId w : fi) {
        if (odd[w] != 0) {  // first pin of an odd driver; cleared after
          odd_drivers_.push_back(w);
          odd[w] = 0;
        }
      }
    }
    odd_offset_[g + 1] = static_cast<std::uint32_t>(odd_drivers_.size());
  }
}

StaticAnalyzer::StaticAnalyzer(const Netlist& nl, const StaOptions& opt)
    : cn_(nl) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = cn_.size();
  base_.assign(n, kX);
  val_.assign(n, kX);
  contradiction_.assign(n, 0);
  learned_.assign(n * 2, {});
  in_dirty_.assign(n, 0);
  observable_.assign(n, 1);
  build_odd_drivers();

  // Baseline: propagate the literal constants. Conflicts are impossible
  // here (constant propagation through well-formed gates), but commit()
  // degrades defensively if one ever appears.
  clear_queues();
  bool ok = true;
  for (GateId g = 0; g < n && ok; ++g) {
    if (cn_.type(g) == GateType::Const0) ok = assign(g, k0);
    if (cn_.type(g) == GateType::Const1) ok = assign(g, k1);
  }
  if (ok) ok = propagate(0);
  if (ok) {
    for (GateId t : trail_) {
      base_[t] = val_[t];
      ++stats_.constants_found;
    }
    trail_.clear();
  } else {
    undo();
  }

  run_probing(opt);
  if (stats_.status == guard::RunStatus::Completed) {
    run_observability(opt);
  }

  for (GateId g = 0; g < n; ++g) {
    if (observable_[g] == 0) ++stats_.unobservable_gates;
  }
  const auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  stats_.elapsed_ms = elapsed_us / 1000;

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("sta.imply_calls")
        .add(static_cast<std::uint64_t>(stats_.imply_calls));
    reg.counter("sta.implications_learned")
        .add(static_cast<std::uint64_t>(stats_.implications_learned));
    reg.counter("sta.fixpoint_iterations")
        .add(static_cast<std::uint64_t>(stats_.fixpoint_iterations));
    reg.counter("sta.constants_found")
        .add(static_cast<std::uint64_t>(stats_.constants_found));
    reg.counter("sta.unobservable_gates")
        .add(static_cast<std::uint64_t>(stats_.unobservable_gates));
    reg.counter("sta.probe_work")
        .add(static_cast<std::uint64_t>(stats_.probe_work));
    // One sample per build: concurrent builds each keep their own time.
    reg.timer("sta.build").record(static_cast<std::uint64_t>(elapsed_us));
  }
}

bool StaticAnalyzer::untestable(const Fault& f) const {
  const GateId g = f.gate;
  if (g >= cn_.size()) return false;
  const GateType t = cn_.type(g);
  const std::uint8_t sv = f.sa1 ? k1 : k0;

  if (f.pin < 0) {
    // Output-net fault: activation needs the line at the opposite value;
    // detection needs a sensitizable path onward.
    if (t == GateType::Output) return false;  // not in the fault universe
    if (contradiction_[g] != 0) return true;
    if (base_[g] == sv) return true;
    return observable_[g] == 0;
  }

  const auto fi = cn_.fanin(g);
  if (static_cast<std::size_t>(f.pin) >= fi.size()) return false;
  const GateId d = fi[f.pin];

  // Activation: the driving line must be able to take the opposite value.
  if (base_[d] == sv) return true;
  if (contradiction_[d] != 0) return true;

  if (is_storage(t)) {
    // D-pin faults are observed directly at scan capture; activation was
    // the only static obstacle. (Scan-in pins are not enumerated.)
    return false;
  }
  if (t == GateType::Output) return false;

  // Propagation through the fault's own gate. A constant side pin at the
  // controlling value blocks unconditionally: g's fanins can never lie in
  // g's own fanout cone on an acyclic netlist.
  Logic cv_logic = Logic::X;
  if (controlling_value(t, cv_logic)) {
    const std::uint8_t c = code_of(cv_logic);
    for (std::size_t q = 0; q < fi.size(); ++q) {
      if (q != static_cast<std::size_t>(f.pin) && base_[fi[q]] == c) {
        return true;
      }
    }
    // Duplicate driver: activation pins the shared line to the controlling
    // value, so the unfaulted sibling pin kills the effect in the gate.
    if (neg(sv) == c) {
      for (std::size_t q = 0; q < fi.size(); ++q) {
        if (q != static_cast<std::size_t>(f.pin) && fi[q] == d) return true;
      }
    }
  }
  if (t == GateType::Mux) {
    if (f.pin == kMuxPinA && base_[fi[kMuxPinSel]] == k1) return true;
    if (f.pin == kMuxPinB && base_[fi[kMuxPinSel]] == k0) return true;
    if (f.pin == kMuxPinSel) {
      if (fi[kMuxPinA] == fi[kMuxPinB]) return true;
      if (base_[fi[kMuxPinA]] != kX &&
          base_[fi[kMuxPinA]] == base_[fi[kMuxPinB]]) {
        return true;
      }
    }
  }
  if (t == GateType::Tristate && f.pin == kTristatePinEnable &&
      base_[fi[kTristatePinData]] == k0) {
    // Pull-down model: out = data AND enable; data stuck low hides the
    // enable line entirely. (The data-pin direction is the generic
    // controlling-value case above.)
    return true;
  }

  return observable_[g] == 0;
}

std::vector<Fault> StaticAnalyzer::untestable_faults(
    const std::vector<Fault>& faults) const {
  std::vector<Fault> out;
  for (const Fault& f : faults) {
    if (untestable(f)) out.push_back(f);
  }
  return out;
}

}  // namespace dft::sta
