// PODEM (path-oriented decision making) deterministic test generation.
//
// The survey's structured techniques exist precisely to make this viable:
// "the test generation problem [is] completely reduced to one of generating
// tests for combinational logic" (Sec. I). PODEM searches over primary-input
// (and pseudo-primary-input, i.e. scan flip-flop) assignments only, with
// SCOAP-guided backtrace, an X-path check, and a backtrack limit.
//
// Outcomes are exact: TestFound (with the generated cube), Redundant (the
// search space is exhausted -- the fault is untestable), or Aborted (limit
// hit).
//
// Implication is event-driven. The constructor compiles the netlist once
// into a CompiledNetlist, and every search step reads only its CSR spans:
//   * generate() evaluates every gate once, with the fault injected, at
//     the start of each fault's search. After that, a source whose
//     assignment changes (a decision, a flip, or an unassign back to X)
//     schedules its combinational fanouts on a level wheel; each scheduled
//     gate is evaluated once when its level comes up, and schedules its own
//     fanouts only when its 5-valued value changed. Values are a pure
//     function of the assignment, so re-evaluating from the changed sources
//     also restores them on backtrack; no trail is kept.
//   * An error set -- the gates holding D or Dbar, plus how many of them are
//     observation points -- is kept in step with the values. Detection is a
//     counter test, and the X-path check and the D-frontier scan walk only
//     the fanouts of error gates (plus the faulted gate for a pin fault).
//   * The X-path search marks visited gates with an epoch stamp, so it
//     allocates nothing per call.
// The search itself -- objective, backtrace and their tie-breaks (lowest
// SCOAP CO on the D-frontier, lowest id on a tie) -- is the classic one, so
// decisions, backtracks and implications match a full-netlist re-simulation
// step for step.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/dvalue.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "guard/guard.h"
#include "measure/scoap.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace dft {

enum class AtpgStatus { TestFound, Redundant, Aborted };

struct AtpgOutcome {
  AtpgStatus status = AtpgStatus::Aborted;
  // Test cube over sources (inputs then storage); unassigned entries are X.
  SourceVector pattern;
  int backtracks = 0;
  int decisions = 0;     // source assignments tried (search-tree nodes)
  int implications = 0;  // forward implication passes
  // Completed for a normal search exit (including limit-hit Aborted);
  // DeadlineExpired/Cancelled when a budget cut the search short -- the
  // status above is then Aborted, but the fault was NOT proven hard.
  guard::RunStatus run_status = guard::RunStatus::Completed;
};

class Podem {
 public:
  explicit Podem(const Netlist& nl, int backtrack_limit = 20000);
  explicit Podem(Netlist&&, int = 0) = delete;  // would dangle

  // Optional cooperative budget, polled every few implication passes inside
  // generate(); the pointee must outlive the Podem (or be reset to null).
  void set_budget(const guard::Budget* budget) { budget_ = budget; }

  AtpgOutcome generate(const Fault& fault);

  const Netlist& netlist() const { return *nl_; }

 private:
  struct Decision {
    std::size_t source_index;
    bool tried_both;
  };

  // Starts a fault's search: every value recomputed with `f` injected, the
  // error set rebuilt, pending events dropped.
  void full_pass(const Fault& f);
  // Binds source `si` to `v` and schedules its fanouts if its value moved.
  void assign(std::size_t si, Logic v);
  // Drains the level wheel: forward implication of the pending changes.
  void propagate();
  DVal source_value(std::size_t si) const;
  DVal eval(GateId g) const;
  void set_value(GateId g, DVal v);
  void schedule_fanouts(GateId g);

  bool fault_detected(const Fault& f) const;
  // True when the fault can no longer be excited under current assignments.
  bool excitation_impossible(const Fault& f) const;
  bool x_path_exists(const Fault& f) const;
  // Next objective (net, value) or false if none (needs backtrack).
  bool objective(const Fault& f, GateId& net, Logic& value) const;
  // Maps an objective to a source assignment; false on failure.
  bool backtrace(GateId net, Logic value, std::size_t& source_index,
                 bool& set_to_one) const;

  const Netlist* nl_;
  int backtrack_limit_;
  const guard::Budget* budget_ = nullptr;
  CompiledNetlist cn_;
  ScoapResult scoap_;
  std::vector<GateId> sources_;
  std::vector<GateId> constants_;
  std::vector<int> source_index_of_;  // GateId -> index in sources_, or -1
  std::vector<Logic> assignment_;    // per source: 0/1/X
  std::vector<DVal> values_;         // per gate
  std::vector<char> observe_;        // gate drives a PO or a storage D pin

  // The fault being searched, as the evaluator injects it.
  GateId fault_gate_ = kNoGate;
  int fault_pin_ = -1;
  Logic stuck_ = Logic::Zero;

  // Level wheel: wheel_[l] holds the scheduled gates of level l, and
  // levels [wheel_lo_, wheel_hi_] may be non-empty.
  std::vector<std::vector<GateId>> wheel_;
  std::vector<char> queued_;
  int wheel_lo_ = 0;
  int wheel_hi_ = -1;
  std::uint64_t gate_evals_ = 0;  // this generate() call

  // Error set: the gates holding D/Dbar, each member's slot in it, and how
  // many of them are observation points.
  std::vector<GateId> errors_;
  std::vector<std::uint32_t> error_slot_;
  int errors_observed_ = 0;

  // X-path search scratch: a gate is visited when seen_[g] == epoch_.
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<GateId> xpath_stack_;
};

}  // namespace dft
