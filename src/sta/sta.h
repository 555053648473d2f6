// dft::sta -- static structural analysis: implications, learning, and
// fault-independent untestability (SOCRATES/FIRE style).
//
// The survey's thesis is that testability is a property of structure, and
// the expensive way to discover an untestable fault -- exhausting a PODEM
// search -- is exactly what good design-for-testability avoids. This module
// derives the same verdicts without search:
//
//  1. Direct implications. Line values in {0,1,X} propagate through each
//     gate type in both directions (controlling values forward, unique
//     justifications backward), with duplicate-fanin multiplicity handled
//     so XOR(a,a)-style constants are seen: each XOR/XNOR keeps only the
//     drivers it reads an odd number of times.
//  2. Phase probing + static learning. For every line g, imply(g=0) and
//     imply(g=1) are tried; a contradiction proves the opposite constant.
//     Every derived literal b=w yields the contrapositive law
//     (g=v -> b=w) => (b=~w -> g=~v); learned edges feed later imply runs
//     and the whole loop iterates to a fixpoint under a guard::Budget.
//  3. Untestability. A stuck-at fault is statically untestable when its
//     activation value is unreachable (the line is constant at the stuck
//     value), the effect is blocked at its own gate (a constant side input
//     at the controlling value, or a duplicate-driver conflict), or no
//     sensitizable path to an observation point survives the constants
//     (FIRE-style propagation analysis with reconvergence handled by
//     fanout-cone exclusion).
//
// Soundness contract: the analysis may MISS redundancies, but must never
// call a testable fault untestable. Every implication rule is valid in both
// logic models the repo uses (the Z-aware eval_gate and the pull-down
// D-calculus of PODEM/fault-sim), so a fault proven untestable here is
// guaranteed to come back AtpgStatus::Redundant from an unbounded PODEM
// search -- run_atpg exploits exactly that to pre-classify faults without
// searching, with bit-identical final coverage.
//
// Results land in obs as "sta.*" counters/values when observability is on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "guard/guard.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace dft::sta {

// What the analysis established about one line (gate output net).
enum class LineConst : std::uint8_t {
  Free,           // not proven constant
  Zero,           // every consistent assignment drives the line to 0
  One,            // every consistent assignment drives the line to 1
  Contradiction,  // both phases refuted (unreachable logic; cannot occur on
                  // the acyclic netlists CompiledNetlist accepts, kept as a
                  // defensive classification)
};

struct StaOptions {
  // Run the contrapositive-learning fixpoint loop (phase probing alone
  // still finds constants; learning finds more).
  bool learn = true;
  // Probing/learning rounds before declaring fixpoint. Round counts beyond
  // the natural fixpoint cost nothing (the loop stops when no new fact is
  // derived).
  int max_learn_rounds = 2;
  // Cap on stored learned implication edges (memory guard on adversarial
  // structures; hitting the cap degrades precision, never soundness).
  std::size_t max_learned = 65536;
  // Cap on learned edges sharing one antecedent literal. High-fanout lines
  // (inputs especially) appear in almost every probe's closure, so their
  // contrapositive keys would otherwise accumulate thousands of
  // consequents -- and every later probe assigning that literal pays to
  // fire them all. Skipped edges lose precision, never soundness.
  std::size_t max_learned_per_literal = 64;
  // Cap on propagation work (queue pops: gate examinations plus learned-
  // literal firings) per probe. Unbounded probing is quadratic in circuit
  // size (every probe can flood its whole fanout cone), and assignments
  // alone do not bound the cost -- one assignment to a high-fanout line
  // schedules every sink for examination. Truncating a probe's closure can
  // only MISS a conflict -- a missed conflict means a missed constant,
  // never a wrong one -- so any cap is sound. 0 = unlimited.
  std::size_t max_probe_work = 4096;
  // Cooperative budget: polled between probes and between observability
  // checks. Expiry yields a valid partial analysis -- constants found so
  // far are kept, unresolved lines stay Free and unresolved gates stay
  // observable, both of which are the sound (optimistic) default.
  guard::Budget budget;
};

struct StaStats {
  long long imply_calls = 0;           // probe imply() runs
  long long implications_learned = 0;  // stored contrapositive edges
  int fixpoint_iterations = 0;         // probing rounds actually run
  int constants_found = 0;             // lines proven Zero/One
  int unobservable_gates = 0;          // lines with no sensitizable path
  long long probe_work = 0;            // propagation queue pops, all probes
  long long elapsed_ms = 0;            // analysis wall clock
  guard::RunStatus status = guard::RunStatus::Completed;
};

// One-shot analyzer: all analysis happens in the constructor; queries are
// const and O(1) per line / O(pins) per fault afterwards. Throws
// std::runtime_error on a combinational cycle (like CompiledNetlist).
// A constructed analyzer may be shared read-only across threads: every
// query is const and the class has no mutable state, so concurrent queries
// need no lock (jobs::CompiledCircuit::analyzer shares one per circuit).
class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(const Netlist& nl, const StaOptions& opt = {});

  std::size_t size() const { return cn_.size(); }

  // Constant verdict for the output net of gate g.
  LineConst constant(GateId g) const { return const_of(g); }

  // True when a fault effect originating at g's output net could possibly
  // reach an observation point (a primary output or a storage D pin).
  // False is a proof of unobservability; true is no claim.
  bool observable(GateId g) const { return observable_[g] != 0; }

  // True when `f` is statically proven untestable (see header comment for
  // the exact conditions). Never true for a PODEM-testable fault.
  bool untestable(const Fault& f) const;

  // The statically untestable subset of `faults`, in input order.
  std::vector<Fault> untestable_faults(const std::vector<Fault>& faults) const;

  const StaStats& stats() const { return stats_; }

 private:
  static constexpr std::uint8_t kX = 0, k0 = 1, k1 = 2;
  static std::uint8_t neg(std::uint8_t v) {
    return v == kX ? kX : (v == k0 ? k1 : k0);
  }
  static std::uint32_t lit(GateId g, std::uint8_t v) {
    return (g << 1) | (v == k1 ? 1u : 0u);
  }

  LineConst const_of(GateId g) const;

  bool assign(GateId g, std::uint8_t v);
  void push_dirty(GateId g);
  void clear_queues();
  bool examine(GateId g);
  bool propagate(std::size_t max_work);
  bool imply(GateId g, std::uint8_t v);
  void undo();
  void commit(GateId g, std::uint8_t v);

  std::span<const GateId> odd_drivers(GateId g) const {
    return {odd_drivers_.data() + odd_offset_[g],
            odd_drivers_.data() + odd_offset_[g + 1]};
  }
  void build_odd_drivers();
  void run_probing(const StaOptions& opt);
  void run_observability(const StaOptions& opt);
  bool edge_blocked(GateId h, std::size_t pin,
                    const std::vector<std::uint8_t>* cone) const;
  bool exact_observable(GateId origin, std::vector<std::uint8_t>& cone,
                        std::vector<std::uint8_t>& seen,
                        std::vector<GateId>& stack) const;

  CompiledNetlist cn_;
  std::vector<std::uint8_t> base_;  // committed constants ({kX,k0,k1})
  std::vector<std::uint8_t> val_;   // scratch values during imply()
  std::vector<std::uint8_t> contradiction_;
  std::vector<GateId> trail_;       // assignments to undo
  std::vector<GateId> dirty_;       // gates awaiting examine()
  std::vector<std::uint8_t> in_dirty_;  // dedupe bitmap for dirty_
  // CSR over gates: the distinct drivers an XOR/XNOR reads an odd number
  // of times (empty for every other type). Even-multiplicity drivers cancel
  // out of the parity, known or not.
  std::vector<std::uint32_t> odd_offset_;
  std::vector<GateId> odd_drivers_;
  std::vector<std::uint32_t> pending_;  // learned consequents to assign
  // learned_[lit] -> consequent literals (contrapositive edges).
  std::vector<std::vector<std::uint32_t>> learned_;
  std::size_t probe_cap_ = 0;  // per-probe work cap (0 = unlimited)
  std::vector<std::uint8_t> observable_;
  std::vector<std::uint8_t> drives_storage_d_;
  StaStats stats_;
};

}  // namespace dft::sta
