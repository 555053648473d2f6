// Lint rule interface and the shared analysis context rules draw on.
//
// Rules are purely structural: they walk the netlist without simulating it.
// The LintContext holds analyses several rules share (fanout lists, cycle
// membership, SCOAP/COP measures, a borrowed or own sta analysis) and —
// unlike the Netlist's own caches — stays usable on *broken* netlists: it
// never calls Netlist::topo_order(), which throws on combinational cycles,
// because reporting exactly those netlists is the point of a checker.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "lint/diagnostic.h"
#include "measure/cop.h"
#include "measure/scoap.h"
#include "netlist/netlist.h"
#include "sta/sta.h"

namespace dft {

struct LintOptions {
  // TEST-001: flag nets whose SCOAP difficulty (worst CC + CO) exceeds this
  // (Sec. II: high numbers mark nets needing test points or scan).
  long long scoap_difficulty_threshold = 100;
  // TEST-002: flag nets whose per-random-pattern detection probability falls
  // below this floor (Sec. V-A: a fan-in-20 product term sits at ~2^-20).
  double cop_detectability_floor = 1e-4;
  // Per-rule cap on emitted diagnostics; excess findings are summarized.
  std::size_t max_diagnostics_per_rule = 64;
};

// Shared, lazily computed analyses over one netlist.
class LintContext {
 public:
  // `shared_sta`, when given, is a complete analysis of `netlist` at default
  // StaOptions that sta() returns instead of building its own.
  LintContext(const Netlist& netlist, const LintOptions& options,
              const sta::StaticAnalyzer* shared_sta = nullptr);

  const Netlist& nl;
  const LintOptions& opt;

  // Fanout lists computed locally (valid even when the netlist is cyclic).
  const std::vector<GateId>& fanout(GateId g) const { return fanouts_[g]; }

  // Gates on combinational cycles, grouped per strongly connected component.
  const std::vector<std::vector<GateId>>& comb_cycles();
  bool has_comb_cycle() { return !comb_cycles().empty(); }

  // Testability measures; nullptr when the netlist is cyclic (the measures
  // need a topological order).
  const ScoapResult* scoap();
  const CopResult* cop();

  // Static structural analysis (dft::sta) for the redundancy rules;
  // nullptr when the netlist is cyclic. The shared analyzer when one was
  // given, otherwise built on first use -- netlists that only run the cheap
  // rule families never pay for it.
  const sta::StaticAnalyzer* sta();

 private:
  std::vector<std::vector<GateId>> fanouts_;
  std::optional<std::vector<std::vector<GateId>>> cycles_;
  std::optional<ScoapResult> scoap_;
  std::optional<CopResult> cop_;
  const sta::StaticAnalyzer* sta_;
  std::unique_ptr<sta::StaticAnalyzer> own_sta_;
  bool scoap_tried_ = false;
  bool cop_tried_ = false;
  bool sta_tried_ = false;
};

// One design rule. Implementations live in rules_*.cpp; the engine stamps
// id/severity/category/paper onto every diagnostic a rule emits, so check()
// only fills message, fix hint, and offending gates.
class LintRule {
 public:
  virtual ~LintRule() = default;

  virtual std::string_view id() const = 0;        // "SCAN-001"
  virtual std::string_view title() const = 0;     // short rule name
  virtual Severity severity() const = 0;
  virtual std::string_view category() const = 0;  // scan|structural|testability
  virtual std::string_view paper() const = 0;     // section enforced

  virtual void check(LintContext& ctx, std::vector<Diagnostic>& out) const = 0;
};

// Rule-family factories (each returns the family's rules in id order).
std::vector<std::unique_ptr<LintRule>> make_scan_rules();
std::vector<std::unique_ptr<LintRule>> make_structural_rules();
std::vector<std::unique_ptr<LintRule>> make_testability_rules();
std::vector<std::unique_ptr<LintRule>> make_redundancy_rules();

}  // namespace dft
