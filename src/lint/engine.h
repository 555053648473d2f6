// LintEngine: the rule registry and driver (Sec. IV-A: "these design rules
// are enforced by software").
//
// The engine owns a set of LintRule instances — the built-in scan,
// structural, and testability families by default — each individually
// enable/disable-able by id or by category. run() walks the netlist once
// per enabled rule, stamps every diagnostic with the rule's identity, caps
// per-rule noise, and returns a sorted LintReport (errors first).
//
// Unlike Netlist::validate(), the engine never throws on a broken netlist:
// broken netlists are its subject matter.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "lint/rule.h"

namespace dft {

class LintEngine {
 public:
  // Registers every built-in rule family, all enabled.
  LintEngine();

  LintOptions& options() { return options_; }
  const LintOptions& options() const { return options_; }

  // Registers a custom rule (enabled); throws std::invalid_argument on a
  // duplicate id.
  void add_rule(std::unique_ptr<LintRule> rule);

  // Throws std::invalid_argument on an unknown rule id.
  void set_enabled(std::string_view rule_id, bool on);
  void set_category_enabled(std::string_view category, bool on);
  bool is_enabled(std::string_view rule_id) const;

  const LintRule* find_rule(std::string_view rule_id) const;  // null if absent
  std::vector<const LintRule*> rules() const;  // registration order

  // `sta`, when given, is a complete analysis of `nl` at default
  // StaOptions (for instance jobs::CompiledCircuit::analyzer()); the
  // redundancy rules read it instead of building their own, and the report
  // is the same.
  LintReport run(const Netlist& nl,
                 const sta::StaticAnalyzer* sta = nullptr) const;

 private:
  std::size_t index_of(std::string_view rule_id) const;  // throws if unknown

  std::vector<std::unique_ptr<LintRule>> rules_;
  std::vector<char> enabled_;
  LintOptions options_;
};

// Convenience: all built-in rules, default options, `sta` as for run().
LintReport lint_netlist(const Netlist& nl,
                        const sta::StaticAnalyzer* sta = nullptr);

// Scan-readiness subset only; with require_all_scanned=false the presence of
// unconverted flip-flops (SCAN-001) is tolerated, which is what a partial
// scan leaves behind. Used as the insert_scan post-condition.
LintReport lint_scan_rules(const Netlist& nl, bool require_all_scanned = true);

}  // namespace dft
