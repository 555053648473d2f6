#include "lint/engine.h"

#include <algorithm>
#include <stdexcept>

namespace dft {

LintEngine::LintEngine() {
  auto install = [this](std::vector<std::unique_ptr<LintRule>> family) {
    for (auto& r : family) add_rule(std::move(r));
  };
  install(make_scan_rules());
  install(make_structural_rules());
  install(make_testability_rules());
  install(make_redundancy_rules());
}

void LintEngine::add_rule(std::unique_ptr<LintRule> rule) {
  for (const auto& r : rules_) {
    if (r->id() == rule->id()) {
      throw std::invalid_argument("duplicate lint rule id: " +
                                  std::string(rule->id()));
    }
  }
  rules_.push_back(std::move(rule));
  enabled_.push_back(1);
}

std::size_t LintEngine::index_of(std::string_view rule_id) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->id() == rule_id) return i;
  }
  throw std::invalid_argument("unknown lint rule id: " + std::string(rule_id));
}

void LintEngine::set_enabled(std::string_view rule_id, bool on) {
  enabled_[index_of(rule_id)] = on ? 1 : 0;
}

void LintEngine::set_category_enabled(std::string_view category, bool on) {
  bool any = false;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->category() == category) {
      enabled_[i] = on ? 1 : 0;
      any = true;
    }
  }
  if (!any) {
    throw std::invalid_argument("unknown lint category: " +
                                std::string(category));
  }
}

bool LintEngine::is_enabled(std::string_view rule_id) const {
  return enabled_[index_of(rule_id)] != 0;
}

const LintRule* LintEngine::find_rule(std::string_view rule_id) const {
  for (const auto& r : rules_) {
    if (r->id() == rule_id) return r.get();
  }
  return nullptr;
}

std::vector<const LintRule*> LintEngine::rules() const {
  std::vector<const LintRule*> out;
  out.reserve(rules_.size());
  for (const auto& r : rules_) out.push_back(r.get());
  return out;
}

LintReport LintEngine::run(const Netlist& nl,
                           const sta::StaticAnalyzer* sta) const {
  LintReport report;
  report.netlist = nl.name();
  report.gate_count = nl.size();
  LintContext ctx(nl, options_, sta);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (!enabled_[i]) continue;
    const LintRule& rule = *rules_[i];
    std::vector<Diagnostic> found;
    rule.check(ctx, found);
    const std::size_t cap = options_.max_diagnostics_per_rule;
    if (found.size() > cap) {
      const std::size_t dropped = found.size() - cap;
      found.resize(cap);
      found.back().message +=
          "; " + std::to_string(dropped) + " similar finding(s) suppressed";
    }
    for (Diagnostic& d : found) {
      d.rule = rule.id();
      d.severity = rule.severity();
      d.category = rule.category();
      d.paper = rule.paper();
      report.diagnostics.push_back(std::move(d));
    }
  }
  // Deterministic total order: severity (errors first), rule id, offending
  // gates, message. stable_sort keeps a rule's own emission order for
  // diagnostics the key cannot distinguish, so reports are byte-identical
  // across runs and platforms -- diffable in CI.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.severity != b.severity) {
                       return a.severity > b.severity;
                     }
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.gates != b.gates) return a.gates < b.gates;
                     return a.message < b.message;
                   });
  return report;
}

LintReport lint_netlist(const Netlist& nl, const sta::StaticAnalyzer* sta) {
  return LintEngine().run(nl, sta);
}

LintReport lint_scan_rules(const Netlist& nl, bool require_all_scanned) {
  LintEngine engine;
  engine.set_category_enabled("structural", false);
  engine.set_category_enabled("testability", false);
  engine.set_category_enabled("redundancy", false);
  if (!require_all_scanned) engine.set_enabled("SCAN-001", false);
  return engine.run(nl);
}

}  // namespace dft
