#include "lint/diagnostic.h"

#include <algorithm>

#include "obs/json.h"

namespace dft {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

int LintReport::count(Severity s) const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

std::vector<Diagnostic> LintReport::by_rule(std::string_view rule_id) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule_id) out.push_back(d);
  }
  return out;
}

std::string render_text(const Netlist& nl, const LintReport& report) {
  std::string out = report.netlist.empty() ? "<unnamed>" : report.netlist;
  out += ": " + std::to_string(report.errors()) + " error(s), " +
         std::to_string(report.warnings()) + " warning(s), " +
         std::to_string(report.count(Severity::Info)) + " info(s)\n";
  for (const Diagnostic& d : report.diagnostics) {
    out += "  [" + d.rule + "] ";
    out += severity_name(d.severity);
    out += ": " + d.message;
    if (!d.gates.empty()) {
      out += " (";
      for (std::size_t i = 0; i < d.gates.size(); ++i) {
        if (i) out += ", ";
        out += nl.label(d.gates[i]);
      }
      out += ")";
    }
    out += "\n";
    if (!d.fix.empty()) out += "      fix: " + d.fix + "\n";
    if (!d.paper.empty()) out += "      ref: " + d.paper + "\n";
  }
  return out;
}

std::string render_json(const Netlist& nl, const LintReport& report) {
  obs::JsonWriter w;
  w.begin_object()
      .int_field("version", kLintJsonVersion)
      .string_field("netlist", report.netlist)
      .uint_field("gates", report.gate_count)
      .key("summary")
      .begin_object()
      .int_field("errors", report.errors())
      .int_field("warnings", report.warnings())
      .int_field("infos", report.count(Severity::Info))
      .bool_field("passed", report.passed())
      .end_object()
      .key("diagnostics")
      .begin_array();
  for (const Diagnostic& d : report.diagnostics) {
    w.begin_object()
        .string_field("rule", d.rule)
        .string_field("severity", severity_name(d.severity))
        .string_field("category", d.category)
        .string_field("paper", d.paper)
        .string_field("message", d.message)
        .string_field("fix", d.fix)
        .key("gates")
        .begin_array();
    for (GateId g : d.gates) {
      w.begin_object()
          .int_field("id", g)
          .string_field("label", nl.label(g))
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.take();
}

}  // namespace dft
