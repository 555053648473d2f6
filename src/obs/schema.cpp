#include "obs/schema.h"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace dft::obs {

namespace {

using Problems = std::vector<std::string>;

[[noreturn]] void bad_schema(const std::string& why) {
  throw std::invalid_argument("malformed schema: " + why);
}

const Json& need(const Json& spec, std::string_view key) {
  const Json* v = spec.find(key);
  if (v == nullptr) bad_schema("missing '" + std::string(key) + "'");
  return *v;
}

// Rejects keywords the meta-format does not define: a misspelt "requird"
// must not silently turn a check off.
const Json& spec_object(const Json& spec) {
  static constexpr std::string_view kKeywords[] = {
      "const", "enum", "type", "items", "required", "optional", "entries",
      "one_of"};
  for (const auto& [k, v] : spec.as_object()) {
    bool known = false;
    for (std::string_view kw : kKeywords) known = known || k == kw;
    if (!known) bad_schema("unknown keyword '" + k + "'");
  }
  return spec;
}

bool leaf_matches(const std::string& type, const Json& v) {
  if (type == "string") return v.is_string();
  if (type == "number") return v.is_number();
  if (type == "bool") return v.is_bool();
  if (type == "object") return v.is_object();
  if (type == "array") return v.is_array();
  bad_schema("unknown type '" + type + "'");
}

bool same_scalar(const Json& a, const Json& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_string()) return a.as_string() == b.as_string();
  if (a.is_number()) return a.as_number() == b.as_number();
  if (a.is_bool()) return a.as_bool() == b.as_bool();
  return a.is_null();
}

std::string kind_of(const Json& v) {
  return std::string(Json::kind_name(v.kind()));
}

// A scalar as text: strings unquoted, numbers as %g; the one_of case name.
std::string scalar_text(const Json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v.as_number());
    return buf;
  }
  return kind_of(v);
}

std::string at(const std::string& path) {
  return path.empty() ? "document" : path;
}

std::string member(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

void check(const Json& type, const Json& v, const std::string& path,
           Problems& out);

void check_object(const Json& type, const Json& v, const std::string& path,
                  Problems& out) {
  std::map<std::string, std::pair<const Json*, bool>> keys;  // type, required
  const auto admit = [&](const Json& spec) {
    if (const Json* r = spec.find("required")) {
      for (const auto& [k, t] : r->as_object()) keys[k] = {&t, true};
    }
    if (const Json* o = spec.find("optional")) {
      for (const auto& [k, t] : o->as_object()) keys[k] = {&t, false};
    }
  };
  admit(type);
  if (const Json* one_of = type.find("one_of")) {
    const std::string& key = need(*one_of, "key").as_string();
    if (const Json* d = v.find(key)) {
      const Json* c = need(*one_of, "cases").find(scalar_text(*d));
      if (c != nullptr) {
        admit(spec_object(*c));
      } else {
        out.push_back(member(path, key) + ": value '" + scalar_text(*d) +
                      "' selects no case of the schema's one_of");
      }
    }
  }
  for (const auto& [k, spec] : keys) {
    if (spec.second && v.find(k) == nullptr) {
      out.push_back(member(path, k) + ": missing required key");
    }
  }
  const Json* entries = type.find("entries");
  for (const auto& [k, child] : v.as_object()) {
    const auto it = keys.find(k);
    if (it != keys.end()) {
      check(*it->second.first, child, member(path, k), out);
    } else if (entries != nullptr) {
      check(*entries, child, member(path, k), out);
    } else {
      out.push_back(member(path, k) +
                    ": unexpected key (schema drift: bump the version and "
                    "update the schema)");
    }
  }
}

void check(const Json& type, const Json& v, const std::string& path,
           Problems& out) {
  if (type.is_string()) {
    if (!leaf_matches(type.as_string(), v)) {
      out.push_back(at(path) + ": is " + kind_of(v) + ", schema requires " +
                    type.as_string());
    }
    return;
  }
  spec_object(type);
  if (const Json* c = type.find("const")) {
    if (!same_scalar(*c, v)) {
      out.push_back(at(path) + ": is '" + scalar_text(v) +
                    "', schema pins '" + scalar_text(*c) + "'");
    }
    return;
  }
  if (const Json* e = type.find("enum")) {
    for (const Json& option : e->as_array()) {
      if (same_scalar(option, v)) return;
    }
    out.push_back(at(path) + ": '" + scalar_text(v) +
                  "' is not one of the schema's enum values");
    return;
  }
  const std::string& kind = need(type, "type").as_string();
  if (!leaf_matches(kind, v)) {
    out.push_back(at(path) + ": is " + kind_of(v) + ", schema requires " +
                  kind);
  } else if (kind == "object") {
    check_object(type, v, path, out);
  } else if (kind == "array") {
    const Json& items = need(type, "items");
    const std::vector<Json>& a = v.as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      check(items, a[i], path + "[" + std::to_string(i) + "]", out);
    }
  }
}

double number_or(const Json& doc, std::string_view key, double fallback) {
  const Json* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string where(const JsonLine& line) {
  return "line " + std::to_string(line.number) + ": ";
}

}  // namespace

std::vector<std::string> validate(const Json& schema, const Json& doc) {
  Problems out;
  check(need(schema, "document"), doc, "", out);
  return out;
}

std::vector<JsonLine> parse_json_lines(std::string_view text,
                                       std::vector<std::string>& problems) {
  std::vector<JsonLine> lines;
  std::size_t number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++number;
    if (line.empty()) continue;
    try {
      lines.push_back({number, parse_json(line)});
    } catch (const std::invalid_argument& e) {
      problems.push_back("line " + std::to_string(number) +
                         ": not valid JSON: " + e.what());
    }
  }
  return lines;
}

std::vector<std::string> check_lint_report(const Json& report) {
  Problems out;
  const Json* summary = report.find("summary");
  const Json* diags = report.find("diagnostics");
  if (summary == nullptr || !summary->is_object() || diags == nullptr ||
      !diags->is_array()) {
    return out;  // a shape problem, which validate() reports
  }
  std::map<std::string, long> by_severity;
  const std::vector<Json>& list = diags->as_array();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (const Json* sev = list[i].find("severity");
        sev != nullptr && sev->is_string()) {
      ++by_severity[sev->as_string()];
    }
    if (const Json* gates = list[i].find("gates");
        gates != nullptr && gates->is_array() && gates->as_array().empty()) {
      out.push_back("diagnostics[" + std::to_string(i) + "]: names no gates");
    }
  }
  for (const auto& [key, severity] :
       {std::pair{"errors", "error"}, std::pair{"warnings", "warning"},
        std::pair{"infos", "info"}}) {
    const long n = by_severity[severity];
    const Json* v = summary->find(key);
    if (v != nullptr && v->is_number() && v->as_number() != n) {
      out.push_back("summary." + std::string(key) + " says " +
                    scalar_text(*v) + " but the diagnostics contain " +
                    std::to_string(n));
    }
  }
  const Json* passed = summary->find("passed");
  if (passed != nullptr && passed->is_bool() &&
      passed->as_bool() != (by_severity["error"] == 0)) {
    out.push_back("summary.passed contradicts the error count");
  }
  return out;
}

std::vector<std::string> check_progress_stream(
    const std::vector<JsonLine>& lines) {
  Problems out;
  double last_seq = -1.0;
  double last_elapsed = -1.0;
  std::map<std::string, double> last_coverage;  // by phase
  bool after_final = false;
  for (const JsonLine& line : lines) {
    const Json& doc = line.doc;
    if (after_final) out.push_back(where(line) + "line after the final line");
    const Json* final_v = doc.find("final");
    after_final = after_final ||
                  (final_v != nullptr && final_v->is_bool() &&
                   final_v->as_bool());

    const double seq = number_or(doc, "seq", -1.0);
    if (seq <= last_seq) {
      out.push_back(where(line) + "seq not strictly increasing");
    }
    last_seq = seq;
    const double elapsed = number_or(doc, "elapsed_ms", -1.0);
    if (elapsed < last_elapsed) {
      out.push_back(where(line) + "elapsed_ms decreased");
    }
    last_elapsed = elapsed;

    const Json* phase = doc.find("phase");
    const double coverage = number_or(doc, "coverage_pct", -1.0);
    if (phase == nullptr || !phase->is_string() || coverage < 0.0) continue;
    const auto [it, inserted] =
        last_coverage.try_emplace(phase->as_string(), coverage);
    if (!inserted && coverage < it->second) {
      out.push_back(where(line) + "coverage_pct decreased in phase '" +
                    phase->as_string() + "'");
    }
    it->second = coverage;
  }
  return out;
}

std::vector<std::string> check_serve_responses(
    const std::vector<JsonLine>& lines) {
  Problems out;
  std::map<std::string, int> answers;
  for (const JsonLine& line : lines) {
    const Json* id = line.doc.find("id");
    if (id == nullptr || !id->is_string() || id->as_string().empty()) continue;
    if (++answers[id->as_string()] == 2) {
      out.push_back(where(line) + "id '" + id->as_string() +
                    "' answered more than once");
    }
  }
  return out;
}

std::vector<std::string> check_serve_requests(
    const std::vector<JsonLine>& lines) {
  Problems out;
  for (const JsonLine& line : lines) {
    if ((line.doc.find("circuit") != nullptr) ==
        (line.doc.find("bench") != nullptr)) {
      out.push_back(where(line) + "exactly one of circuit/bench required");
    }
  }
  return out;
}

}  // namespace dft::obs
