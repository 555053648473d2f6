// schema_check -- validates a JSON document or an NDJSON stream against a
// checked-in schema (data/*.json; meta-format in src/obs/schema.h), applies
// the rules of the schema's document kind that a type cannot state, and
// then any gates given on the command line.
//
//   schema_check <schema.json> <input> [--min-lines N] [--require-answered N]
//                [--require-final STATUS] [--min-diagnostics N]
//                [--nonzero-counter NAME]... [--value-at-least A B RATIO]...
//
// The input is one document when it parses as one, NDJSON otherwise. The
// document kind is the schema id without its "-schema" suffix; a line whose
// "schema" field names another kind (a progress line multiplexed into a
// serve transcript) is counted and skipped, and every other line must
// conform. Kind rules (obs::check_*): lint summary recount, progress
// stream order, serve exactly-once answers and circuit-xor-bench requests.
//
// Gates, over the lines of the schema's kind:
//   --min-lines N            at least N lines (default 1)
//   --require-answered N     exactly N lines (every request answered)
//   --require-final STATUS   the last line is "final":true with that status
//   --min-diagnostics N      each lint report has at least N diagnostics
//   --nonzero-counter NAME   each report's counters.NAME is > 0
//   --value-at-least A B R   each report's values.A >= R * values.B (the
//                            regression gate for recorded bench ratios)
//
// Exit 0 when everything holds, 1 with one line per problem otherwise, 2 on
// a usage error -- a malformed number included, so a typo in a gate
// argument cannot silently disable the gate.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/schema.h"

namespace {

using dft::obs::Json;
using dft::obs::JsonLine;

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool parse_count(std::string_view s, long& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size() && out >= 0;
}

bool parse_ratio(std::string_view s, double& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size() &&
         std::isfinite(out);
}

const Json* member(const Json& doc, const char* section,
                   const std::string& name) {
  const Json* s = doc.find(section);
  return s != nullptr ? s->find(name) : nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: schema_check <schema.json> <input> [--min-lines N] "
               "[--require-answered N] [--require-final STATUS] "
               "[--min-diagnostics N] [--nonzero-counter NAME]... "
               "[--value-at-least A B RATIO]...\n");
  return 2;
}

struct ValueAtLeast {
  std::string a, b;
  double ratio = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  long min_lines = 1, require_answered = -1, min_diagnostics = 0;
  std::string require_final;
  std::vector<std::string> nonzero;
  std::vector<ValueAtLeast> at_least;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const int left = argc - 1 - i;
    bool ok = false;
    if (arg == "--min-lines" && left >= 1) {
      ok = parse_count(argv[++i], min_lines);
    } else if (arg == "--require-answered" && left >= 1) {
      ok = parse_count(argv[++i], require_answered);
    } else if (arg == "--min-diagnostics" && left >= 1) {
      ok = parse_count(argv[++i], min_diagnostics);
    } else if (arg == "--require-final" && left >= 1) {
      require_final = argv[++i];
      ok = true;
    } else if (arg == "--nonzero-counter" && left >= 1) {
      nonzero.emplace_back(argv[++i]);
      ok = true;
    } else if (arg == "--value-at-least" && left >= 3) {
      ValueAtLeast v{argv[i + 1], argv[i + 2]};
      i += 3;
      ok = parse_ratio(argv[i], v.ratio);
      at_least.push_back(std::move(v));
    }
    if (!ok) {
      std::fprintf(stderr, "schema_check: bad argument '%s'\n", argv[i]);
      return usage();
    }
  }

  std::string schema_text, input_text;
  if (!read_file(argv[1], schema_text)) {
    std::fprintf(stderr, "cannot read schema %s\n", argv[1]);
    return 1;
  }
  if (!read_file(argv[2], input_text)) {
    std::fprintf(stderr, "cannot read input %s\n", argv[2]);
    return 1;
  }

  std::vector<std::string> problems;
  std::string kind;             // the schema id without "-schema"
  std::vector<JsonLine> lines;  // the input lines of that kind
  long skipped = 0;
  try {
    const Json schema = dft::obs::parse_json(schema_text);
    const Json* id = schema.find("schema");
    if (id == nullptr || !id->is_string()) {
      std::fprintf(stderr, "schema %s has no string 'schema' id\n", argv[1]);
      return 1;
    }
    kind = id->as_string();
    if (kind.ends_with("-schema")) kind.resize(kind.size() - 7);

    std::vector<JsonLine> all;
    try {
      all.push_back({1, dft::obs::parse_json(input_text)});
    } catch (const std::invalid_argument&) {
      all = dft::obs::parse_json_lines(input_text, problems);
    }
    for (JsonLine& line : all) {
      const Json* s = line.doc.find("schema");
      if (s != nullptr && s->is_string() && s->as_string() != kind) {
        ++skipped;
        continue;
      }
      for (const std::string& p : dft::obs::validate(schema, line.doc)) {
        problems.push_back("line " + std::to_string(line.number) + ": " + p);
      }
      lines.push_back(std::move(line));
    }

    const auto add = [&](const std::vector<std::string>& more) {
      problems.insert(problems.end(), more.begin(), more.end());
    };
    if (kind == "dft-lint-report") {
      for (const JsonLine& line : lines) {
        add(dft::obs::check_lint_report(line.doc));
      }
    } else if (kind == "dft-obs-progress") {
      add(dft::obs::check_progress_stream(lines));
    } else if (kind == "dft-serve-response") {
      add(dft::obs::check_serve_responses(lines));
    } else if (kind == "dft-serve-request") {
      add(dft::obs::check_serve_requests(lines));
    }

    for (const JsonLine& line : lines) {
      const Json& doc = line.doc;
      for (const std::string& name : nonzero) {
        const Json* c = member(doc, "counters", name);
        if (c == nullptr || !c->is_number() || c->as_number() <= 0) {
          problems.push_back("required counter '" + name +
                             "' is absent or zero");
        }
      }
      for (const ValueAtLeast& cmp : at_least) {
        const Json* a = member(doc, "values", cmp.a);
        const Json* b = member(doc, "values", cmp.b);
        if (a == nullptr || !a->is_number()) {
          problems.push_back("required value '" + cmp.a + "' is absent");
        } else if (b == nullptr || !b->is_number()) {
          problems.push_back("required value '" + cmp.b + "' is absent");
        } else if (a->as_number() < cmp.ratio * b->as_number()) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "%g < %g * %g", a->as_number(),
                        cmp.ratio, b->as_number());
          problems.push_back("value '" + cmp.a + "' regressed vs '" + cmp.b +
                             "': " + buf);
        }
      }
      const Json* diags = doc.find("diagnostics");
      const long n = diags != nullptr && diags->is_array()
                         ? static_cast<long>(diags->as_array().size())
                         : 0;
      if (n < min_diagnostics) {
        problems.push_back("expected at least " +
                           std::to_string(min_diagnostics) +
                           " diagnostics, found " + std::to_string(n));
      }
    }

    const long count = static_cast<long>(lines.size());
    if (count < min_lines) {
      problems.push_back("only " + std::to_string(count) + " " + kind +
                         " line(s), " + std::to_string(min_lines) +
                         " required");
    }
    if (require_answered >= 0 && count != require_answered) {
      problems.push_back(std::to_string(require_answered) +
                         " answer(s) required, " + std::to_string(count) +
                         " present");
    }
    if (!require_final.empty()) {
      const Json last = lines.empty() ? Json() : lines.back().doc;
      const Json* final_v = last.find("final");
      const Json* status = last.find("status");
      if (final_v == nullptr || !final_v->is_bool() || !final_v->as_bool()) {
        problems.push_back("stream does not end with a \"final\":true line");
      } else if (status == nullptr || !status->is_string() ||
                 status->as_string() != require_final) {
        problems.push_back("final status is not '" + require_final + "'");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (problems.empty()) {
    std::printf("%s: ok (%zu %s line(s), %ld other)\n", argv[2],
                lines.size(), kind.c_str(), skipped);
    return 0;
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: %s\n", argv[2], p.c_str());
  }
  return 1;
}
