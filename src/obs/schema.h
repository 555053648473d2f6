// Schema validation for the toolkit's JSON documents.
//
// Every document the toolkit emits -- the run report, the lint report,
// progress lines, serve requests and responses -- is pinned by a schema
// file in data/, read by schema_check (examples/) and by the tests:
//
//   {"schema":"<kind>-schema","version":N,"comment":"...","document":<type>}
//
// where <kind> names the document kind (dft-obs-report, dft-lint-report,
// ...) and a <type> is one of
//
//   "string" | "number" | "bool" | "object" | "array"
//                                   a typed leaf
//   {"const": v}                    exactly the scalar v (schema name,
//                                   version)
//   {"enum": [v, ...]}              one of the listed scalars
//   {"type":"array","items":<type>} every element has the item type
//   {"type":"object",
//    "required": {"key": <type>, ...},  keys that must be present
//    "optional": {"key": <type>, ...},  keys that may be present
//    "entries": <type>,                 the type of every other key (a
//                                       map); without it other keys are
//                                       schema drift
//    "one_of": {"key": "k", "cases": {"v": {"required":..,"optional":..}}}}
//                                   the case named by the object's value
//                                   of key k (true/false, or a string)
//                                   adds its keys to the object's
//
// Rules a type cannot state -- counts that must agree, stream order,
// exactly-once answers -- are the check_* functions below.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace dft::obs {

// Problems found validating `doc` against the schema file `schema`, each
// naming the offending path (e.g. "diagnostics[0].severity"); empty means
// `doc` conforms. Throws std::invalid_argument when the schema itself is
// malformed (an unknown type name or keyword), so a typo in a schema file
// fails loudly instead of disabling a check.
std::vector<std::string> validate(const Json& schema, const Json& doc);

// One line of an NDJSON stream and its 1-based line number in the text.
struct JsonLine {
  std::size_t number = 0;
  Json doc;
};

// Parses each non-blank line of NDJSON text; a line that does not parse
// adds a problem to `problems` instead.
std::vector<JsonLine> parse_json_lines(std::string_view text,
                                       std::vector<std::string>& problems);

// Lint report (dft-lint-report): the summary counts equal a recount of the
// diagnostics by severity, "passed" equals (errors == 0), and every
// diagnostic names at least one gate.
std::vector<std::string> check_lint_report(const Json& report);

// Progress stream (dft-obs-progress), lines in file order: seq strictly
// increases, elapsed_ms never decreases, coverage_pct never decreases
// within a phase (-1 = unknown is ignored), and no line follows a
// "final":true line.
std::vector<std::string> check_progress_stream(
    const std::vector<JsonLine>& lines);

// Serve transcript (dft-serve-response): no non-empty id is answered more
// than once. Id "" is the shared bucket for requests too malformed to
// carry one.
std::vector<std::string> check_serve_responses(
    const std::vector<JsonLine>& lines);

// Serve requests (dft-serve-request): each names exactly one of "circuit"
// (a built-in) and "bench" (inline source).
std::vector<std::string> check_serve_requests(
    const std::vector<JsonLine>& lines);

}  // namespace dft::obs
