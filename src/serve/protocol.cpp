#include "serve/protocol.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace dft::serve {

namespace {

using obs::Json;

[[noreturn]] void bad(const std::string& message, const std::string& id,
                      const std::string& op = {}) {
  throw RequestError(ErrorType::BadRequest, message, id, op);
}

// Type-checks one request option, then stores it through the jobs option
// table, which owns the bounds. Every failure is a BadRequest carrying the
// already-recovered request id, so the client can correlate the rejection.
void set_option(jobs::Options& opt, const jobs::OptionSpec& spec,
                const Json& v, const std::string& id) {
  using Kind = jobs::OptionSpec::Kind;
  const std::string name = "option '" + std::string(spec.key) + "'";
  try {
    if (spec.kind == Kind::Bool) {
      if (!v.is_bool()) bad(name + " must be a bool", id);
      jobs::set_option(opt, spec, v.as_bool());
    } else if (spec.kind == Kind::String) {
      if (!v.is_string()) bad(name + " must be a string", id);
      jobs::set_option(opt, spec, 0, v.as_string());
    } else {
      if (!v.is_number()) bad(name + " must be a number", id);
      const double d = v.as_number();
      if (d != std::floor(d)) bad(name + " must be an integer", id);
      // Clamped only to convert safely: every bound lies well inside.
      jobs::set_option(opt, spec,
                       static_cast<long long>(std::clamp(d, -0x1p62, 0x1p62)));
    }
  } catch (const jobs::OptionError& e) {
    bad(e.what(), id);
  }
}

}  // namespace

std::string_view op_name(Op op) {
  switch (op) {
    case Op::Lint: return "lint";
    case Op::Measure: return "measure";
    case Op::Atpg: return "atpg";
    case Op::FaultSim: return "fault_sim";
    case Op::Bist: return "bist";
    case Op::Sta: return "sta";
  }
  return "unknown";
}

std::string_view error_type_name(ErrorType t) {
  switch (t) {
    case ErrorType::BadRequest: return "bad_request";
    case ErrorType::Overloaded: return "overloaded";
    case ErrorType::Shutdown: return "shutdown";
    case ErrorType::Internal: return "internal";
  }
  return "internal";
}

ServeRequest parse_request(std::string_view line) {
  Json doc;
  try {
    doc = obs::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw RequestError(ErrorType::BadRequest,
                       std::string("malformed JSON: ") + e.what());
  }
  if (!doc.is_object()) bad("request is not a JSON object", "");

  // Recover the id first so every later rejection can echo it.
  ServeRequest req;
  if (const Json* id = doc.find("id"); id != nullptr && id->is_string()) {
    req.id = id->as_string();
  }
  if (req.id.empty()) bad("missing or empty string field 'id'", "");

  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "dft-serve-request") {
    bad("field 'schema' must be \"dft-serve-request\"", req.id);
  }
  const Json* version = doc.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kServeJsonVersion) {
    bad("field 'version' must be " + std::to_string(kServeJsonVersion),
        req.id);
  }

  const Json* op = doc.find("op");
  if (op == nullptr || !op->is_string()) {
    bad("missing string field 'op'", req.id);
  }
  const std::string& op_s = op->as_string();
  if (op_s == "lint") req.op = Op::Lint;
  else if (op_s == "measure") req.op = Op::Measure;
  else if (op_s == "atpg") req.op = Op::Atpg;
  else if (op_s == "fault_sim") req.op = Op::FaultSim;
  else if (op_s == "bist") req.op = Op::Bist;
  else if (op_s == "sta") req.op = Op::Sta;
  else bad("unknown op '" + op_s + "'", req.id);

  if (const Json* c = doc.find("circuit"); c != nullptr) {
    if (!c->is_string()) bad("field 'circuit' must be a string", req.id, op_s);
    req.circuit = c->as_string();
  }
  if (const Json* b = doc.find("bench"); b != nullptr) {
    if (!b->is_string()) bad("field 'bench' must be a string", req.id, op_s);
    req.bench = b->as_string();
  }
  if (req.circuit.empty() == req.bench.empty()) {
    bad("exactly one of 'circuit' (built-in name) or 'bench' (inline source) "
        "is required",
        req.id, op_s);
  }

  for (const auto& [key, value] : doc.as_object()) {
    if (key == "schema" || key == "version" || key == "id" || key == "op" ||
        key == "circuit" || key == "bench" || key == "options") {
      continue;
    }
    bad("unknown field '" + key + "'", req.id, op_s);
  }

  if (const Json* options = doc.find("options"); options != nullptr) {
    if (!options->is_object()) bad("'options' must be an object", req.id, op_s);
    for (const auto& [key, value] : options->as_object()) {
      const jobs::OptionSpec* spec = jobs::find_option(key);
      // Strict: a typo'd option must not silently fall back to a default.
      if (spec == nullptr) bad("unknown option '" + key + "'", req.id, op_s);
      set_option(req.options, *spec, value, req.id);
    }
  }
  if (!req.options.resume_of.empty() && req.op != Op::Atpg) {
    bad("option 'resume_of' is only valid for op 'atpg'", req.id, op_s);
  }
  return req;
}

std::string JsonBuilder::take() {
  end_object();
  return obs::JsonWriter::take();
}

namespace {

// Opens a response object with the keys every response carries.
obs::JsonWriter response_head(std::string_view id, std::string_view op,
                              bool ok) {
  obs::JsonWriter w;
  w.begin_object()
      .string_field("schema", "dft-serve-response")
      .int_field("version", kServeJsonVersion)
      .string_field("id", id)
      .string_field("op", op)
      .bool_field("ok", ok);
  return w;
}

}  // namespace

std::string render_response_ok(const ServeRequest& req,
                               guard::RunStatus status,
                               std::string_view cache_state,
                               long long elapsed_ms,
                               std::string_view result_json) {
  obs::JsonWriter w = response_head(req.id, op_name(req.op), true);
  w.string_field("status", guard::to_string(status))
      .bool_field("degraded", status != guard::RunStatus::Completed);
  if (!cache_state.empty()) w.string_field("cache", cache_state);
  w.int_field("elapsed_ms", elapsed_ms)
      .raw_field("result", result_json)
      .end_object();
  return w.take();
}

std::string render_response_error(std::string_view id, std::string_view op,
                                  ErrorType type, std::string_view message) {
  obs::JsonWriter w = response_head(id, op, false);
  w.key("error")
      .begin_object()
      .string_field("type", error_type_name(type))
      .string_field("message", message)
      .end_object()
      .end_object();
  return w.take();
}

}  // namespace dft::serve
