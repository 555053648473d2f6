// dft::serve wire protocol -- JSON-lines requests and responses.
//
// One request per line, one response line per request, always. The daemon
// never leaves a caller hanging: every accepted line is eventually answered
// with either an ok response (possibly `degraded:true` carrying a valid
// partial result) or a typed error -- that invariant is what the chaos
// suite enforces under fault injection.
//
// Request (data/serve_request_schema_v1.json):
//   {"schema":"dft-serve-request","version":1,"id":"r1","op":"atpg",
//    "circuit":"sn74181","options":{"deadline_ms":100,"patterns":256}}
// `circuit` names a built-in; `bench` (mutually exclusive) carries inline
// .bench source. Option keys and bounds come from the option table in
// jobs/jobs.h, which dft_tool's flags use too. Unknown option keys are
// rejected, not ignored: a client typo'ing "deadline_m" must hear about
// it, not silently run unbounded.
//
// Response (data/serve_response_schema_v1.json):
//   {"schema":"dft-serve-response","version":1,"id":"r1","op":"atpg",
//    "ok":true,"status":"completed","degraded":false,"cache":"hit",
//    "elapsed_ms":12,"result":{...}}
//   {"schema":"dft-serve-response","version":1,"id":"r1","op":"atpg",
//    "ok":false,"error":{"type":"overloaded","message":"..."}}
//
// `degraded:true` means the run was cut short (deadline, cancellation,
// retry-ladder give-ups) but the result is a VALID partial -- the
// graceful-degradation half of the contract. Typed errors:
//   bad_request   malformed/unsupported request (incl. truncated lines)
//   overloaded    admission control shed the request (queue at capacity)
//   shutdown      the daemon is draining and did not start the job
//   internal      the job failed mid-flight (the process survives)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "guard/guard.h"
#include "jobs/jobs.h"
#include "obs/json.h"

namespace dft::serve {

// Bumped whenever a key is added/removed/renamed in either document. The
// checked-in schemas (data/serve_{request,response}_schema_v1.json) pin it.
inline constexpr int kServeJsonVersion = 1;

enum class Op : std::uint8_t { Lint, Measure, Atpg, FaultSim, Bist, Sta };
std::string_view op_name(Op op);  // "lint", "measure", "atpg", ...

enum class ErrorType : std::uint8_t {
  BadRequest,
  Overloaded,
  Shutdown,
  Internal,
};
std::string_view error_type_name(ErrorType t);

struct ServeRequest {
  std::string id;       // client-chosen, echoed on every response
  Op op = Op::Lint;
  std::string circuit;  // built-in name ("" when inline bench given)
  std::string bench;    // inline .bench source ("" when built-in given)
  jobs::Options options;  // deadline_ms -1 = the server default
};

// Thrown by parse_request (and by job-level validation): carries the typed
// error plus whatever id/op were recovered before the problem, so the
// error response can still be correlated by the client.
class RequestError : public std::runtime_error {
 public:
  RequestError(ErrorType type, const std::string& message,
               std::string id = {}, std::string op = {})
      : std::runtime_error(message), type(type), id(std::move(id)),
        op(std::move(op)) {}
  ErrorType type;
  std::string id;
  std::string op;
};

// Parses and validates one request line; throws RequestError on anything
// malformed (bad JSON, wrong schema/version, unknown op, missing id,
// neither-or-both of circuit/bench, out-of-range or unknown options).
ServeRequest parse_request(std::string_view line);

// Older names for obs::JsonWriter and obs::append_json_string, still used
// by the benchmark's serve workload (perfbench/serve_workload.cpp). A
// JsonBuilder opens its object on construction and closes it in take().
// New code uses obs::JsonWriter.
using obs::append_json_string;
class JsonBuilder : public obs::JsonWriter {
 public:
  JsonBuilder() { begin_object(); }
  std::string take();
};

// Renders the one-line ok response. `degraded` is derived from `status`:
// anything short of Completed means the result is a valid partial or a
// weaker complete (see guard::RunStatus). `result_json` must be a complete
// JSON object (an obs::JsonWriter::take()).
std::string render_response_ok(const ServeRequest& req,
                               guard::RunStatus status,
                               std::string_view cache_state,
                               long long elapsed_ms,
                               std::string_view result_json);

// Renders the one-line typed-error response. Empty id/op render as "".
std::string render_response_error(std::string_view id, std::string_view op,
                                  ErrorType type, std::string_view message);

}  // namespace dft::serve
