// dft::serve robustness suite -- the in-process half of the chaos contract
// documented in src/serve/server.h. The Server core is transport-agnostic
// (submit_line + a write callback), so every degradation path is driven
// here deterministically: malformed lines, admission shedding, injected
// worker faults (dft::fx), deadline-expired ATPG partials, resume, and
// drain. The CLI transports get their own end-to-end ctests under
// examples/; this file owns the invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fx/fx.h"
#include "netlist/logic.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/server.h"

namespace dft::serve {
namespace {

// Thread-safe response collector: the WriteFn runs on pool workers.
class Collector {
 public:
  Server::WriteFn fn() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    };
  }
  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

obs::Json parse(const std::string& line) { return obs::parse_json(line); }

std::string str(const obs::Json& doc, const char* key) {
  const obs::Json* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool ok(const obs::Json& doc) {
  const obs::Json* v = doc.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string error_type(const obs::Json& doc) {
  const obs::Json* e = doc.find("error");
  return e != nullptr ? str(*e, "type") : std::string();
}

double result_number(const obs::Json& doc, const char* key) {
  const obs::Json* r = doc.find("result");
  if (r == nullptr) return -1;
  const obs::Json* v = r->find(key);
  return v != nullptr && v->is_number() ? v->as_number() : -1;
}

std::string request(const std::string& id, const std::string& op,
                    const std::string& circuit,
                    const std::string& options = {}) {
  std::string line = R"({"schema":"dft-serve-request","version":1,"id":")" +
                     id + R"(","op":")" + op + R"(","circuit":")" + circuit +
                     "\"";
  if (!options.empty()) line += ",\"options\":{" + options + "}";
  return line + "}";
}

// Checks the per-job accounting invariant from Server::Stats: every
// accepted job landed in exactly one terminal bucket.
void expect_accounted(const Server& server) {
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.accepted,
            s.completed_ok + s.job_errors + s.drained_unstarted);
}

// fx state is process-global; every test that arms must disarm.
class FxGuard {
 public:
  explicit FxGuard(const std::string& spec) { fx::arm(spec); }
  ~FxGuard() { fx::disarm(); }
};

TEST(ServeServer, AllOpsCompleteAndEchoIdentity) {
  Server server;
  Collector out;
  const char* ops[] = {"lint", "measure", "atpg", "fault_sim", "bist", "sta"};
  for (const char* op : ops) {
    server.submit_line(request(std::string("id-") + op, op, "c17",
                               "\"patterns\":64"),
                       out.fn());
  }
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 6u);
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    EXPECT_TRUE(ok(doc)) << line;
    EXPECT_EQ(str(doc, "status"), "completed") << line;
    EXPECT_EQ(str(doc, "id"), "id-" + str(doc, "op")) << line;
    EXPECT_EQ(doc.find("degraded")->as_bool(), false) << line;
    EXPECT_NE(doc.find("result"), nullptr) << line;
  }
  expect_accounted(server);
  EXPECT_EQ(server.inflight(), 0u);
}

TEST(ServeServer, MalformedLineIsIsolated) {
  Server server;
  Collector out;
  server.submit_line("{not json", out.fn());
  server.submit_line(request("good", "lint", "c17"), out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 2u);
  int bad = 0, good = 0;
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    if (ok(doc)) {
      ++good;
      EXPECT_EQ(str(doc, "id"), "good");
    } else {
      ++bad;
      EXPECT_EQ(error_type(doc), "bad_request");
      EXPECT_EQ(str(doc, "id"), "");  // nothing recoverable from the line
    }
  }
  EXPECT_EQ(bad, 1);
  EXPECT_EQ(good, 1);
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(ServeServer, ValidationErrorsAreTypedAndEchoTheId) {
  Server server;
  Collector out;
  const std::string cases[] = {
      // Wrong protocol version.
      R"({"schema":"dft-serve-request","version":99,"id":"v","op":"lint","circuit":"c17"})",
      // Unknown op.
      R"({"schema":"dft-serve-request","version":1,"id":"o","op":"zap","circuit":"c17"})",
      // Both circuit and bench.
      R"({"schema":"dft-serve-request","version":1,"id":"b","op":"lint","circuit":"c17","bench":"x"})",
      // Unknown option.
      R"({"schema":"dft-serve-request","version":1,"id":"u","op":"lint","circuit":"c17","options":{"zap":1}})",
      // Out-of-range option.
      R"({"schema":"dft-serve-request","version":1,"id":"r","op":"lint","circuit":"c17","options":{"deadline_ms":-5}})",
      // Unknown built-in circuit (a job-level failure, same typed error).
      R"({"schema":"dft-serve-request","version":1,"id":"c","op":"lint","circuit":"no_such"})",
  };
  for (const std::string& line : cases) server.submit_line(line, out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), std::size(cases));
  std::vector<std::string> ids;
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    EXPECT_FALSE(ok(doc)) << line;
    EXPECT_EQ(error_type(doc), "bad_request") << line;
    ids.push_back(str(doc, "id"));
  }
  // Every id was recovered before the validation failure and echoed back.
  for (const char* want : {"v", "o", "b", "u", "r", "c"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end()) << want;
  }
  expect_accounted(server);
}

TEST(ServeServer, BlankLinesAreIgnored) {
  Server server;
  Collector out;
  server.submit_line("", out.fn());
  server.submit_line("   \t ", out.fn());
  server.wait_idle();
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(ServeServer, OversizedLineIsShedAsBadRequest) {
  ServerOptions opt;
  opt.max_line_bytes = 64;
  Server server(opt);
  Collector out;
  server.submit_line(request("big", "lint", std::string(200, 'x')), out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(error_type(parse(lines[0])), "bad_request");
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(ServeServer, RepeatRequestHitsTheCache) {
  Server server;
  Collector out;
  server.submit_line(request("first", "lint", "adder4"), out.fn());
  server.wait_idle();
  server.submit_line(request("second", "measure", "adder4"), out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    ASSERT_TRUE(ok(doc)) << line;
    EXPECT_EQ(str(doc, "cache"),
              str(doc, "id") == "first" ? "miss" : "hit")
        << line;
  }
}

TEST(ServeServer, CacheCapacityZeroDegradesToUncached) {
  ServerOptions opt;
  opt.cache_capacity = 0;
  Server server(opt);
  Collector out;
  server.submit_line(request("a", "lint", "c17"), out.fn());
  server.wait_idle();
  server.submit_line(request("b", "lint", "c17"), out.fn());
  server.wait_idle();
  for (const std::string& line : out.lines()) {
    const obs::Json doc = parse(line);
    ASSERT_TRUE(ok(doc)) << line;
    EXPECT_EQ(str(doc, "cache"), "uncached") << line;
  }
}

TEST(ServeServer, InjectedCacheFailureNeverFailsTheRequest) {
  FxGuard fx("serve.cache.insert:p=1");
  Server server;
  Collector out;
  server.submit_line(request("a", "lint", "c17"), out.fn());
  server.wait_idle();
  server.submit_line(request("b", "lint", "c17"), out.fn());
  server.wait_idle();
  for (const std::string& line : out.lines()) {
    const obs::Json doc = parse(line);
    ASSERT_TRUE(ok(doc)) << line;
    // The insert failed both times: never cached, never a request failure.
    EXPECT_EQ(str(doc, "cache"), "uncached") << line;
  }
  EXPECT_EQ(server.cache().size(), 0u);
}

TEST(ServeServer, OverloadShedsImmediatelyWithTypedError) {
  // One worker, one admission slot; the admitted job stalls (injected), so
  // every subsequent submit is shed synchronously.
  FxGuard fx("serve.job.stall:every=1,ms=150");
  ServerOptions opt;
  opt.workers = 1;
  opt.max_inflight = 1;
  Server server(opt);
  Collector out;
  for (int i = 0; i < 4; ++i) {
    server.submit_line(request("q" + std::to_string(i), "lint", "c17"),
                       out.fn());
  }
  // The three rejections are synchronous -- visible before wait_idle.
  EXPECT_GE(out.size(), 3u);
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 4u);
  int shed = 0, completed = 0;
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    if (ok(doc)) ++completed;
    else if (error_type(doc) == "overloaded") ++shed;
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(server.stats().rejected_overload, 3u);
  expect_accounted(server);
}

TEST(ServeServer, InjectedWorkerExceptionAnswersInternalError) {
  FxGuard fx("serve.job.exception:n=1");
  Server server;
  Collector out;
  server.submit_line(request("boom", "lint", "c17"), out.fn());
  server.wait_idle();
  server.submit_line(request("fine", "lint", "c17"), out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    if (str(doc, "id") == "boom") {
      EXPECT_FALSE(ok(doc));
      EXPECT_EQ(error_type(doc), "internal");
    } else {
      EXPECT_TRUE(ok(doc)) << "the fault must not poison the next job";
    }
  }
  expect_accounted(server);
}

TEST(ServeServer, DrainAnswersEveryAcceptedJobExactlyOnce) {
  FxGuard fx("serve.job.stall:every=1,ms=100");
  ServerOptions opt;
  opt.workers = 1;  // jobs queue behind the stalled one
  opt.max_inflight = 8;
  Server server(opt);
  Collector out;
  for (int i = 0; i < 5; ++i) {
    server.submit_line(request("d" + std::to_string(i), "lint", "c17"),
                       out.fn());
  }
  server.begin_drain();
  // New work after drain is shed with the shutdown type.
  server.submit_line(request("late", "lint", "c17"), out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 6u);
  std::vector<std::string> ids;
  for (const std::string& line : lines) {
    const obs::Json doc = parse(line);
    const std::string id = str(doc, "id");
    EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 0)
        << "answered twice: " << id;
    ids.push_back(id);
    if (id == "late") {
      EXPECT_EQ(error_type(doc), "shutdown");
    }
    // In-flight jobs answer ok (possibly degraded/cancelled); queued ones
    // answer with a shutdown error. Either way: answered.
    if (!ok(doc)) {
      EXPECT_EQ(error_type(doc), "shutdown") << line;
    }
  }
  EXPECT_EQ(server.inflight(), 0u);
  expect_accounted(server);
}

TEST(ServeServer, DestructorDrainsWithoutLeakingJobs) {
  Collector out;
  {
    FxGuard fx("serve.job.stall:every=1,ms=50");
    Server server;
    for (int i = 0; i < 4; ++i) {
      server.submit_line(request("x" + std::to_string(i), "lint", "c17"),
                         out.fn());
    }
    // ~Server drains: every accepted job must still be answered.
  }
  EXPECT_EQ(out.size(), 4u);
}

// The headline chaos gate: mixed valid/invalid traffic under injected
// cache failures, worker exceptions, and stalls. Every line is answered
// exactly once, nothing leaks, the accounting balances.
TEST(ServeServer, ChaosTrafficIsAlwaysAnsweredAndNeverLeaks) {
  FxGuard fx(
      "serve.job.exception:p=0.25;serve.cache.insert:p=0.5;"
      "serve.job.stall:every=9,ms=5;seed=11");
  ServerOptions opt;
  opt.workers = 3;
  opt.max_inflight = 6;
  opt.cache_capacity = 2;
  Server server(opt);
  Collector out;
  const char* ops[] = {"lint", "measure", "fault_sim", "bist", "sta"};
  const char* circuits[] = {"c17", "adder4", "mux3", "parity8"};
  std::size_t submitted = 0;
  for (int i = 0; i < 120; ++i) {
    std::string line;
    switch (i % 6) {
      case 5:
        line = "}{ definitely not json #" + std::to_string(i);
        break;
      case 4:
        line = request("chaos" + std::to_string(i), "lint", "no_such_circuit");
        break;
      default:
        line = request("chaos" + std::to_string(i), ops[i % 5],
                       circuits[i % 4], "\"patterns\":32");
    }
    server.submit_line(std::move(line), out.fn());
    ++submitted;
  }
  server.wait_idle();
  EXPECT_EQ(out.size(), submitted) << "every line answered exactly once";
  EXPECT_EQ(server.inflight(), 0u) << "no leaked jobs";
  std::vector<std::string> ids;
  for (const std::string& line : out.lines()) {
    const obs::Json doc = parse(line);  // throws on a torn response line
    const std::string id = str(doc, "id");
    if (!id.empty()) {
      EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 0)
          << "answered twice: " << id;
      ids.push_back(id);
    }
    if (!ok(doc)) {
      const std::string type = error_type(doc);
      EXPECT_TRUE(type == "bad_request" || type == "overloaded" ||
                  type == "internal" || type == "shutdown")
          << line;
    }
  }
  expect_accounted(server);
}

// Graceful degradation end to end: a deadline-expired ATPG answers with a
// valid partial whose test set PROVES its claimed detected count against
// the independent serial fault simulator.
TEST(ServeServer, DeadlineExpiredAtpgPartialVerifiesAgainstSerialEngine) {
  Server server;
  Collector out;
  server.submit_line(request("slow", "atpg", "rand2k",
                             "\"deadline_ms\":150,\"include_tests\":true"),
                     out.fn());
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 1u);
  const obs::Json doc = parse(lines[0]);
  ASSERT_TRUE(ok(doc)) << lines[0];
  EXPECT_EQ(str(doc, "status"), "deadline-expired");
  EXPECT_TRUE(doc.find("degraded")->as_bool());
  EXPECT_GT(result_number(doc, "remaining"), 0);
  ASSERT_TRUE(doc.find("result")->find("resumable")->as_bool());

  // Decode the shipped vectors and replay them on the serial simulator
  // over the same collapsed fault list the server used.
  const obs::Json* vectors = doc.find("result")->find("vectors");
  ASSERT_NE(vectors, nullptr);
  const Netlist nl = builtin_circuit("rand2k");
  const CollapseResult col = collapse_faults(nl);
  std::vector<SourceVector> tests;
  for (const obs::Json& v : vectors->as_array()) {
    SourceVector sv;
    for (char c : v.as_string()) {
      ASSERT_TRUE(c == '0' || c == '1') << "non-binary test vector";
      sv.push_back(c == '1' ? Logic::One : Logic::Zero);
    }
    ASSERT_EQ(sv.size(), source_count(nl));
    tests.push_back(std::move(sv));
  }
  ASSERT_EQ(tests.size(), static_cast<std::size_t>(result_number(doc, "tests")));
  // Serial detection is independent per fault, so the replay runs disjoint
  // contiguous slices of the fault list on up to four threads, each with
  // its own simulator, and sums their detections.
  const std::vector<Fault>& faults = col.representatives;
  const std::size_t shards =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<int> detected_in(shards, 0);
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < shards; ++k) {
    workers.emplace_back([&, k] {
      const auto from = faults.begin() + faults.size() * k / shards;
      const auto to = faults.begin() + faults.size() * (k + 1) / shards;
      SerialFaultSimulator sim(nl);
      const FaultSimResult graded =
          sim.run(tests, std::vector<Fault>(from, to));
      for (int first : graded.first_detected_by) {
        detected_in[k] += first >= 0 ? 1 : 0;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const int detected =
      std::accumulate(detected_in.begin(), detected_in.end(), 0);
  EXPECT_EQ(detected, static_cast<int>(result_number(doc, "detected")))
      << "partial's detected claim must replay on the serial engine";
}

TEST(ServeServer, ResumeContinuesARetainedPartial) {
  Server server;
  Collector out;
  server.submit_line(
      request("p1", "atpg", "rand2k", "\"deadline_ms\":150"), out.fn());
  server.wait_idle();
  const obs::Json first = parse(out.lines()[0]);
  ASSERT_TRUE(ok(first));
  ASSERT_EQ(str(first, "status"), "deadline-expired");
  const int d1 = static_cast<int>(result_number(first, "detected"));

  // Resume under its own budget: makes progress, never regresses.
  server.submit_line(request("p2", "atpg", "rand2k",
                             "\"deadline_ms\":150,\"resume_of\":\"p1\""),
                     out.fn());
  server.wait_idle();
  const obs::Json second = parse(out.lines()[1]);
  ASSERT_TRUE(ok(second)) << out.lines()[1];
  EXPECT_EQ(str(second, "cache"), "hit");
  EXPECT_GE(static_cast<int>(result_number(second, "detected")), d1);

  // resume_of must match the retained run's circuit...
  server.submit_line(
      request("p3", "atpg", "c17", "\"resume_of\":\"p1\""), out.fn());
  // ...and name a request that actually left a partial behind.
  server.submit_line(
      request("p4", "atpg", "rand2k", "\"resume_of\":\"never-ran\""),
      out.fn());
  server.wait_idle();
  for (std::size_t i = 2; i < 4; ++i) {
    const obs::Json doc = parse(out.lines()[i]);
    EXPECT_FALSE(ok(doc)) << out.lines()[i];
    EXPECT_EQ(error_type(doc), "bad_request") << out.lines()[i];
  }
  expect_accounted(server);
}

// The daemon runs the same job implementations as dft_tool, so its bist
// and sta jobs record the counters the CLI modes record.
TEST(ServeServer, BistAndStaJobsRecordTheCliCounters) {
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t applied0 =
      reg.counter("bist.prpg.patterns_applied").value();
  const std::uint64_t untestable0 =
      reg.counter("sta.untestable_faults").value();
  Server server;
  Collector out;
  server.submit_line(request("b", "bist", "sn74181", "\"patterns\":100"),
                     out.fn());
  server.submit_line(request("s", "sta", "rand2k"), out.fn());
  server.wait_idle();
  double untestable = -1;
  for (const std::string& line : out.lines()) {
    const obs::Json doc = parse(line);
    ASSERT_TRUE(ok(doc)) << line;
    if (str(doc, "id") == "s") untestable = result_number(doc, "untestable");
  }
  ASSERT_GT(untestable, 0);
  EXPECT_EQ(reg.counter("bist.prpg.patterns_applied").value() - applied0,
            100u);
  EXPECT_EQ(reg.counter("sta.untestable_faults").value() - untestable0,
            static_cast<std::uint64_t>(untestable));
}

TEST(ServeServer, InlineBenchCircuitCompilesAndUnparsableIsBadRequest) {
  Server server;
  Collector out;
  const std::string bench =
      "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\ny = AND(a, b)\\n";
  server.submit_line(R"({"schema":"dft-serve-request","version":1,)"
                     R"("id":"inl","op":"lint","bench":")" +
                         bench + R"("})",
                     out.fn());
  server.submit_line(R"({"schema":"dft-serve-request","version":1,)"
                     R"("id":"bad","op":"lint","bench":"not a netlist"})",
                     out.fn());
  server.wait_idle();
  for (const std::string& line : out.lines()) {
    const obs::Json doc = parse(line);
    if (str(doc, "id") == "inl") {
      EXPECT_TRUE(ok(doc)) << line;
    } else {
      EXPECT_FALSE(ok(doc));
      EXPECT_EQ(error_type(doc), "bad_request") << line;
    }
  }
}

}  // namespace
}  // namespace dft::serve
