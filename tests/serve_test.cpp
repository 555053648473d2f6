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

#include "fault/deductive.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fx/fx.h"
#include "jobs/jobs.h"
#include "lint/engine.h"
#include "netlist/logic.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "sta/sta.h"

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

  // Decode the shipped vectors and replay them over the same collapsed
  // fault list the server used.
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
  // The deductive simulator, which shares no code with the PPSFP engine
  // the server graded with, replays every fault.
  const std::vector<Fault>& faults = col.representatives;
  const FaultSimResult replay = DeductiveFaultSimulator(nl).run(tests, faults);
  EXPECT_EQ(replay.num_detected,
            static_cast<int>(result_number(doc, "detected")))
      << "partial's detected claim must replay on the deductive engine";
  // The serial simulator, the textbook oracle, agrees with that replay
  // fault by fault on every 16th fault. Serial detection is independent
  // per fault, so the sample runs in disjoint contiguous slices on up to
  // four threads, each with its own simulator.
  std::vector<Fault> sample;
  std::vector<int> want;
  for (std::size_t i = 0; i < faults.size(); i += 16) {
    sample.push_back(faults[i]);
    want.push_back(replay.first_detected_by[i]);
  }
  const std::size_t shards =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<int> got(sample.size(), -1);
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < shards; ++k) {
    workers.emplace_back([&, k] {
      const std::size_t from = sample.size() * k / shards;
      const std::size_t to = sample.size() * (k + 1) / shards;
      SerialFaultSimulator sim(nl);
      const std::vector<Fault> slice(sample.begin() + from,
                                     sample.begin() + to);
      const FaultSimResult graded = sim.run(tests, slice);
      std::copy(graded.first_detected_by.begin(),
                graded.first_detected_by.end(), got.begin() + from);
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(got, want) << "the serial engine disagrees with the deductive "
                          "replay on the sampled faults";
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

// --- One shared sta analysis per cached circuit ----------------------------

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// What a direct, unshared call answers for one circuit's lint and sta.
struct DirectAnswers {
  LintReport lint;
  sta::StaStats sta;
  std::size_t untestable = 0;
};

DirectAnswers direct_answers(const Netlist& nl) {
  DirectAnswers d;
  d.lint = lint_netlist(nl);
  const sta::StaticAnalyzer fresh(nl);
  d.sta = fresh.stats();
  d.untestable =
      fresh.untestable_faults(collapse_faults(nl).representatives).size();
  return d;
}

// An ok, complete lint or sta answer equal to the direct call's.
void expect_direct_answer(const std::string& line, const DirectAnswers& d) {
  const obs::Json doc = parse(line);
  ASSERT_TRUE(ok(doc)) << line;
  EXPECT_FALSE(doc.find("degraded")->as_bool()) << line;
  if (str(doc, "op") == "lint") {
    EXPECT_EQ(result_number(doc, "errors"), d.lint.errors()) << line;
    EXPECT_EQ(result_number(doc, "warnings"), d.lint.warnings()) << line;
    EXPECT_EQ(result_number(doc, "diagnostics"),
              static_cast<double>(d.lint.diagnostics.size()))
        << line;
    EXPECT_EQ(doc.find("result")->find("passed")->as_bool(), d.lint.passed())
        << line;
  } else {
    EXPECT_EQ(result_number(doc, "constants"), d.sta.constants_found) << line;
    EXPECT_EQ(result_number(doc, "unobservable"), d.sta.unobservable_gates)
        << line;
    EXPECT_EQ(result_number(doc, "untestable"),
              static_cast<double>(d.untestable))
        << line;
  }
}

TEST(ServeServer, LintAndStaShareOneAnalyzerPerCachedCircuit) {
  const DirectAnswers direct = direct_answers(builtin_circuit("rand2k"));
  const std::uint64_t built0 = counter_value("jobs.sta_analyzer.built");
  const std::uint64_t reused0 = counter_value("jobs.sta_analyzer.reused");
  Server server;
  Collector out;
  server.submit_line(request("s1", "sta", "rand2k"), out.fn());
  server.wait_idle();
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 1u);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.reused") - reused0, 0u);
  const std::uint64_t imply1 = counter_value("sta.imply_calls");
  ASSERT_GT(imply1, 0u);

  server.submit_line(request("s2", "sta", "rand2k"), out.fn());
  server.submit_line(request("l", "lint", "rand2k"), out.fn());
  server.wait_idle();
  EXPECT_EQ(counter_value("sta.imply_calls"), imply1);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 1u);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.reused") - reused0, 2u);
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) expect_direct_answer(line, direct);
  expect_accounted(server);
}

// A deadline-expired analysis answers its own job degraded and is dropped;
// the next unbudgeted job stores a complete one. Once stored, even a job
// whose deadline has already passed answers from it, complete -- reading a
// finished analysis costs no search, so there is nothing to cut short.
TEST(ServeServer, PartialStaAnalysisIsNeverStored) {
  const DirectAnswers direct = direct_answers(builtin_circuit("rand2k"));
  const std::uint64_t built0 = counter_value("jobs.sta_analyzer.built");
  const std::uint64_t reused0 = counter_value("jobs.sta_analyzer.reused");
  Server server;
  Collector first, second, third;
  server.submit_line(request("cut", "sta", "rand2k", "\"deadline_ms\":0"),
                     first.fn());
  server.wait_idle();
  ASSERT_EQ(first.size(), 1u);
  const obs::Json cut = parse(first.lines()[0]);
  ASSERT_TRUE(ok(cut)) << first.lines()[0];
  EXPECT_TRUE(cut.find("degraded")->as_bool()) << first.lines()[0];
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 0u);

  server.submit_line(request("full", "sta", "rand2k"), second.fn());
  server.wait_idle();
  ASSERT_EQ(second.size(), 1u);
  expect_direct_answer(second.lines()[0], direct);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 1u);

  server.submit_line(request("late", "sta", "rand2k", "\"deadline_ms\":0"),
                     third.fn());
  server.wait_idle();
  ASSERT_EQ(third.size(), 1u);
  expect_direct_answer(third.lines()[0], direct);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 1u);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.reused") - reused0, 1u);
  expect_accounted(server);
}

// Four workers run lint and sta on one cached circuit whose analyzer slot
// starts empty, so the first builds race. Every answer equals the direct
// call's and every job either built a complete analysis or reused one.
TEST(ServeServer, ConcurrentLintAndStaOnOneCachedCircuit) {
  const DirectAnswers direct = direct_answers(builtin_circuit("rand2k"));
  ServerOptions opt;
  opt.workers = 4;
  opt.max_inflight = 16;
  Server server(opt);
  Collector warm, out;
  // Caches rand2k without building its analyzer.
  server.submit_line(request("m", "measure", "rand2k"), warm.fn());
  server.wait_idle();
  const std::uint64_t built0 = counter_value("jobs.sta_analyzer.built");
  const std::uint64_t reused0 = counter_value("jobs.sta_analyzer.reused");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (int w = 0; w < 4; ++w) {
      const char* op = (round + w) % 2 == 0 ? "lint" : "sta";
      server.submit_line(
          request("r" + std::to_string(round) + "-" + std::to_string(w), op,
                  "rand2k"),
          out.fn());
    }
  }
  server.wait_idle();
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 4u * kRounds);
  for (const std::string& line : lines) {
    EXPECT_EQ(str(parse(line), "cache"), "hit") << line;
    expect_direct_answer(line, direct);
  }
  const std::uint64_t built = counter_value("jobs.sta_analyzer.built") - built0;
  const std::uint64_t reused =
      counter_value("jobs.sta_analyzer.reused") - reused0;
  EXPECT_GE(built, 1u);
  EXPECT_LE(built, 4u);
  EXPECT_EQ(built + reused, 4u * kRounds);
  expect_accounted(server);
}

// Two workers take rand2k's lint and sta together while its analyzer slot
// is empty: one job builds the analysis and the other waits for that build
// instead of starting its own. Each answer's result is byte-equal to the
// one a direct call renders.
TEST(ServeServer, ConcurrentFirstUsesWaitForOneAnalyzerBuild) {
  const Netlist nl = builtin_circuit("rand2k");
  const LintReport lint = lint_netlist(nl);
  const sta::StaticAnalyzer fresh(nl);
  const CollapseResult col = collapse_faults(nl);
  const std::string lint_result =
      obs::JsonWriter()
          .begin_object()
          .int_field("errors", lint.errors())
          .int_field("warnings", lint.warnings())
          .int_field("diagnostics",
                     static_cast<long long>(lint.diagnostics.size()))
          .bool_field("passed", lint.passed())
          .end_object()
          .take();
  const std::string sta_result =
      obs::JsonWriter()
          .begin_object()
          .int_field("gates", static_cast<long long>(nl.size()))
          .int_field("constants", fresh.stats().constants_found)
          .int_field("unobservable", fresh.stats().unobservable_gates)
          .int_field("untestable",
                     static_cast<long long>(
                         fresh.untestable_faults(col.representatives).size()))
          .int_field("faults",
                     static_cast<long long>(col.representatives.size()))
          .end_object()
          .take();
  ServerOptions opt;
  opt.workers = 2;
  Server server(opt);
  Collector warm, out;
  // Caches rand2k without building its analyzer.
  server.submit_line(request("m", "measure", "rand2k"), warm.fn());
  server.wait_idle();
  const std::uint64_t built0 = counter_value("jobs.sta_analyzer.built");
  const std::uint64_t reused0 = counter_value("jobs.sta_analyzer.reused");
  server.submit_line(request("l", "lint", "rand2k"), out.fn());
  server.submit_line(request("s", "sta", "rand2k"), out.fn());
  server.wait_idle();
  EXPECT_EQ(counter_value("jobs.sta_analyzer.built") - built0, 1u);
  EXPECT_EQ(counter_value("jobs.sta_analyzer.reused") - reused0, 1u);
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const std::string& want = str(parse(line), "op") == "lint" ? lint_result
                                                               : sta_result;
    EXPECT_NE(line.find("\"result\":" + want), std::string::npos)
        << line << "\nwant result " << want;
  }
  expect_accounted(server);
}

TEST(JobsCompiledCircuit, AnalyzerIsKeptAndACopyStartsEmpty) {
  const jobs::CompiledCircuit c = jobs::compile(builtin_circuit("c17"));
  EXPECT_EQ(c.analyzer_slot.load(), nullptr);
  const auto first = c.analyzer(guard::Budget{});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->stats().status, guard::RunStatus::Completed);
  EXPECT_EQ(c.analyzer(guard::Budget{}), first);
  const jobs::CompiledCircuit copy = c;
  EXPECT_EQ(copy.analyzer_slot.load(), nullptr);
  EXPECT_EQ(copy.netlist.size(), c.netlist.size());
  EXPECT_EQ(copy.faults, c.faults);
  jobs::CompiledCircuit assigned;
  assigned.analyzer(guard::Budget{});
  assigned = c;
  EXPECT_EQ(assigned.analyzer_slot.load(), nullptr);
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
