// dft::obs -- metrics registry, tracer, JSON parser and writer, report
// exporters, and the schema validator over every document the toolkit
// emits.
//
// Includes the two properties the observability layer stakes its design on:
// thread-safe recording under the worker pool (run with DFT_SANITIZE=thread)
// and allocation-free recording when disabled at runtime.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "guard/guard.h"
#include "lint/diagnostic.h"
#include "lint/engine.h"
#include "netlist/netlist.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "sim/thread_pool.h"

namespace dft::obs {
namespace {

// Global-new instrumentation for the zero-allocation test. Counting is
// always on; it is a single relaxed increment per allocation.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace
}  // namespace dft::obs

// The replacement allocator is malloc-backed, so free() in the matching
// operator delete is correct; GCC cannot see the pairing and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  dft::obs::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dft::obs {
namespace {

// Restores the runtime enable flag no matter how a test exits.
class EnabledGuard {
 public:
  EnabledGuard() : was_(enabled()) {}
  ~EnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(Counter, AddsAndResets) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Counter& c = reg.counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, DisabledDropsMutations) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  EnabledGuard guard;
  Registry reg;
  Counter& c = reg.counter("t.counter");
  set_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Gauge, SetAddAndHighWater) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Gauge& g = reg.gauge("t.gauge");
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.add(5);
  EXPECT_EQ(g.value(), 2);
  g.set_max(10);
  g.set_max(4);  // below the mark: no change
  EXPECT_EQ(g.value(), 10);
}

TEST(Value, StoresDoubles) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Value& v = reg.value("t.value");
  EXPECT_EQ(v.value(), 0.0);
  v.set(0.875);
  EXPECT_EQ(v.value(), 0.875);
}

TEST(Histogram, StatsAndBuckets) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Histogram& h = reg.timer("t.hist");
  EXPECT_EQ(h.min(), 0u);  // empty
  h.record(1);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1004u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1004.0 / 3.0);
  // bucket i counts samples with bit_width == i: 1 -> 1, 3 -> 2, 1000 -> 10.
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(ScopedTimer, RecordsOnceEvenWhenStoppedEarly) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Histogram& h = reg.timer("t.timer");
  {
    ScopedTimer t(h);
    t.stop();
    t.stop();  // idempotent
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Registry, InternsByNameAndKindIsForever) {
  Registry reg;
  Counter& a = reg.counter("same.name");
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("same.name"), std::logic_error);
  EXPECT_THROW(reg.timer("same.name"), std::logic_error);
}

TEST(Registry, SnapshotsAreSorted) {
  Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  const auto snap = reg.counters();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.begin()->first, "a.first");
  EXPECT_EQ(snap.at("z.last"), kCompiled ? 1u : 0u);
}

// Thread-safety: concurrent interning and mutation from pool workers must
// neither race (TSan) nor lose counts.
TEST(Registry, ThreadSafeUnderPool) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  ThreadPool pool(4);
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&reg] {
      Counter& c = reg.counter("pool.shared");
      for (int i = 0; i < kAddsPerTask; ++i) c.add();
      reg.timer("pool.timer").record(1);
    });
  }
  pool.wait();
  EXPECT_EQ(reg.counter("pool.shared").value(),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(reg.timer("pool.timer").count(), static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(pool.queued(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.queued(), pool.completed());
}

TEST(ThreadPool, CountsQueuedAndCompleted) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.submit([] {});
  pool.wait();
  EXPECT_EQ(pool.queued(), 10u);
  EXPECT_EQ(pool.completed(), 10u);
  EXPECT_GE(pool.max_queue_depth(), 1u);
}

// The headline guarantee: with observability disabled at runtime, recording
// into pre-interned metrics performs zero heap allocations (and, by
// construction, no clock reads or locks).
TEST(Disabled, RecordingDoesNotAllocate) {
  EnabledGuard guard;
  Registry reg;
  // Intern while enabled -- registration may allocate, recording must not.
  Counter& c = reg.counter("noalloc.counter");
  Gauge& g = reg.gauge("noalloc.gauge");
  Histogram& h = reg.timer("noalloc.timer");
  // Lazy singletons allocate on first touch; that is registration, not
  // recording. Warm them before measuring.
  Tracer::global().active();
  set_enabled(false);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    c.add();
    g.set(i);
    h.record(17);
    ScopedTimer t(h);
    TraceSpan span("noalloc", "test");
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
}

TEST(Tracer, RecordsNestedSpansAndThreadNames) {
  Tracer& tr = Tracer::global();
  tr.start();
  {
    TraceSpan outer("outer", "test");
    { TraceSpan inner("inner", "test"); }
  }
  tr.stop();
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes first; containment makes the nesting.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);

  const std::string json = tr.render_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The whole document must parse.
  const Json doc = parse_json(json);
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
}

TEST(Tracer, InactiveSpansRecordNothing) {
  Tracer& tr = Tracer::global();
  tr.stop();
  const std::size_t before = tr.size();
  { TraceSpan span("ignored", "test"); }
  EXPECT_EQ(tr.size(), before);
}

TEST(Phase, CouplesTimerAndSpan) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  // Phase writes to the GLOBAL registry; use a unique name and check the
  // timer appears.
  Registry& reg = Registry::global();
  const std::uint64_t before = reg.timer("phase.obs_test_phase").count();
  { Phase p("obs_test_phase"); }
  EXPECT_EQ(reg.timer("phase.obs_test_phase").count(), before + 1);
}

TEST(JsonParser, ParsesDocuments) {
  const Json j = parse_json(
      R"({"a":1.5,"b":[true,false,null],"s":"x\n\"yA","neg":-2e3})");
  EXPECT_DOUBLE_EQ(j.find("a")->as_number(), 1.5);
  EXPECT_EQ(j.find("b")->as_array().size(), 3u);
  EXPECT_TRUE(j.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(j.find("b")->as_array()[2].is_null());
  EXPECT_EQ(j.find("s")->as_string(), "x\n\"yA");
  EXPECT_DOUBLE_EQ(j.find("neg")->as_number(), -2000.0);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("[1,]"), std::invalid_argument);
  EXPECT_THROW(parse_json("{} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("'single'"), std::invalid_argument);
}

// Golden test for the exporter: a registry with known contents renders an
// exact document (modulo peak_rss_bytes, which is cut off before compare).
TEST(Report, JsonGolden) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  reg.counter("podem.decisions").add(51);
  reg.gauge("podem.backtrack_limit").set(400);
  reg.value("coverage").set(0.96875);
  Histogram& h = reg.timer("phase.atpg");
  h.record(100);
  h.record(300);
  Curve& c = reg.curve("atpg.coverage_curve");
  c.add(63, 87.5);
  c.add(127, 93.75);

  ReportOptions opt;
  opt.tool = "obs_test";
  opt.context = {{"circuit", "c17"}};
  const std::string json = render_report_json(reg, opt);

  const std::string expected =
      "{\"schema\":\"dft-obs-report\",\"version\":2,\"tool\":\"obs_test\","
      "\"context\":{\"circuit\":\"c17\"},"
      "\"counters\":{\"podem.decisions\":51},"
      "\"gauges\":{\"podem.backtrack_limit\":400},"
      "\"values\":{\"coverage\":0.96875},"
      "\"timers\":{\"phase.atpg\":{\"count\":2,\"total_us\":400,"
      "\"min_us\":100,\"max_us\":300,\"mean_us\":200}},"
      "\"curves\":{\"atpg.coverage_curve\":[[63,87.5],[127,93.75]]},"
      "\"peak_rss_bytes\":";
  ASSERT_GE(json.size(), expected.size());
  EXPECT_EQ(json.substr(0, expected.size()), expected);
  // And it must round-trip through our own parser.
  const Json doc = parse_json(json);
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("podem.decisions")->as_number(),
                   51.0);
}

TEST(Report, TextRendererMentionsEverySection) {
  Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(2);
  reg.value("v").set(3.0);
  reg.timer("t").record(4);
  reg.curve("k").add(63, 50.0);
  ReportOptions opt;
  opt.tool = "obs_test";
  const std::string text = render_report_text(reg, opt);
  EXPECT_NE(text.find("counters:"), std::string::npos);
  EXPECT_NE(text.find("gauges:"), std::string::npos);
  EXPECT_NE(text.find("values:"), std::string::npos);
  EXPECT_NE(text.find("timers (us):"), std::string::npos);
  EXPECT_NE(text.find("curves:"), std::string::npos);
  EXPECT_NE(text.find("peak rss:"), std::string::npos);
}

Json load_schema(const std::string& file) {
  std::ifstream in(std::string(DFT_SOURCE_DIR) + "/data/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_json(text.str());
}

// Passes when some problem contains `needle`; lists them all otherwise.
::testing::AssertionResult Reports(const std::vector<std::string>& problems,
                                   const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
  }
  ::testing::AssertionResult r = ::testing::AssertionFailure();
  r << "no problem mentions '" << needle << "'; got " << problems.size();
  for (const std::string& p : problems) r << "\n  " << p;
  return r;
}

class ReportValidation : public ::testing::Test {
 protected:
  Json schema() { return load_schema("obs_report_schema_v2.json"); }

  std::string fresh_report() {
    Registry reg;
    reg.counter("x").add(1);
    reg.timer("t").record(5);
    ReportOptions opt;
    opt.tool = "obs_test";
    return render_report_json(reg, opt);
  }
};

TEST_F(ReportValidation, FreshReportConforms) {
  const auto problems = validate(schema(), parse_json(fresh_report()));
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST_F(ReportValidation, DetectsDriftBothDirections) {
  // A key the schema does not know about.
  std::string extra = fresh_report();
  extra.insert(1, "\"surprise\":true,");
  EXPECT_TRUE(Reports(validate(schema(), parse_json(extra)),
                      "surprise: unexpected key"));

  // A required key gone missing.
  const Json no_tool = parse_json(R"({"schema":"dft-obs-report","version":1})");
  EXPECT_TRUE(Reports(validate(schema(), no_tool), "tool: missing"));

  // A pinned value changed (version bump without schema update).
  std::string old = fresh_report();
  const auto pos = old.find("\"version\":2");
  ASSERT_NE(pos, std::string::npos);
  old.replace(pos, 11, "\"version\":3");
  EXPECT_TRUE(Reports(validate(schema(), parse_json(old)),
                      "version: is '3', schema pins '2'"));
}

TEST_F(ReportValidation, DetectsTimerStatDrift) {
  std::string r = fresh_report();
  // Remove a required per-timer stat.
  const auto pos = r.find(",\"mean_us\":");
  ASSERT_NE(pos, std::string::npos);
  const auto end = r.find('}', pos);
  r.erase(pos, end - pos);
  EXPECT_TRUE(Reports(validate(schema(), parse_json(r)),
                      "timers.t.mean_us: missing"));
}

TEST(ReportValidation2, CheckedInSchemaMatchesEmitter) {
  // Every schema file in data/ accepts what its renderer emits today; the
  // schema_check ctest cases cover the dft_tool paths end to end.
  const auto conforms = [](const std::string& file, const std::string& text) {
    const auto problems = validate(load_schema(file), parse_json(text));
    if (problems.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << file << ": " << problems.front();
  };
  Registry reg;
  reg.counter("x").add(1);
  reg.timer("t").record(5);
  reg.curve("c").add(63, 87.5);
  ReportOptions opt;
  opt.tool = "obs_test";
  opt.context = {{"circuit", "c17"}};
  EXPECT_TRUE(
      conforms("obs_report_schema_v2.json", render_report_json(reg, opt)));

  Netlist nl("tiny");  // an unscanned flip-flop: one SCAN-001 error
  nl.add_output(nl.add_gate(GateType::Dff, {nl.add_input("x")}, "f"), "q");
  EXPECT_TRUE(conforms("lint_report_schema_v1.json",
                       render_json(nl, lint_netlist(nl))));

  Progress p;
  p.phase = "random_tpg";
  p.coverage_pct = 71.25;
  EXPECT_TRUE(conforms("obs_progress_schema_v2.json",
                       ProgressSink::render_line(p, 3, 120, 240, 12.5, 4096,
                                                 true, "r1")));

  serve::ServeRequest req;
  req.id = "r1";
  EXPECT_TRUE(conforms("serve_response_schema_v1.json",
                       serve::render_response_ok(
                           req, guard::RunStatus::DeadlineExpired, "hit", 12,
                           R"({"faults":4})")));
  EXPECT_TRUE(conforms("serve_response_schema_v1.json",
                       serve::render_response_error(
                           "r2", "atpg", serve::ErrorType::Overloaded, "busy")));
  EXPECT_TRUE(conforms("serve_request_schema_v1.json",
                       R"({"schema":"dft-serve-request","version":1,"id":"q",)"
                       R"("op":"lint","circuit":"c17"})"));
}

TEST(SchemaRules, LintShapeAndSummaryRecount) {
  const Json schema = load_schema("lint_report_schema_v1.json");
  const auto report = [](const std::string& summary,
                         const std::string& diagnostic) {
    return parse_json(R"({"version":1,"netlist":"n","gates":3,"summary":)" +
                      summary + R"(,"diagnostics":[)" + diagnostic + "]}");
  };
  const std::string one_error =
      R"({"errors":1,"warnings":0,"infos":0,"passed":false})";
  const auto diagnostic = [](const std::string& severity,
                             const std::string& gate) {
    return R"({"rule":"R","severity":")" + severity +
           R"(","category":"c","paper":"p","message":"m","fix":"f",)"
           R"("gates":[)" + gate + "]}";
  };
  const std::string gate = R"({"id":1,"label":"g"})";
  const Json good = report(one_error, diagnostic("error", gate));
  EXPECT_TRUE(validate(schema, good).empty());
  EXPECT_TRUE(check_lint_report(good).empty());

  EXPECT_TRUE(Reports(
      validate(schema, report(one_error, diagnostic("error", R"({"id":1})"))),
      "diagnostics[0].gates[0].label: missing required key"));
  EXPECT_TRUE(
      Reports(validate(schema, report(one_error, diagnostic("fatal", gate))),
              "diagnostics[0].severity: 'fatal' is not one of"));
  EXPECT_TRUE(Reports(
      check_lint_report(report(
          R"({"errors":1,"warnings":2,"infos":0,"passed":false})",
          diagnostic("error", gate))),
      "summary.warnings says 2 but the diagnostics contain 0"));
  EXPECT_TRUE(Reports(
      check_lint_report(report(
          R"({"errors":1,"warnings":0,"infos":0,"passed":true})",
          diagnostic("error", gate))),
      "summary.passed contradicts the error count"));
  EXPECT_TRUE(Reports(
      check_lint_report(report(one_error, diagnostic("error", ""))),
      "diagnostics[0]: names no gates"));
}

TEST(SchemaRules, ServeResponseShapeFollowsOk) {
  const Json schema = load_schema("serve_response_schema_v1.json");
  const auto problems = [&](const std::string& rest) {
    return validate(
        schema,
        parse_json(
            R"({"schema":"dft-serve-response","version":1,"id":"r","op":"x",)" +
            rest));
  };
  const std::string ok_body =
      R"("ok":true,"status":"completed","degraded":false,"elapsed_ms":1,)"
      R"("result":{})";
  const std::string error = R"("error":{"type":"internal","message":"m"})";
  EXPECT_TRUE(problems(ok_body + "}").empty());
  EXPECT_TRUE(problems(R"("ok":false,)" + error + "}").empty());

  EXPECT_TRUE(Reports(problems(ok_body + "," + error + "}"),
                      "error: unexpected key"));
  EXPECT_TRUE(Reports(problems(R"("ok":false})"),
                      "error: missing required key"));
  EXPECT_TRUE(Reports(
      problems(R"("ok":false,"error":{"type":"oops","message":"m"}})"),
      "error.type: 'oops' is not one of"));
}

TEST(SchemaRules, ServeStreamsAnswerOnceAndNameOneCircuit) {
  std::vector<std::string> unparsable;
  EXPECT_TRUE(Reports(
      check_serve_responses(parse_json_lines(
          "{\"id\":\"a\"}\n{\"id\":\"\"}\n\n{\"id\":\"\"}\n{\"id\":\"a\"}\n",
          unparsable)),
      "line 5: id 'a' answered more than once"));
  const auto requests = check_serve_requests(parse_json_lines(
      R"({"circuit":"c17"})" "\n" R"({"circuit":"c17","bench":"x"})" "\n"
      R"({"bench":"x"})",
      unparsable));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_TRUE(Reports(requests, "line 2: exactly one of circuit/bench"));
  EXPECT_TRUE(unparsable.empty());

  parse_json_lines("{\"id\":1}\nnot json\n", unparsable);
  EXPECT_TRUE(Reports(unparsable, "line 2: not valid JSON"));
}

TEST(SchemaRules, ProgressStreamIsOrdered) {
  const auto line = [](int seq, int elapsed_ms, int coverage, bool final) {
    return "{\"seq\":" + std::to_string(seq) +
           ",\"elapsed_ms\":" + std::to_string(elapsed_ms) +
           ",\"phase\":\"p\",\"coverage_pct\":" + std::to_string(coverage) +
           ",\"final\":" + (final ? "true" : "false") + "}\n";
  };
  std::vector<std::string> unparsable;
  const auto check = [&](const std::string& text) {
    return check_progress_stream(parse_json_lines(text, unparsable));
  };
  EXPECT_TRUE(check(line(0, 1, 10, false) + line(1, 1, 10, false) +
                    line(2, 3, -1, false) + line(3, 4, 20, true))
                  .empty());
  EXPECT_TRUE(Reports(check(line(0, 1, 10, false) + line(0, 2, 20, false)),
                      "line 2: seq not strictly increasing"));
  EXPECT_TRUE(Reports(check(line(0, 5, 10, false) + line(1, 4, 20, false)),
                      "line 2: elapsed_ms decreased"));
  EXPECT_TRUE(Reports(check(line(0, 1, 30, false) + line(1, 2, 20, false)),
                      "line 2: coverage_pct decreased in phase 'p'"));
  EXPECT_TRUE(Reports(check(line(0, 1, 10, true) + line(1, 2, 20, false)),
                      "line 2: line after the final line"));
  EXPECT_TRUE(unparsable.empty());
}

TEST(SchemaRules, MalformedSchemaFailsLoudly) {
  const Json doc = parse_json("{}");
  EXPECT_THROW(
      validate(parse_json(R"({"document":{"type":"object","requird":{}}})"),
               doc),
      std::invalid_argument);
  EXPECT_THROW(validate(parse_json(R"({"document":"strnig"})"), doc),
               std::invalid_argument);
  EXPECT_THROW(validate(parse_json("{}"), doc), std::invalid_argument);
}

TEST(JsonWriter, HostileStringsRoundTripThroughEveryDocument) {
  const std::string hostile =
      "q\" s\\ b\b f\f \x01 \x1f \x7f n\n t\t r\r \xC3\xA9\xE2\x82\xAC"
      "\xF0\x9F\x98\x80";

  ReportOptions opt;
  opt.context = {{"k", hostile}};
  EXPECT_EQ(parse_json(render_report_json(Registry(), opt))
                .find("context")->find("k")->as_string(),
            hostile);

  Tracer& tr = Tracer::global();
  tr.start();
  { TraceSpan span(hostile, "test"); }
  tr.stop();
  const Json trace = parse_json(tr.render_chrome_json());
  bool traced = false;
  for (const Json& e : trace.find("traceEvents")->as_array()) {
    traced = traced || e.find("name")->as_string() == hostile;
  }
  EXPECT_TRUE(traced);

  Netlist nl("n");
  LintReport rep;
  rep.diagnostics.push_back(
      Diagnostic{"R", Severity::Info, "c", "p", "m", "f",
                 {nl.add_input(hostile)}});
  const Json lint = parse_json(render_json(nl, rep));
  EXPECT_EQ(lint.find("diagnostics")->as_array()[0].find("gates")
                ->as_array()[0].find("label")->as_string(),
            hostile);

  Progress p;
  p.phase = hostile;
  const Json line = parse_json(
      ProgressSink::render_line(p, 0, 0, -1, 0.0, 0, false, hostile));
  EXPECT_EQ(line.find("phase")->as_string(), hostile);
  EXPECT_EQ(line.find("job")->as_string(), hostile);

  const Json response = parse_json(serve::render_response_error(
      hostile, "lint", serve::ErrorType::Internal, hostile));
  EXPECT_EQ(response.find("id")->as_string(), hostile);
  EXPECT_EQ(response.find("error")->find("message")->as_string(), hostile);
}

}  // namespace
}  // namespace dft::obs
