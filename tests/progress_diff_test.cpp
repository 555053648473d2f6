// dft::obs v2 -- progress streaming (progress.h), coverage curves, the
// report-diff trend gate (diff.h), and the Chrome trace golden.
//
// The ctest smokes (dft_progress_* / bench_report_diff_gate) drive the same
// layers end to end through dft_tool; these unit tests pin the exact line
// encoding, the throttle/ordering invariants, and the rule semantics.
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/threaded_fault_sim.h"
#include "obs/diff.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace dft::obs {
namespace {

// ---------------------------------------------------------------- Curve --

TEST(Curve, AccumulatesPointsAndResets) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Curve& c = reg.curve("cov");
  c.add(63, 50.0);
  c.add(127, 75.0);
  const auto snap = reg.curves();
  ASSERT_EQ(snap.at("cov").size(), 2u);
  EXPECT_DOUBLE_EQ(snap.at("cov")[0].first, 63.0);
  EXPECT_DOUBLE_EQ(snap.at("cov")[1].second, 75.0);
  reg.reset();
  EXPECT_TRUE(reg.curves().at("cov").empty());
}

TEST(Curve, DisabledDropsMutations) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  Registry reg;
  Curve& c = reg.curve("cov");
  const bool was = enabled();
  set_enabled(false);
  c.add(1, 2.0);
  set_enabled(was);
  EXPECT_TRUE(reg.curves().at("cov").empty());
}

// --------------------------------------------------------- ProgressSink --

TEST(ProgressSink, RenderLineGolden) {
  Progress p;
  p.phase = "atpg.deterministic";
  p.coverage_pct = 87.5;
  p.patterns = 192;
  p.decisions = 1024;
  p.budget_remaining_ms = 750;
  const std::string line = ProgressSink::render_line(
      p, /*seq=*/7, /*elapsed_ms=*/250, /*eta_ms=*/500,
      /*events_per_sec=*/4864.0, /*rss_bytes=*/8388608,
      /*final_event=*/false);
  EXPECT_EQ(line,
            "{\"schema\":\"dft-obs-progress\",\"version\":2,\"seq\":7,"
            "\"phase\":\"atpg.deterministic\",\"status\":\"running\","
            "\"elapsed_ms\":250,\"eta_ms\":500,\"coverage_pct\":87.5,"
            "\"patterns\":192,\"decisions\":1024,"
            "\"events_per_sec\":4864,\"peak_rss_bytes\":8388608,"
            "\"budget_remaining_ms\":750,\"final\":false}");
}

TEST(ProgressSink, RenderLineCarriesJobTagWhenSet) {
  Progress p;
  p.phase = "atpg";
  const std::string line = ProgressSink::render_line(
      p, 3, 10, -1, 0.0, 0, /*final_event=*/false, /*job=*/"job-42");
  EXPECT_NE(line.find("\"seq\":3,\"job\":\"job-42\",\"phase\":\"atpg\""),
            std::string::npos);
  // Untagged lines omit the key entirely (v1 shape plus the version bump).
  const std::string bare =
      ProgressSink::render_line(p, 3, 10, -1, 0.0, 0, false);
  EXPECT_EQ(bare.find("\"job\""), std::string::npos);
}

TEST(ProgressSink, ThreadJobTagIsPerThread) {
  ProgressSink::set_thread_job("job-main");
  EXPECT_EQ(ProgressSink::thread_job(), "job-main");
  std::string seen_on_other_thread;
  std::thread t([&] { seen_on_other_thread = ProgressSink::thread_job(); });
  t.join();
  EXPECT_EQ(seen_on_other_thread, "");
  ProgressSink::set_thread_job("");
  EXPECT_EQ(ProgressSink::thread_job(), "");
}

TEST(ProgressSink, RenderLineEscapesAndMarksFinal) {
  Progress p;
  p.phase = "weird\"phase";
  p.status = "deadline-expired";
  const std::string line = ProgressSink::render_line(p, 0, 1, -1, 0.0, 0,
                                                     /*final_event=*/true);
  EXPECT_NE(line.find("\"phase\":\"weird\\\"phase\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"deadline-expired\""), std::string::npos);
  EXPECT_NE(line.find("\"final\":true"), std::string::npos);
  EXPECT_NE(line.find("\"coverage_pct\":-1"), std::string::npos);
}

// Drains a tmpfile-backed sink run into a vector of NDJSON lines.
std::vector<std::string> drain(std::FILE* f) {
  std::rewind(f);
  std::vector<std::string> lines;
  std::string cur;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += static_cast<char>(ch);
    }
  }
  return lines;
}

TEST(ProgressSink, ThrottlesAndFinalBypasses) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ProgressSink sink;
  // A one-hour tick: the first emit owns it, everything after is throttled.
  sink.start(f, 3'600'000);
  EXPECT_TRUE(sink.active());
  Progress p;
  p.phase = "x";
  for (int i = 0; i < 100; ++i) sink.maybe_emit(p);
  EXPECT_EQ(sink.lines_emitted(), 1u);
  p.status = "completed";
  sink.emit_final(p);  // bypasses the throttle
  sink.stop();
  EXPECT_FALSE(sink.active());
  sink.maybe_emit(p);  // stopped: dropped
  const auto lines = drain(f);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"final\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"completed\""), std::string::npos);
}

TEST(ProgressSink, ClampsCoverageNonDecreasingPerPhase) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ProgressSink sink;
  sink.start(f, 0);  // emit at every cooperative point
  Progress p;
  p.phase = "sim";
  p.coverage_pct = 50.0;
  sink.maybe_emit(p);
  p.coverage_pct = 40.0;  // stale snapshot winning a later tick
  sink.maybe_emit(p);
  p.phase = "other";      // a fresh phase starts its own high-water mark
  p.coverage_pct = 10.0;
  sink.maybe_emit(p);
  sink.stop();
  const auto lines = drain(f);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"coverage_pct\":50"), std::string::npos);
  EXPECT_NE(lines[1].find("\"coverage_pct\":50"), std::string::npos);
  EXPECT_NE(lines[2].find("\"coverage_pct\":10"), std::string::npos);
}

TEST(ProgressSink, InactiveEmitsNothing) {
  ProgressSink sink;
  Progress p;
  p.phase = "x";
  sink.maybe_emit(p);
  sink.emit_final(p);
  EXPECT_EQ(sink.lines_emitted(), 0u);
}

// ----------------------------------------------------------- trace.cpp --

TEST(Tracer, ChromeJsonGolden) {
  // A local tracer with pinned timestamps renders byte-exact trace_event
  // JSON -- the contract chrome://tracing / Perfetto consume.
  Tracer t;
  t.note_thread_name(0, "main");
  t.note_thread_name(1, "fsim\"0");
  t.record("parse", "phase", 0, 120, 0);
  t.record("atpg", "", 120, 880, 0);
  t.record("block", "fault_sim", 300, 200, 1);
  EXPECT_EQ(
      t.render_chrome_json(),
      "{\"traceEvents\":["
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"main\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"fsim\\\"0\"}},"
      "{\"name\":\"parse\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":120,\"pid\":1,\"tid\":0},"
      "{\"name\":\"atpg\",\"cat\":\"dft\",\"ph\":\"X\",\"ts\":120,"
      "\"dur\":880,\"pid\":1,\"tid\":0},"
      "{\"name\":\"block\",\"cat\":\"fault_sim\",\"ph\":\"X\",\"ts\":300,"
      "\"dur\":200,\"pid\":1,\"tid\":1}"
      "]}");
}

// ------------------------------------------------------------- diff.h  --

const char* kBaseReport =
    R"({"schema":"dft-obs-report","version":2,"tool":"t","context":{"c":"1"},
        "counters":{"n":100},"gauges":{},
        "values":{"speedup":4.0,"only_base":1.0},
        "timers":{"phase.atpg":{"count":1,"total_us":1000,"min_us":1000,
                                "max_us":1000,"mean_us":1000}},
        "curves":{"cov":[[63,80.0],[127,95.0]]},
        "peak_rss_bytes":1000})";

std::string next_report(double speedup, double total_us) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      R"({"schema":"dft-obs-report","version":2,"tool":"t","context":{"c":"2"},
          "counters":{"n":100},"gauges":{},"values":{"speedup":%g},
          "timers":{"phase.atpg":{"count":1,"total_us":%g,"min_us":%g,
                                  "max_us":%g,"mean_us":%g}},
          "curves":{"cov":[[63,85.0],[127,96.0]]},
          "peak_rss_bytes":1100})",
      speedup, total_us, total_us, total_us, total_us);
  return buf;
}

TEST(ReportDiff, CleanComparisonPasses) {
  DiffOptions opt;
  opt.rules.push_back(parse_diff_rule("timers:phase.*:1.5", /*is_max=*/true));
  opt.rules.push_back(parse_diff_rule("values:speedup:0.8", /*is_max=*/false));
  const DiffResult d = diff_reports(parse_json(kBaseReport),
                                    parse_json(next_report(4.1, 1100)), opt);
  EXPECT_FALSE(d.regressed);
  EXPECT_TRUE(d.problems.empty());
  // One-sided fields surface as notes, never failures.
  bool noted = false;
  for (const auto& n : d.notes) {
    if (n.find("only_base") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(ReportDiff, MaxRatioCatchesTimingRegression) {
  DiffOptions opt;
  opt.rules.push_back(parse_diff_rule("timers:phase.*:1.5", /*is_max=*/true));
  // 2x slower: the acceptance scenario.
  const DiffResult d = diff_reports(parse_json(kBaseReport),
                                    parse_json(next_report(4.0, 2000)), opt);
  EXPECT_TRUE(d.regressed);
  ASSERT_FALSE(d.problems.empty());
  EXPECT_NE(d.problems.front().find("regression"), std::string::npos);
  const std::string text = render_diff_text(d, opt);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
}

TEST(ReportDiff, MinRatioCatchesSpeedupDrop) {
  DiffOptions opt;
  opt.rules.push_back(parse_diff_rule("values:speedup:0.8", /*is_max=*/false));
  const DiffResult d = diff_reports(parse_json(kBaseReport),
                                    parse_json(next_report(2.0, 1000)), opt);
  EXPECT_TRUE(d.regressed);
}

TEST(ReportDiff, CurveFieldsAreCompared) {
  DiffOptions opt;
  const DiffResult d = diff_reports(parse_json(kBaseReport),
                                    parse_json(next_report(4.0, 1000)), opt);
  bool saw_final_y = false, saw_points = false;
  for (const auto& f : d.fields) {
    if (f.field == "curves.cov.final_y") {
      saw_final_y = true;
      EXPECT_DOUBLE_EQ(f.base, 95.0);
      EXPECT_DOUBLE_EQ(f.next, 96.0);
    }
    if (f.field == "curves.cov.points") saw_points = true;
  }
  EXPECT_TRUE(saw_final_y);
  EXPECT_TRUE(saw_points);
}

TEST(ReportDiff, SchemaMismatchIsARegression) {
  std::string other = kBaseReport;
  const auto pos = other.find("\"version\":2");
  ASSERT_NE(pos, std::string::npos);
  other.replace(pos, 11, "\"version\":3");
  const DiffResult d =
      diff_reports(parse_json(kBaseReport), parse_json(other), DiffOptions{});
  EXPECT_TRUE(d.regressed);
}

TEST(ReportDiff, ParseRuleRejectsBadSpecs) {
  EXPECT_THROW(parse_diff_rule("no-colons", true), std::invalid_argument);
  EXPECT_THROW(parse_diff_rule("a:b:not-a-number", true),
               std::invalid_argument);
  EXPECT_THROW(parse_diff_rule("a:b:-1", true), std::invalid_argument);
  const DiffRule r = parse_diff_rule("timers:bench.*:1.5", true);
  EXPECT_EQ(r.section, "timers");
  EXPECT_EQ(r.pattern, "bench.*");
  EXPECT_DOUBLE_EQ(r.max_ratio, 1.5);
  EXPECT_DOUBLE_EQ(r.min_ratio, 0.0);
}

// ------------------------------------------- engine coverage reporting --

// Every engine's fault_sim.coverage.final_pct gauge must equal the ratio
// its own result reports (satellite contract: the report and the return
// value can never disagree).
TEST(FinalCoverage, GaugeMatchesResultAcrossEngines) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(7);
  std::vector<SourceVector> patterns;
  for (int i = 0; i < 16; ++i) {
    patterns.push_back(random_source_vector(nl, rng));
  }
  for (const char* name : {"serial", "event", "deductive"}) {
    Registry::global().reset();
    const auto engine = make_fault_sim_engine(nl, name, 1);
    const FaultSimResult res = engine->run(patterns, faults);
    const auto values = Registry::global().values();
    ASSERT_TRUE(values.count("fault_sim.coverage.final_pct")) << name;
    EXPECT_DOUBLE_EQ(values.at("fault_sim.coverage.final_pct"),
                     100.0 * res.coverage())
        << name;
    EXPECT_DOUBLE_EQ(
        values.at("fault_sim.coverage.final_pct"),
        100.0 * static_cast<double>(res.num_detected) /
            static_cast<double>(faults.size()))
        << name;
  }
}

// An interrupted ATPG run skips its verification sim, so the last engine
// to record fault_sim.coverage.final_pct was a one-pattern cross-drop
// sub-run over the faults still open at that point. ATPG records the final
// value itself on every exit path, so the report matches the coverage the
// AtpgRun (and dft_tool) prints. A decision ceiling interrupts
// deterministically, with the same DeadlineExpired status a deadline gives.
TEST(FinalCoverage, InterruptedAtpgRecordsItsOwnCoverage) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  RandomCircuitSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.max_fanin = 4;
  spec.seed = 7;
  const Netlist nl = make_random_combinational(spec);
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.random_patterns = 64;
  opt.budget.set_decision_limit(400);
  Registry::global().reset();
  const AtpgRun run = run_atpg(nl, faults, opt);
  ASSERT_EQ(run.status, guard::RunStatus::DeadlineExpired);
  ASSERT_GT(run.deterministic_detected, 0);  // cross-drop sub-runs happened
  const auto values = Registry::global().values();
  ASSERT_TRUE(values.count("fault_sim.coverage.final_pct"));
  EXPECT_DOUBLE_EQ(values.at("fault_sim.coverage.final_pct"),
                   100.0 * run.fault_coverage());
}

// record_coverage_curve derives the cumulative curve from
// first_detected_by: non-decreasing, one point per 64-pattern block, final
// y equal to the final coverage.
TEST(FinalCoverage, CurveIsCumulativeAndEndsAtFinalCoverage) {
  if (!kCompiled) GTEST_SKIP() << "recording compiled out (DFT_OBS=OFF)";
  const Netlist nl = make_c17();
  const auto faults = collapse_faults(nl).representatives;
  std::mt19937_64 rng(11);
  std::vector<SourceVector> patterns;
  for (int i = 0; i < 130; ++i) {  // 3 blocks: 64 + 64 + 2
    patterns.push_back(random_source_vector(nl, rng));
  }
  Registry::global().reset();
  const auto engine = make_fault_sim_engine(nl, "event", 1);
  const FaultSimResult res = engine->run(patterns, faults,
                                         /*drop_detected=*/false);
  record_coverage_curve("test.curve", res.first_detected_by, patterns.size());
  const auto curves = Registry::global().curves();
  const auto& pts = curves.at("test.curve");
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].first, 63.0);
  EXPECT_DOUBLE_EQ(pts[1].first, 127.0);
  EXPECT_DOUBLE_EQ(pts[2].first, 129.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 100.0 * res.coverage());
}

}  // namespace
}  // namespace dft::obs
