// Machine-readable run reports over a metrics Registry.
//
// One schema for everything: dft_tool --report-json, the bench harness's
// --json output, and the CI schema check all read/write the same versioned
// document, so a PODEM run and a bench sweep are directly comparable. Like
// the lint diagnostics format, the schema carries an explicit version
// (kReportJsonVersion) and CI fails on drift (see schema_check and
// obs/schema.h).
//
//   {"schema":"dft-obs-report","version":2,
//    "tool":"dft_tool atpg","context":{"netlist":"sn74181",...},
//    "counters":{"podem.decisions":123,...},
//    "gauges":{"podem.backtrack_limit":100000,...},
//    "values":{"atpg.fault_coverage":0.98,...},
//    "timers":{"phase.atpg.random":{"count":1,"total_us":...,"min_us":...,
//              "max_us":...,"mean_us":...},...},
//    "curves":{"atpg.coverage_curve":[[63,71.2],[127,80.1],...],...},
//    "peak_rss_bytes":12345678}
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace dft::obs {

// Bumped whenever a key is added/removed/renamed in render_report_json
// output. The checked-in schema (data/obs_report_schema_v2.json) pins this.
// v2: added the top-level "curves" section (fault-coverage-vs-pattern
// curves recorded by run_atpg / dft_tool bist).
inline constexpr int kReportJsonVersion = 2;

struct ReportOptions {
  std::string tool;  // e.g. "dft_tool atpg" or "bench_eq01_scaling"
  // Free-form string context: netlist name, thread count, seed...
  // Rendered sorted by key.
  std::map<std::string, std::string> context;
};

// Peak resident set size of this process in bytes (getrusage), or 0 when
// the platform cannot say.
long long peak_rss_bytes();

std::string render_report_json(const Registry& reg, const ReportOptions& opt);

// Human-readable table of the same data (dft_tool --stats).
std::string render_report_text(const Registry& reg, const ReportOptions& opt);

}  // namespace dft::obs
