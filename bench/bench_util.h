// Shared bench harness glue: the common CLI (--threads, --json),
// dft::obs-backed section timing, scaling-exponent fits, and run-report
// emission.
//
// Every bench prints its human-readable table exactly as before; with
// --json <file> it additionally writes the same versioned
// "dft-obs-report" document that dft_tool --report-json produces
// (schema data/obs_report_schema_v2.json), so CI and notebooks parse one
// format for tool runs and bench runs alike. Section times recorded via
// timed() land in Registry timers named "bench.<section>"; scalar results
// (coverages, fitted exponents) go through report_value() as
// "bench.<name>" values.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/report.h"
#include "sim/simd.h"
#include "sim/thread_pool.h"

namespace dft::bench {

struct BenchArgs {
  int threads = 1;
  std::string json_path;
  // >= 0 after a usage error: the caller should return it from main().
  int status = -1;
};

// Parses [--threads N] [--json <file>] and honors DFT_OBS=0/1 in the
// environment. Unknown flags print usage and set status. The thread count
// is resolved to a concrete worker count (0 = one per hardware thread)
// before the bench sees it, so factory calls downstream -- which require
// >= 1 -- always get a valid value.
inline BenchArgs parse_args(int argc, char** argv, int default_threads) {
  obs::init_from_env();
  BenchArgs a;
  a.threads = default_threads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      a.threads = std::atoi(argv[++i]);
      if (a.threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0 (0 = all cores)\n");
        a.status = 2;
        return a;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      a.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--json <file>]\n",
                   argv[0]);
      a.status = 2;
      return a;
    }
  }
  a.threads = resolve_thread_count(a.threads);
  return a;
}

namespace detail {

inline double finish_timed(std::string_view name,
                           std::chrono::steady_clock::time_point t0) {
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (obs::enabled()) {
    std::string n("bench.");
    n += name;
    obs::Registry::global().timer(n).record(
        static_cast<std::uint64_t>(s * 1e6));
  }
  return s;
}

}  // namespace detail

// Runs fn, records its wall time into Registry timer "bench.<name>", writes
// seconds to *seconds_out (when non-null), and returns fn's result. The
// seconds are measured unconditionally (benches always print their tables);
// only the registry recording respects the obs enable switch.
template <typename F>
auto timed(std::string_view name, double* seconds_out, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F&&>>) {
    std::forward<F>(fn)();
    const double s = detail::finish_timed(name, t0);
    if (seconds_out != nullptr) *seconds_out = s;
  } else {
    auto result = std::forward<F>(fn)();
    const double s = detail::finish_timed(name, t0);
    if (seconds_out != nullptr) *seconds_out = s;
    return result;
  }
}

// Least-squares slope of log(y) against log(x) -- the Eq. (1) scaling
// exponent fit.
inline double fit_slope(const std::vector<double>& x,
                        const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// Records a named floating-point result as Registry value "bench.<name>"
// for the --json report.
inline void report_value(std::string_view name, double v) {
  std::string n("bench.");
  n += name;
  obs::Registry::global().value(n).set(v);
}

// Writes the run report when --json was given. Returns false (after a
// diagnostic) when the file cannot be written.
inline bool emit_report(const BenchArgs& args, std::string tool,
                        std::map<std::string, std::string> context) {
  if (args.json_path.empty()) return true;
  context.emplace("threads", std::to_string(args.threads));
  // The host's core count: multi-core rows mean nothing without it.
  context.emplace("cores", std::to_string(resolve_thread_count(0)));
  // Which pattern-word lane the factory-made engines dispatched to: bench
  // numbers are not comparable across lanes, so the artifact records it.
  const simd::Lane lane = simd::resolve_lane();
  context.emplace("simd", std::string(simd::lane_tag(lane)));
  context.emplace("word_bits", std::to_string(simd::lane_bits(lane)));
  obs::ReportOptions opt;
  opt.tool = std::move(tool);
  opt.context = std::move(context);
  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return false;
  }
  out << obs::render_report_json(obs::Registry::global(), opt) << "\n";
  return true;
}

}  // namespace dft::bench
