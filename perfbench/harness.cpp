#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "netlist/bench_io.h"
#include "obs/obs.h"
#include "sim/simd.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank; every sample after it lies beyond the percentile.
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
    if (n - rank >= 10) return {v[rank - 1], p, n - rank};
  }
  // Under 20 samples no listed percentile qualifies: report the maximum.
  return {v.back(), 100.0, 0};
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: output check failed: " << what << "\n";
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::string ctx = "{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i) ctx += ",";
    ctx += json_string(notes_[i].first) + ":" + json_string(notes_[i].second);
  }
  std::printf("context %s}\n", ctx.c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int SpanLog::begin(std::string name, int parent, std::string run_id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, t, parent, std::move(run_id)});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int SpanLog::add(std::string name, double start, double end, int parent,
                 std::string run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, std::move(run_id)});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

double SpanLog::self_time(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    const double a = std::max(c.start, s.start);
    const double b = std::min(c.end, s.end);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0;
  double reach = s.start;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (s.end - s.start) - covered;
}

double SpanLog::self_total(const std::string& name) const {
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) ids.push_back(static_cast<int>(i));
    }
  }
  double total = 0;
  for (int id : ids) total += self_time(id);
  return total;
}

std::size_t SpanLog::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::vector<SpanLog::Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  std::ofstream out(path);
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i
        << ",\"name\":" << json_string(s.name)
        << ",\"start_s\":" << json_number(s.start - t0)
        << ",\"end_s\":" << json_number(s.end - t0)
        << ",\"parent\":" << s.parent
        << ",\"run\":" << json_string(s.run_id) << "}";
  }
  out << "\n]}\n";
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // stop at the first NUL
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "" : s.substr(b);
  }
#endif
  return "unknown";
}

}  // namespace

dft::Netlist random_circuit_from_bench(const dft::RandomCircuitSpec& spec,
                                       SpanLog* log, int parent,
                                       const std::string& run_id) {
  const std::string text =
      dft::write_bench_string(dft::make_random_combinational(spec));
  Scoped span(log, "netlist.parse", parent, run_id);
  return dft::read_bench_string(text, "rand");
}

std::uint64_t counter(const char* name) {
  return dft::obs::Registry::global().counter(name).value();
}

void note_host_context(Report& report) {
  report.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.note("cpu_model", cpu_model());
  const dft::simd::Lane lane = dft::simd::resolve_lane();
  report.note("simd_lane", std::string(dft::simd::lane_name(lane)));
  report.note("word_bits", std::to_string(dft::simd::lane_bits(lane)));
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
