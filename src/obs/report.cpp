#include "obs/report.h"

#include <cstdio>

#include "obs/json.h"

#ifdef __unix__
#include <sys/resource.h>
#elif defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dft::obs {

long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#ifdef __APPLE__
  return static_cast<long long>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<long long>(ru.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

std::string render_report_json(const Registry& reg, const ReportOptions& opt) {
  JsonWriter w;
  w.begin_object()
      .string_field("schema", "dft-obs-report")
      .int_field("version", kReportJsonVersion)
      .string_field("tool", opt.tool);
  w.key("context").begin_object();
  for (const auto& [k, v] : opt.context) w.string_field(k, v);
  w.end_object().key("counters").begin_object();
  for (const auto& [k, v] : reg.counters()) w.uint_field(k, v);
  w.end_object().key("gauges").begin_object();
  for (const auto& [k, v] : reg.gauges()) w.int_field(k, v);
  w.end_object().key("values").begin_object();
  for (const auto& [k, v] : reg.values()) w.number_field(k, v);
  w.end_object().key("timers").begin_object();
  for (const auto& [k, t] : reg.timers()) {
    w.key(k)
        .begin_object()
        .uint_field("count", t.count)
        .uint_field("total_us", t.total_us)
        .uint_field("min_us", t.min_us)
        .uint_field("max_us", t.max_us)
        .number_field("mean_us", t.mean_us)
        .end_object();
  }
  w.end_object().key("curves").begin_object();
  for (const auto& [k, pts] : reg.curves()) {
    w.key(k).begin_array();
    for (const auto& [x, y] : pts) {
      w.begin_array().number_value(x).number_value(y).end_array();
    }
    w.end_array();
  }
  w.end_object().int_field("peak_rss_bytes", peak_rss_bytes()).end_object();
  return w.take();
}

std::string render_report_text(const Registry& reg, const ReportOptions& opt) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "== run report: %s ==\n", opt.tool.c_str());
  out += buf;
  for (const auto& [k, v] : opt.context) {
    std::snprintf(buf, sizeof buf, "  %-34s %s\n", k.c_str(), v.c_str());
    out += buf;
  }
  const auto counters = reg.counters();
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [k, v] : counters) {
      std::snprintf(buf, sizeof buf, "  %-34s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));
      out += buf;
    }
  }
  const auto gauges = reg.gauges();
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [k, v] : gauges) {
      std::snprintf(buf, sizeof buf, "  %-34s %lld\n", k.c_str(),
                    static_cast<long long>(v));
      out += buf;
    }
  }
  const auto values = reg.values();
  if (!values.empty()) {
    out += "values:\n";
    for (const auto& [k, v] : values) {
      std::snprintf(buf, sizeof buf, "  %-34s %.6g\n", k.c_str(), v);
      out += buf;
    }
  }
  const auto timers = reg.timers();
  if (!timers.empty()) {
    out += "timers (us):\n";
    std::snprintf(buf, sizeof buf, "  %-34s %10s %12s %10s %10s %10s\n",
                  "name", "count", "total", "min", "max", "mean");
    out += buf;
    for (const auto& [k, t] : timers) {
      std::snprintf(buf, sizeof buf,
                    "  %-34s %10llu %12llu %10llu %10llu %10.1f\n", k.c_str(),
                    static_cast<unsigned long long>(t.count),
                    static_cast<unsigned long long>(t.total_us),
                    static_cast<unsigned long long>(t.min_us),
                    static_cast<unsigned long long>(t.max_us), t.mean_us);
      out += buf;
    }
  }
  const auto curves = reg.curves();
  if (!curves.empty()) {
    out += "curves:\n";
    for (const auto& [k, pts] : curves) {
      if (pts.empty()) {
        std::snprintf(buf, sizeof buf, "  %-34s (empty)\n", k.c_str());
      } else {
        std::snprintf(buf, sizeof buf,
                      "  %-34s %zu points, x %.6g..%.6g, final y %.6g\n",
                      k.c_str(), pts.size(), pts.front().first,
                      pts.back().first, pts.back().second);
      }
      out += buf;
    }
  }
  std::snprintf(buf, sizeof buf, "peak rss: %.1f MiB\n",
                static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  out += buf;
  return out;
}

}  // namespace dft::obs
