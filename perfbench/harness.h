// Shared pieces of the benchmark: clocks, statistics, the metric report
// every workload fills in, and the span log of the traced run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "circuits/random_circuit.h"
#include "netlist/netlist.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans
};

double now_s();       // steady clock, seconds
double cpu_s();       // CPU time of the whole process, seconds
double peak_rss_mb(); // peak resident set of this process, MiB

double median(std::vector<double> v);

// The highest of a fixed ladder of percentiles that still has at least ten
// samples beyond it; `beyond` is how many lie beyond. Missing answers are
// passed as +infinity, so they count as over any latency limit.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v);

// Everything a workload measured, plus the outcome of its output checks.
// Workloads record every metric they have; run.py picks the end-to-end or
// the per-layer set named in BENCHMARK.json.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A failed check makes the run incorrect; the message goes to stderr.
  void check(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return correct_; }

  // Text lines ("context ..." and "metric name value unit") followed by
  // the one-line JSON result, on stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool correct_ = true;
};

// Spans of the traced run, recorded only from the benchmark's own files
// around calls into each layer. Kept in memory; written out at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds, steady clock
    double end = 0;
    int parent = -1;
    std::string run_id;  // run id, or request id in serve_mixed
  };

  int begin(std::string name, int parent, std::string run_id);
  void end(int id);
  // A span whose start and end were taken elsewhere (serve answers).
  int add(std::string name, double start, double end, int parent,
          std::string run_id);

  // Duration minus the part of it covered by the span's children.
  double self_time(int id) const;
  // Sum of self_time over every span with this name.
  double self_total(const std::string& name) const;
  double duration(int id) const;
  std::size_t count(const std::string& name) const;
  std::vector<Span> snapshot() const;

  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; inert when `log` is null, so untraced code paths pay nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int parent, const std::string& run_id)
      : log_(log), id_(log ? log->begin(name, parent, run_id) : -1) {}
  ~Scoped() { finish(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void finish() {
    if (log_ && !done_) log_->end(id_);
    done_ = true;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool done_ = false;
};

// Context every result carries: host, build and SIMD lane.
void note_host_context(Report& report);

// A random combinational circuit handed over the way a dft_tool user hands
// one over: as .bench text, which is then parsed. Generation and the text
// round trip are set-up; the parse is spanned as netlist.parse.
dft::Netlist random_circuit_from_bench(const dft::RandomCircuitSpec& spec,
                                       SpanLog* log, int parent,
                                       const std::string& run_id);

// Counter value from the process-wide obs registry (0 when never recorded).
std::uint64_t counter(const char* name);

void run_atpg_workload(const Args& args, Report& report);
void run_bist_workload(const Args& args, Report& report);
void run_serve_workload(const Args& args, Report& report);

}  // namespace perfbench
