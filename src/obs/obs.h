// dft::obs -- unified metrics for the whole toolkit.
//
// The survey's cost claims (Eq. 1 T = K*N^3, the Sec. I-C rule of tens,
// Table I) are all statements about where cycles go, so every engine family
// reports into one process-wide Registry of named counters, gauges, values,
// and histogram timers. Design rules the hot paths rely on:
//
//  * Near-zero overhead when off. Recording is compiled out entirely under
//    -DDFT_OBS_DISABLED (CMake -DDFT_OBS=OFF); with it compiled in, every
//    mutation first checks a single relaxed atomic flag (set_enabled /
//    DFT_OBS=0 in the environment), so a disabled-mode record is one load
//    and a predictable branch -- no clock reads, no allocation, no locks.
//  * Bulk flushes, not per-event touches. Engines accumulate in plain
//    locals and add() once per pass/run; nothing in a per-gate or per-fault
//    inner loop touches shared state.
//  * Stable addresses. Registry::counter(name) interns the metric on first
//    use and the reference stays valid for the registry's lifetime, so
//    engines can look up once at construction and record lock-free after.
//  * Thread-safe throughout: lookups take the registry mutex, mutations are
//    relaxed atomics (counts are merged views, not synchronization).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dft::obs {

// Compile-time kill switch: with DFT_OBS_DISABLED defined, enabled() is
// constexpr-false and every guarded mutation folds away.
#ifdef DFT_OBS_DISABLED
inline constexpr bool kCompiled = false;
#else
inline constexpr bool kCompiled = true;
#endif

namespace detail {
std::atomic<bool>& enabled_flag();
}  // namespace detail

// Runtime switch (default: on). Mutations are dropped while disabled;
// metric registration and reads always work.
inline bool enabled() {
  if constexpr (!kCompiled) {
    return false;
  } else {
    return detail::enabled_flag().load(std::memory_order_relaxed);
  }
}
void set_enabled(bool on);

// Honors DFT_OBS=0 / DFT_OBS=1 in the environment (anything else, or the
// variable being unset, leaves the current state alone).
void init_from_env();

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Point-in-time signed level (queue depth, configured limit, ...).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  // Raises the gauge to v if it is below (records a high-water mark).
  void set_max(std::int64_t v);
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Floating-point result slot (coverage fractions, fitted exponents) so the
// bench harness can report into the same registry/schema as the engines.
class Value {
 public:
  void set(double v);
  double value() const;
  void reset() { set_raw(0.0); }

 private:
  void set_raw(double v);
  std::atomic<std::uint64_t> bits_{0};  // bit_cast'd double; 0.0 == all-zero
};

// Histogram of microsecond durations (or any nonnegative magnitude):
// count/sum/min/max plus power-of-two buckets; bucket i counts samples with
// bit_width(sample) == i, i.e. sample in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t sample);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // Min/max over recorded samples; min() is 0 when empty.
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Ordered (x, y) samples recorded over a run -- fault-coverage-vs-pattern
// curves and the like. Unlike the scalar metrics, points live behind a
// mutex: curves are appended at block granularity (dozens of points per
// run), never from per-gate or per-fault inner loops.
class Curve {
 public:
  using Point = std::pair<double, double>;

  void add(double x, double y);
  std::vector<Point> points() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<Point> pts_;
};

// RAII wall-clock timer recording elapsed microseconds into a Histogram on
// destruction. When observability is disabled at construction it becomes
// completely inert -- no clock read on either end.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(enabled() ? &h : nullptr),
        start_(h_ ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Records now and detaches (idempotent).
  void stop();

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

// Full-pass tally of one simulator object: passes and gate evaluations
// accumulate in plain members (the bulk-flush rule above) and are added to
// "<prefix>.passes" and "<prefix>.gate_evals" once, on destruction. A copy
// starts at zero and assignment keeps the target's own tally, so copying a
// simulator never flushes the same pass twice.
class PassTally {
 public:
  // `prefix` must outlive the tally (pass a string literal).
  explicit PassTally(const char* prefix) : prefix_(prefix) {}
  PassTally(const PassTally& other) : prefix_(other.prefix_) {}
  PassTally& operator=(const PassTally&) { return *this; }
  ~PassTally();

  void add_pass(std::uint64_t gate_evals) {
    ++passes_;
    gate_evals_ += gate_evals;
  }

 private:
  const char* prefix_;
  std::uint64_t passes_ = 0;
  std::uint64_t gate_evals_ = 0;
};

// Process-wide namespace of metrics. Metric names are dotted paths, e.g.
// "fault_sim.ppsfp.faults_dropped". Asking twice for the same name returns
// the same object; asking for the same name as a different kind throws
// std::logic_error (a name is one kind forever).
class Registry {
 public:
  static Registry& global();
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Value& value(std::string_view name);
  Histogram& timer(std::string_view name);
  Curve& curve(std::string_view name);

  // Zeroes every metric but keeps all registrations (and thus every
  // outstanding reference) valid. Used by tests and by the CLI between
  // logically separate runs.
  void reset();

  // Sorted snapshots for the exporters (report.h).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, std::int64_t> gauges() const;
  std::map<std::string, double> values() const;
  struct TimerStats {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t min_us = 0;
    std::uint64_t max_us = 0;
    double mean_us = 0.0;
  };
  std::map<std::string, TimerStats> timers() const;
  std::map<std::string, std::vector<Curve::Point>> curves() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Value>, std::less<>> values_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Curve>, std::less<>> curves_;
};

}  // namespace dft::obs
