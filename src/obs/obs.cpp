#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace dft::obs {

namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

void init_from_env() {
  const char* v = std::getenv("DFT_OBS");
  if (v == nullptr) return;
  if (v[0] == '0' && v[1] == '\0') set_enabled(false);
  if (v[0] == '1' && v[1] == '\0') set_enabled(true);
}

void Gauge::set_max(std::int64_t v) {
  if (!enabled()) return;
  std::int64_t cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Value::set(double v) {
  if (enabled()) set_raw(v);
}

void Value::set_raw(double v) {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Value::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void Histogram::record(std::uint64_t sample) {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (cur > sample &&
         !min_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (cur < sample &&
         !max_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
  // bit_width(sample) is 64 for the top bucket's worth of samples; clamp so
  // they land in the last bucket instead of off the end of the array.
  const int b =
      std::min(static_cast<int>(std::bit_width(sample)), kBuckets - 1);
  buckets_[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
}

std::uint64_t Histogram::min() const {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<std::uint64_t>::max() ? 0 : m;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Curve::add(double x, double y) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pts_.emplace_back(x, y);
}

std::vector<Curve::Point> Curve::points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pts_;
}

void Curve::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  pts_.clear();
}

void ScopedTimer::stop() {
  if (h_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  h_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count()));
  h_ = nullptr;
}

PassTally::~PassTally() {
  if (enabled() && passes_ != 0) {
    Registry& reg = Registry::global();
    const std::string prefix(prefix_);
    reg.counter(prefix + ".passes").add(passes_);
    reg.counter(prefix + ".gate_evals").add(gate_evals_);
  }
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // never destroyed: engines may
  return *r;                            // record from exiting threads
}

namespace {

// Interns `name` in `m`, enforcing the one-kind-per-name rule against the
// other maps.
template <typename T, typename... Others>
T& intern(std::string_view name, std::map<std::string, std::unique_ptr<T>,
                                          std::less<>>& m,
          const Others&... others) {
  if (auto it = m.find(name); it != m.end()) return *it->second;
  if ((... || (others.find(name) != others.end()))) {
    throw std::logic_error("obs metric '" + std::string(name) +
                           "' already registered as a different kind");
  }
  return *m.emplace(std::string(name), std::make_unique<T>()).first->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(name, counters_, gauges_, values_, timers_, curves_);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(name, gauges_, counters_, values_, timers_, curves_);
}

Value& Registry::value(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(name, values_, counters_, gauges_, timers_, curves_);
}

Histogram& Registry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(name, timers_, counters_, gauges_, values_, curves_);
}

Curve& Registry::curve(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(name, curves_, counters_, gauges_, values_, timers_);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : counters_) v->reset();
  for (auto& [k, v] : gauges_) v->reset();
  for (auto& [k, v] : values_) v->reset();
  for (auto& [k, v] : timers_) v->reset();
  for (auto& [k, v] : curves_) v->reset();
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : counters_) out.emplace(k, v->value());
  return out;
}

std::map<std::string, std::int64_t> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [k, v] : gauges_) out.emplace(k, v->value());
  return out;
}

std::map<std::string, double> Registry::values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [k, v] : values_) out.emplace(k, v->value());
  return out;
}

std::map<std::string, std::vector<Curve::Point>> Registry::curves() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<Curve::Point>> out;
  for (const auto& [k, v] : curves_) out.emplace(k, v->points());
  return out;
}

std::map<std::string, Registry::TimerStats> Registry::timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, TimerStats> out;
  for (const auto& [k, v] : timers_) {
    TimerStats s;
    s.count = v->count();
    s.total_us = v->sum();
    s.min_us = v->min();
    s.max_us = v->max();
    s.mean_us = v->mean();
    out.emplace(k, s);
  }
  return out;
}

}  // namespace dft::obs
