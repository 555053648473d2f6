#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/json.h"

#ifdef __linux__
#include <pthread.h>
#endif

namespace dft::obs {

int current_thread_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void set_current_thread_name(const std::string& name) {
#ifdef __linux__
  // The kernel limit is 16 bytes including the terminator.
  char buf[16];
  name.copy(buf, sizeof buf - 1);
  buf[std::min(name.size(), sizeof buf - 1)] = '\0';
  pthread_setname_np(pthread_self(), buf);
#endif
  Tracer::global().note_thread_name(current_thread_tid(), name);
}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();  // never destroyed; see Registry::global
  return *t;
}

void Tracer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { active_.store(false, std::memory_order_relaxed); }

void Tracer::record(std::string name, std::string category,
                    std::uint64_t ts_us, std::uint64_t dur_us, int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{std::move(name), std::move(category), ts_us,
                               dur_us, tid});
}

void Tracer::note_thread_name(int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [t, n] : thread_names_) {
    if (t == tid) {
      n = name;
      return;
    }
  }
  thread_names_.emplace_back(tid, name);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::render_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const auto& [tid, name] : thread_names_) {
    w.begin_object()
        .string_field("name", "thread_name")
        .string_field("ph", "M")
        .int_field("pid", 1)
        .int_field("tid", tid)
        .key("args")
        .begin_object()
        .string_field("name", name)
        .end_object()
        .end_object();
  }
  for (const TraceEvent& e : events_) {
    w.begin_object()
        .string_field("name", e.name)
        .string_field("cat", e.category.empty() ? std::string_view("dft")
                                                : std::string_view(e.category))
        .string_field("ph", "X")
        .uint_field("ts", e.ts_us)
        .uint_field("dur", e.dur_us)
        .int_field("pid", 1)
        .int_field("tid", e.tid)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

TraceSpan::TraceSpan(std::string_view name, std::string_view category)
    : active_(Tracer::global().active()), name_(name), category_(category) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

void TraceSpan::finish() {
  if (!active_) return;
  active_ = false;
  Tracer& t = Tracer::global();
  const auto end = std::chrono::steady_clock::now();
  const auto us = [&](std::chrono::steady_clock::time_point p) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(p - t.epoch())
            .count());
  };
  const std::uint64_t ts = us(start_);
  t.record(std::string(name_), std::string(category_), ts, us(end) - ts,
           current_thread_tid());
}

Phase::Phase(std::string_view name)
    : timer_(enabled() ? std::make_unique<ScopedTimer>(Registry::global().timer(
                             "phase." + std::string(name)))
                       : nullptr),
      span_(name, "phase") {}

}  // namespace dft::obs
