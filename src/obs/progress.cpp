#include "obs/progress.h"

#include "obs/json.h"
#include "obs/report.h"

namespace dft::obs {

ProgressSink& ProgressSink::global() {
  static ProgressSink* s = new ProgressSink();  // never destroyed: engines
  return *s;                                    // may emit from exiting threads
}

void ProgressSink::start(std::FILE* out, long long every_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ = out;
  every_us_ = every_ms * 1000;
  epoch_ = std::chrono::steady_clock::now();
  next_emit_us_.store(0, std::memory_order_relaxed);
  seq_ = 0;
  lines_ = 0;
  last_coverage_.clear();
  active_.store(out != nullptr, std::memory_order_relaxed);
}

void ProgressSink::stop() {
  active_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fflush(out_);
  out_ = nullptr;
}

void ProgressSink::emit_throttled(const Progress& p) {
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
          .count();
  std::int64_t next = next_emit_us_.load(std::memory_order_relaxed);
  if (now_us < next) return;
  // One CAS decides which of the racing workers owns this tick; losers
  // return without touching the mutex.
  if (!next_emit_us_.compare_exchange_strong(next, now_us + every_us_,
                                             std::memory_order_relaxed)) {
    return;
  }
  write_line(p, /*final_event=*/false);
}

void ProgressSink::emit_final(const Progress& p) {
  if (!active()) return;
  write_line(p, /*final_event=*/true);
}

std::uint64_t ProgressSink::lines_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void ProgressSink::write_line(const Progress& p, bool final_event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;  // raced with stop()
  const auto now = std::chrono::steady_clock::now();
  const long long elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_)
          .count();
  long long eta_ms = -1;
  if (p.items_total > 0 && p.items_done > 0) {
    eta_ms = p.items_done >= p.items_total
                 ? 0
                 : static_cast<long long>(
                       static_cast<double>(elapsed_ms) *
                       static_cast<double>(p.items_total - p.items_done) /
                       static_cast<double>(p.items_done));
  }
  const double events = static_cast<double>(p.patterns + p.decisions);
  const double events_per_sec =
      1000.0 * events / static_cast<double>(elapsed_ms > 0 ? elapsed_ms : 1);
  // Monotonicity clamp: a worker's counter snapshot can be overtaken
  // between building the Progress and winning the ticker CAS; publish the
  // per-phase high-water mark so the stream never regresses.
  Progress clamped = p;
  if (clamped.coverage_pct >= 0.0) {
    const auto it = last_coverage_.find(clamped.phase);
    if (it != last_coverage_.end() && clamped.coverage_pct < it->second) {
      clamped.coverage_pct = it->second;
    } else if (it != last_coverage_.end()) {
      it->second = clamped.coverage_pct;
    } else {
      last_coverage_.emplace(std::string(clamped.phase),
                             clamped.coverage_pct);
    }
  }
  std::string line = render_line(clamped, seq_, elapsed_ms, eta_ms,
                                 events_per_sec, peak_rss_bytes(),
                                 final_event, thread_job());
  // One fwrite for line + newline: serve mode shares the FILE* with
  // response writers on other threads, and stdio only makes individual
  // calls atomic -- a split write could interleave mid-line.
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);  // each line is a complete, consumable event
  ++seq_;
  ++lines_;
}

namespace {

// The per-thread job tag lives behind a function so the thread_local's
// construction is on-demand (threads that never emit pay nothing).
std::string& thread_job_mutable() {
  thread_local std::string job;
  return job;
}

}  // namespace

void ProgressSink::set_thread_job(std::string job) {
  thread_job_mutable() = std::move(job);
}

const std::string& ProgressSink::thread_job() { return thread_job_mutable(); }

std::string ProgressSink::render_line(const Progress& p, std::uint64_t seq,
                                      long long elapsed_ms, long long eta_ms,
                                      double events_per_sec,
                                      long long rss_bytes, bool final_event,
                                      std::string_view job) {
  JsonWriter w;
  w.begin_object()
      .string_field("schema", "dft-obs-progress")
      .int_field("version", kProgressJsonVersion)
      .uint_field("seq", seq);
  if (!job.empty()) w.string_field("job", job);
  w.string_field("phase", p.phase)
      .string_field("status", p.status)
      .int_field("elapsed_ms", elapsed_ms)
      .int_field("eta_ms", eta_ms)
      .number_field("coverage_pct", p.coverage_pct)
      .uint_field("patterns", p.patterns)
      .uint_field("decisions", p.decisions)
      .number_field("events_per_sec", events_per_sec)
      .int_field("peak_rss_bytes", rss_bytes)
      .int_field("budget_remaining_ms", p.budget_remaining_ms)
      .bool_field("final", final_event)
      .end_object();
  return w.take();
}

}  // namespace dft::obs
