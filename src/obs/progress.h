// Live progress streaming for long-running engines (NDJSON).
//
// A million-gate ATPG or fault-sim job is otherwise a black box until the
// final dft-obs-report: ProgressSink turns the cooperative points every long
// engine already has (the guard::Budget poll sites in PODEM/D-alg, the
// serial/PPSFP/event fault simulators, the threaded engine's block
// boundaries, random TPG, and BIST grading) into a schema-versioned stream
// of one JSON object per line:
//
//   {"schema":"dft-obs-progress","version":1,"seq":3,"phase":"random_tpg",
//    "status":"running","elapsed_ms":120,"eta_ms":240,"coverage_pct":71.2,
//    "patterns":1536,"decisions":0,"events_per_sec":12800.0,
//    "peak_rss_bytes":8388608,"budget_remaining_ms":-1,"final":false}
//
// Design rules, mirroring the Registry:
//
//  * One branch when off. maybe_emit() first checks a single relaxed atomic;
//    engines call it from the same stride as their budget polls (never from
//    per-gate inner loops), so a disabled-mode call is one load.
//  * Throttled by a monotonic ticker. --progress-every-ms arms an atomic
//    next-emit deadline on the steady clock; concurrent workers race with
//    one CAS and exactly one wins each tick, so the stream stays bounded no
//    matter how many threads hit their block boundaries at once.
//  * Ordered lines. seq assignment, elapsed_ms sampling, and the write
//    happen under one mutex, so in-file order == seq order and elapsed_ms
//    is non-decreasing down the file (what schema_check enforces).
//    coverage_pct is additionally clamped non-decreasing per phase under
//    the same mutex: workers snapshot their counters before racing for the
//    ticker, so a slightly stale snapshot can win a later tick -- the
//    clamp keeps the published stream monotonic anyway.
//  * No dependency on dft::guard (guard links against obs): callers that
//    hold a Budget fill Progress::budget_remaining_ms themselves via
//    guard::Budget::remaining_ms().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace dft::obs {

// Bumped whenever a key is added/removed/renamed in the emitted lines. The
// checked-in schema (data/obs_progress_schema_v2.json) pins this.
// v2: optional "job" key -- serve mode runs many jobs concurrently through
// the one global sink, and a line without attribution is useless to a
// client multiplexing several requests over one connection. The key is
// emitted only when the emitting thread carries a job tag
// (set_thread_job), so single-job tool runs keep their v1 line shape
// minus the version bump.
inline constexpr int kProgressJsonVersion = 2;

// One sample of a long-running engine's state, taken at a cooperative
// point. Engines fill what they know; unknowns keep their defaults and the
// sink renders them as -1 (coverage, ETA, budget) or 0.
struct Progress {
  std::string_view phase;       // "random_tpg", "atpg.deterministic", ...
  double coverage_pct = -1.0;   // cumulative fault coverage [0,100]; -1 unknown
  std::uint64_t patterns = 0;   // cumulative patterns consumed this phase
  std::uint64_t decisions = 0;  // cumulative ATPG decisions this phase
  std::uint64_t items_done = 0;   // work units finished (ETA numerator)
  std::uint64_t items_total = 0;  // total work units; 0 = unknown (no ETA)
  long long budget_remaining_ms = -1;   // -1 = unlimited / unknown
  std::string_view status = "running";  // final events carry the RunStatus
};

// Process-wide NDJSON emitter. Inactive (and free) until start() is called;
// dft_tool arms it from --progress-every-ms / --progress-file.
class ProgressSink {
 public:
  static ProgressSink& global();
  ProgressSink() = default;
  ProgressSink(const ProgressSink&) = delete;
  ProgressSink& operator=(const ProgressSink&) = delete;

  // Arms the sink: events go to `out` (not owned; typically stderr or a
  // --progress-file), at most one per every_ms milliseconds (0 = emit at
  // every cooperative point). Resets seq and the elapsed epoch.
  void start(std::FILE* out, long long every_ms);
  // Disarms and flushes. Emitting while stopped is a no-op.
  void stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Hot-path hook: one relaxed load when the sink is off or the ticker has
  // not expired; renders and writes a line otherwise.
  void maybe_emit(const Progress& p) {
    if (active()) emit_throttled(p);
  }

  // Bypasses the throttle and marks the line "final":true -- the run's last
  // word (completed / cancelled / deadline-expired / error) so interrupted
  // runs still close their stream.
  void emit_final(const Progress& p);

  // Lines written since start() (tests; under the write mutex).
  std::uint64_t lines_emitted() const;

  // Tags every line emitted FROM THIS THREAD with "job":"<id>" until
  // cleared (empty string). dft::serve workers set the tag for the span of
  // a job so a client can demultiplex concurrent jobs' progress; engine
  // sub-pools spawned by a job run on their own untagged threads, so only
  // the job's own thread attributes its lines (documented serve behavior).
  static void set_thread_job(std::string job);
  static const std::string& thread_job();

  // Renders one line (no trailing newline) exactly as the sink writes it;
  // exposed so tests can golden the encoding without a FILE*. `job` empty
  // omits the "job" key.
  static std::string render_line(const Progress& p, std::uint64_t seq,
                                 long long elapsed_ms, long long eta_ms,
                                 double events_per_sec, long long rss_bytes,
                                 bool final_event,
                                 std::string_view job = {});

 private:
  void emit_throttled(const Progress& p);
  void write_line(const Progress& p, bool final_event);

  std::atomic<bool> active_{false};
  std::atomic<std::int64_t> next_emit_us_{0};
  long long every_us_ = 0;
  std::FILE* out_ = nullptr;
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mu_;  // guards out_, seq_, lines_, line ordering
  std::uint64_t seq_ = 0;
  std::uint64_t lines_ = 0;
  // Per-phase coverage high-water marks for the monotonicity clamp.
  std::map<std::string, double, std::less<>> last_coverage_;
};

}  // namespace dft::obs
