// dft::serve -- the long-lived analysis daemon.
//
// `dft_tool serve` keeps one process resident and feeds it JSON-lines
// requests (stdin/stdout by default, a Unix socket with --socket): lint,
// measure (SCOAP), atpg, fault_sim, bist, and sta jobs over built-in or
// inline-.bench circuits. Amortizing process start-up, netlist parsing, and
// fault collapsing across requests is the point -- compiled circuits live
// in a content-keyed LRU (cache.h) and jobs run concurrently on a
// ThreadPool, each under its own guard::Budget.
//
// The robustness contract, enforced by the chaos suite under dft::fx
// injection (tests/serve_test.cpp, bench_serve --chaos):
//
//  * Every accepted line is answered exactly once -- an ok response
//    (possibly degraded:true with a valid partial) or a typed error. No
//    crash, no leaked job, no silent drop, under injected cache-insert
//    failures, worker exceptions, job stalls, and truncated client lines.
//  * Admission control: at most max_inflight jobs are in the system; excess
//    requests are shed IMMEDIATELY with a typed "overloaded" error (bounded
//    queueing -- a stalled pool cannot grow an unbounded backlog).
//  * Graceful degradation: a per-request deadline (or the server default)
//    rides the existing guard::Budget machinery, so a deadline-expired ATPG
//    answers with the partial run -- tests generated so far, remaining
//    faults -- marked degraded:true, and a later request can pick it up via
//    options.resume_of.
//  * Malformed-request isolation: a line that fails to parse poisons
//    nothing; it is answered with bad_request and the next line proceeds.
//  * Graceful drain: begin_drain() rejects new work ("shutdown"), cancels
//    in-flight budgets (each job answers with its cancelled partial), and
//    answers queued-but-unstarted jobs via ThreadPool::cancel_pending()
//    plus a shutdown error -- wait_idle() then returns with zero jobs in
//    flight. The destructor drains the same way.
//
// The Server core is transport-agnostic and in-process testable: callers
// push lines via submit_line() with a per-request write callback. The
// stdio/Unix-socket front ends (serve_stdio / serve_unix_socket) own the
// poll loops and the 0/3 exit-code mapping.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "atpg/engine.h"
#include "guard/guard.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "sim/thread_pool.h"

namespace dft::serve {

struct ServerOptions {
  int workers = 2;            // job-level concurrency (ThreadPool size)
  int max_inflight = 8;       // admission cap: accepted-but-unanswered jobs
  std::size_t cache_capacity = 8;      // compiled circuits kept resident
  long long default_deadline_ms = -1;  // per-job deadline when the request
                                       // carries none; -1 = unlimited
  std::size_t max_line_bytes = 1 << 20;  // admission: oversized lines shed
  std::size_t retained_partials = 8;     // interrupted ATPG runs kept for
                                         // options.resume_of
};

class Server {
 public:
  // Delivers one response line (no trailing newline) for a request. May be
  // invoked from a worker thread, or synchronously from submit_line() for
  // requests rejected before admission. A throwing WriteFn (client gone)
  // is counted as a write failure and never unwinds a worker.
  using WriteFn = std::function<void(const std::string& line)>;

  explicit Server(const ServerOptions& opt = {});
  // Drains: cancels in-flight jobs, answers unstarted ones, waits idle.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Thread-safe entry point for one request line. Guarantees exactly one
  // `write` invocation per non-blank line (blank/whitespace lines are
  // ignored): synchronously for parse/admission rejections, from a worker
  // otherwise.
  void submit_line(std::string line, WriteFn write);

  // Stops admitting (new lines answer with a "shutdown" error), cancels
  // every in-flight job's CancelToken, and answers queued-but-unstarted
  // jobs without running them. Idempotent; returns without waiting.
  void begin_drain();
  // Blocks until every accepted job has been answered and retired.
  void wait_idle();
  // Timed variant: true when idle was reached within `ms` milliseconds.
  // The transports use it so an EOF drain still notices a late signal and
  // escalates to begin_drain() instead of waiting out a long job.
  bool wait_idle_for(long long ms);
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  struct Stats {
    std::uint64_t accepted = 0;          // admitted into the pool
    std::uint64_t completed_ok = 0;      // ok:true answers (incl. degraded)
    std::uint64_t degraded = 0;          // subset of completed_ok
    std::uint64_t job_errors = 0;        // typed errors answered by workers
    std::uint64_t bad_requests = 0;      // parse/validation rejections
    std::uint64_t rejected_overload = 0; // shed by admission control
    std::uint64_t rejected_shutdown = 0; // shed at admission while draining
    std::uint64_t drained_unstarted = 0; // accepted, answered by the drain
                                         // sweep before a worker ran them
    std::uint64_t write_failures = 0;    // answers lost to a dead client
    // Invariant (chaos-checked): every accepted job lands in exactly one of
    // completed_ok / job_errors / drained_unstarted; rejected_* count lines
    // shed before admission (+write_failures counts deliveries that failed,
    // not jobs).
  };
  Stats stats() const;
  NetlistCache& cache() { return cache_; }
  std::size_t inflight() const;

 private:
  struct Job {
    ServeRequest req;
    WriteFn write;
    std::uint64_t seq = 0;
    std::shared_ptr<guard::CancelToken> token =
        std::make_shared<guard::CancelToken>();
    // Exactly-once answer claim: whoever exchanges false->true delivers.
    std::atomic<bool> answered{false};
    // Set by the worker before it checks `answered`: the drain sweep only
    // claims jobs it observes unstarted, so a running job keeps the right
    // to answer with its (more useful) cancelled partial result.
    std::atomic<bool> started{false};
  };
  struct RetainedPartial {
    AtpgRun run;
    std::string cache_key;
  };

  void run_job(const std::shared_ptr<Job>& job);
  // Executes the op; returns the rendered ok-response line. Throws
  // RequestError for job-level validation failures, anything else for
  // internal ones.
  std::string execute(Job& job, guard::RunStatus& status_out);
  std::string execute_atpg(Job& job, const CompiledCircuit& circuit,
                           const std::string& cache_key,
                           const guard::Budget& budget,
                           guard::RunStatus& status_out);
  void deliver(Job& job, const std::string& line, bool ok, bool degraded);
  // Pre-admission rejection: writes `line` synchronously and bumps the
  // given stats counter (plus write_failures when the client is gone).
  void answer_sync(const WriteFn& write, const std::string& line,
                   std::uint64_t Stats::*counter);
  void retire(const std::shared_ptr<Job>& job);
  void retain_partial(const std::string& job_id, const std::string& cache_key,
                      const AtpgRun& run);
  bool find_partial(const std::string& job_id, RetainedPartial& out) const;

  const ServerOptions opt_;
  NetlistCache cache_;
  std::atomic<bool> draining_{false};
  mutable std::mutex mu_;  // guards jobs_, stats_, partials_, seq_
  std::condition_variable idle_cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t seq_ = 0;
  Stats stats_;
  std::map<std::string, RetainedPartial> partials_;
  std::deque<std::string> partial_order_;  // FIFO bound on partials_
  // Declared LAST on purpose: the pool is destroyed (and its workers
  // joined) before any member a late-running job closure could touch.
  ThreadPool pool_;
};

// Serves JSON-lines over stdio: reads requests from `in` until EOF or
// `stop` fires, writes responses (and nothing else) to `out`. EOF waits for
// the in-flight jobs to finish naturally and returns 0; a fired stop token
// (SIGINT/SIGTERM) drains via begin_drain() and returns 3 -- matching the
// dft_tool exit-code contract.
int serve_stdio(Server& server, std::FILE* in, std::FILE* out,
                const guard::CancelToken& stop);

// Serves JSON-lines over a Unix stream socket at `path` (created, and
// unlinked on exit), multiple concurrent clients. Runs until `stop` fires,
// then drains and returns 3. Throws std::runtime_error when the socket
// cannot be created.
int serve_unix_socket(Server& server, const std::string& path,
                      const guard::CancelToken& stop);

}  // namespace dft::serve
