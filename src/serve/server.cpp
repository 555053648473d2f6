#include "serve/server.h"

#include <chrono>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "fault/threaded_fault_sim.h"
#include "fx/fx.h"
#include "jobs/jobs.h"
#include "lint/engine.h"
#include "measure/scoap.h"
#include "obs/obs.h"
#include "obs/progress.h"

namespace dft::serve {

namespace {

void count(const char* name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::Registry::global().counter(name).add(n);
}

}  // namespace

Server::Server(const ServerOptions& opt)
    : opt_(opt), cache_(opt.cache_capacity), pool_(opt.workers) {}

Server::~Server() {
  begin_drain();
  wait_idle();
}

void Server::answer_sync(const WriteFn& write, const std::string& line,
                         std::uint64_t Stats::*counter) {
  bool wrote = true;
  try {
    write(line);
  } catch (...) {
    wrote = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*counter);
  if (!wrote) {
    ++stats_.write_failures;
    count("serve.write_failures");
  }
}

void Server::submit_line(std::string line, WriteFn write) {
  // Chaos: the client died mid-write and we got a line prefix. The server
  // must treat it like any other malformed request, not wedge or crash.
  if (DFT_FX_FIRE("serve.client.truncate")) line.resize(line.size() / 2);
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return;

  if (line.size() > opt_.max_line_bytes) {
    count("serve.bad_requests");
    answer_sync(write,
                render_response_error(
                    "", "", ErrorType::BadRequest,
                    "request line exceeds " +
                        std::to_string(opt_.max_line_bytes) + " bytes"),
                &Stats::bad_requests);
    return;
  }

  ServeRequest req;
  try {
    req = parse_request(line);
  } catch (const RequestError& e) {
    count("serve.bad_requests");
    answer_sync(write, render_response_error(e.id, e.op, e.type, e.what()),
                &Stats::bad_requests);
    return;
  }

  // Admission: bounded in-flight set. Decided under the lock so the shed
  // reason matches what actually blocked the request.
  std::shared_ptr<Job> job;
  ErrorType shed = ErrorType::Overloaded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      shed = ErrorType::Shutdown;
    } else if (jobs_.size() <
               static_cast<std::size_t>(opt_.max_inflight)) {
      job = std::make_shared<Job>();
      job->req = std::move(req);
      job->write = std::move(write);
      job->seq = ++seq_;
      jobs_[job->seq] = job;
      ++stats_.accepted;
    }
  }
  if (job == nullptr) {
    if (shed == ErrorType::Shutdown) {
      count("serve.shed_shutdown");
      answer_sync(write,
                  render_response_error(req.id, op_name(req.op),
                                        ErrorType::Shutdown,
                                        "server is draining"),
                  &Stats::rejected_shutdown);
    } else {
      count("serve.shed_overload");
      answer_sync(write,
                  render_response_error(
                      req.id, op_name(req.op), ErrorType::Overloaded,
                      "admission control: " +
                          std::to_string(opt_.max_inflight) +
                          " requests already in flight; retry later"),
                  &Stats::rejected_overload);
    }
    return;
  }
  count("serve.accepted");
  pool_.submit([this, job] { run_job(job); });
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  // Publish "started" BEFORE checking the answer claim: the drain sweep
  // only answers jobs it observed unstarted, and this ordering closes the
  // race (a sweep that claimed us will be visible in `answered` now).
  job->started.store(true, std::memory_order_seq_cst);
  if (job->answered.load(std::memory_order_seq_cst)) {
    retire(job);
    return;
  }

  obs::ProgressSink::set_thread_job(job->req.id);
  std::string response;
  bool ok = true;
  guard::RunStatus status = guard::RunStatus::Completed;
  try {
    if (DFT_FX_FIRE("serve.job.stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          fx::payload_ms("serve.job.stall", 25)));
    }
    if (DFT_FX_FIRE("serve.job.exception")) {
      throw std::runtime_error(
          "injected worker fault (fx site serve.job.exception)");
    }
    response = execute(*job, status);
  } catch (const RequestError& e) {
    ok = false;
    response = render_response_error(e.id.empty() ? job->req.id : e.id,
                                     op_name(job->req.op), e.type, e.what());
  } catch (const std::invalid_argument& e) {
    // Job-level argument checks (a single-machine engine asked for more
    // than one thread): the request asked for something that cannot run.
    ok = false;
    response = render_response_error(job->req.id, op_name(job->req.op),
                                     ErrorType::BadRequest, e.what());
  } catch (const std::exception& e) {
    ok = false;
    response = render_response_error(job->req.id, op_name(job->req.op),
                                     ErrorType::Internal, e.what());
  } catch (...) {
    ok = false;
    response = render_response_error(job->req.id, op_name(job->req.op),
                                     ErrorType::Internal, "unknown exception");
  }
  deliver(*job, response, ok,
          ok && status != guard::RunStatus::Completed);
  // Close this job's progress stream with a "final":true line (carrying the
  // thread's job tag), mirroring the CLI contract that every run's stream
  // ends with its status -- even when the answer was an error.
  if (obs::ProgressSink::global().active()) {
    obs::Progress ev;
    ev.phase = op_name(job->req.op);
    ev.status = ok ? guard::to_string(status) : "error";
    obs::ProgressSink::global().emit_final(ev);
  }
  obs::ProgressSink::set_thread_job({});
  retire(job);
}

std::string Server::execute(Job& job, guard::RunStatus& status_out) {
  const ServeRequest& req = job.req;
  const auto t0 = std::chrono::steady_clock::now();

  const std::string cache_key = circuit_cache_key(req);
  std::string cache_state = "hit";
  std::shared_ptr<const CompiledCircuit> circuit = cache_.get(cache_key);
  if (circuit == nullptr) {
    try {
      circuit = compile_circuit(req);
    } catch (const std::exception& e) {
      // Unknown built-in or unparsable inline bench source: the request is
      // at fault, not the server.
      throw RequestError(ErrorType::BadRequest,
                         std::string("cannot compile circuit: ") + e.what(),
                         req.id, std::string(op_name(req.op)));
    }
    // A failed insert (capacity 0, injected allocation pressure) degrades
    // to uncached execution -- never to a failed request.
    cache_state = cache_.put(cache_key, circuit) ? "miss" : "uncached";
  }

  const guard::Budget budget = jobs::make_budget(
      req.options.deadline_ms >= 0 ? req.options.deadline_ms
                                   : opt_.default_deadline_ms,
      job.token);

  const Netlist& nl = circuit->netlist;
  guard::RunStatus status = guard::RunStatus::Completed;
  std::string result;
  switch (req.op) {
    case Op::Lint: {
      const LintReport rep = lint_netlist(nl);
      obs::JsonWriter b;
      b.begin_object()
          .int_field("errors", rep.errors())
          .int_field("warnings", rep.warnings())
          .int_field("diagnostics",
                     static_cast<long long>(rep.diagnostics.size()))
          .bool_field("passed", rep.passed())
          .end_object();
      result = b.take();
      break;
    }
    case Op::Measure: {
      const ScoapResult sc = compute_scoap(nl);
      const std::vector<GateId> hardest = rank_hardest_nets(nl, sc, 1);
      obs::JsonWriter b;
      b.begin_object().int_field("gates", static_cast<long long>(nl.size()));
      if (!hardest.empty()) {
        b.int_field("hardest_difficulty", sc.difficulty(hardest[0]));
        b.string_field("hardest_net", nl.gate_name(hardest[0]));
      }
      b.end_object();
      result = b.take();
      break;
    }
    case Op::Atpg:
      result = execute_atpg(job, *circuit, cache_key, budget, status);
      break;
    case Op::FaultSim: {
      std::mt19937_64 rng(req.options.seed);
      std::vector<SourceVector> patterns;
      patterns.reserve(static_cast<std::size_t>(req.options.patterns));
      for (int p = 0; p < req.options.patterns; ++p) {
        patterns.push_back(random_source_vector(nl, rng));
      }
      const auto engine =
          make_fault_sim_engine(nl, req.options.engine, req.options.threads);
      engine->set_progress_phase("serve.fault_sim");
      const FaultSimResult r =
          engine->run(patterns, circuit->faults, true, &budget);
      status = r.status;
      obs::JsonWriter b;
      b.begin_object()
          .int_field("faults", static_cast<long long>(circuit->faults.size()))
          .int_field("patterns", static_cast<long long>(patterns.size()))
          .int_field("detected", r.num_detected)
          .number_field("coverage_pct", 100 * r.coverage())
          .end_object();
      result = b.take();
      break;
    }
    case Op::Bist: {
      const jobs::BistResult r = jobs::bist(*circuit, req.options, budget);
      status = r.grading.status;
      char sig[20];
      std::snprintf(sig, sizeof sig, "%016llx",
                    static_cast<unsigned long long>(r.signature));
      obs::JsonWriter b;
      b.begin_object()
          .int_field("patterns", req.options.patterns)
          .string_field("signature", sig)
          .int_field("faults", static_cast<long long>(circuit->faults.size()))
          .int_field("detected", r.grading.num_detected)
          .number_field("coverage_pct", 100 * r.grading.coverage())
          .end_object();
      result = b.take();
      break;
    }
    case Op::Sta: {
      const jobs::StaResult r = jobs::sta(*circuit, req.options, budget);
      status = r.stats.status;
      obs::JsonWriter b;
      b.begin_object()
          .int_field("gates", static_cast<long long>(nl.size()))
          .int_field("constants", r.stats.constants_found)
          .int_field("unobservable", r.stats.unobservable_gates)
          .int_field("untestable", static_cast<long long>(r.untestable.size()))
          .int_field("faults", static_cast<long long>(circuit->faults.size()))
          .end_object();
      result = b.take();
      break;
    }
  }

  status_out = status;
  const long long elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return render_response_ok(req, status, cache_state, elapsed_ms, result);
}

std::string Server::execute_atpg(Job& job, const CompiledCircuit& circuit,
                                 const std::string& cache_key,
                                 const guard::Budget& budget,
                                 guard::RunStatus& status_out) {
  const ServeRequest& req = job.req;
  RetainedPartial partial;
  if (!req.options.resume_of.empty()) {
    if (!find_partial(req.options.resume_of, partial)) {
      throw RequestError(ErrorType::BadRequest,
                         "no retained partial ATPG run for resume_of '" +
                             req.options.resume_of + "'",
                         req.id, std::string(op_name(req.op)));
    }
    if (partial.cache_key != cache_key) {
      throw RequestError(ErrorType::BadRequest,
                         "resume_of '" + req.options.resume_of +
                             "' was produced on a different circuit",
                         req.id, std::string(op_name(req.op)));
    }
  }
  const AtpgRun run =
      jobs::atpg(circuit, req.options, budget,
                 req.options.resume_of.empty() ? nullptr : &partial.run);
  // A cut-short run is retained under THIS job's id so a follow-up request
  // with options.resume_of=<id> continues instead of restarting -- the
  // degradation ladder's second rung.
  if (guard::interrupted(run.status)) {
    retain_partial(req.id, cache_key, run);
    count("serve.atpg.partials_retained");
  }
  status_out = run.status;

  obs::JsonWriter b;
  b.begin_object()
      .int_field("faults", run.num_faults)
      .int_field("detected", run.detected)
      .number_field("coverage_pct", 100 * run.fault_coverage())
      .number_field("test_coverage_pct", 100 * run.test_coverage())
      .int_field("tests", static_cast<long long>(run.tests.size()))
      .int_field("redundant", static_cast<long long>(run.redundant.size()))
      .int_field("aborted", static_cast<long long>(run.aborted.size()))
      .int_field("remaining", static_cast<long long>(run.remaining.size()))
      .int_field("statically_pruned", run.statically_pruned)
      .bool_field("resumable", guard::interrupted(run.status));
  if (req.options.include_tests) {
    b.key("vectors").begin_array();
    for (const SourceVector& t : run.tests) {
      std::string s;
      s.reserve(t.size());
      for (Logic l : t) s += to_char(l);
      b.string_value(s);
    }
    b.end_array();
  }
  b.end_object();
  return b.take();
}

void Server::deliver(Job& job, const std::string& line, bool ok,
                     bool degraded) {
  if (job.answered.exchange(true, std::memory_order_seq_cst)) {
    return;  // the drain sweep answered first; drop the duplicate
  }
  bool wrote = true;
  try {
    job.write(line);
  } catch (...) {
    wrote = false;
  }
  count(ok ? "serve.answers_ok" : "serve.answers_error");
  if (degraded) count("serve.answers_degraded");
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++stats_.completed_ok;
    if (degraded) ++stats_.degraded;
  } else {
    ++stats_.job_errors;
  }
  if (!wrote) {
    ++stats_.write_failures;
    count("serve.write_failures");
  }
}

void Server::retire(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(job->seq);
  }
  idle_cv_.notify_all();
}

void Server::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.exchange(true, std::memory_order_acq_rel)) return;
    // Cancel every in-flight budget: running jobs answer with their
    // cancelled partials at the next cooperative poll.
    for (auto& [seq, job] : jobs_) job->token->cancel();
  }
  // Drop queued-but-unstarted closures, then answer those jobs directly:
  // running them against an already-cancelled deadline would waste the
  // drain window, and silently dropping them would leak an answer.
  pool_.cancel_pending();
  std::vector<std::shared_ptr<Job>> unstarted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [seq, job] : jobs_) {
      if (!job->started.load(std::memory_order_seq_cst)) {
        unstarted.push_back(job);
      }
    }
  }
  for (const std::shared_ptr<Job>& job : unstarted) {
    if (job->answered.exchange(true, std::memory_order_seq_cst)) continue;
    bool wrote = true;
    try {
      job->write(render_response_error(
          job->req.id, op_name(job->req.op), ErrorType::Shutdown,
          "server drained before the job started"));
    } catch (...) {
      wrote = false;
    }
    count("serve.drained_unstarted");
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.drained_unstarted;
      if (!wrote) {
        ++stats_.write_failures;
        count("serve.write_failures");
      }
    }
    retire(job);
  }
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return jobs_.empty(); });
}

bool Server::wait_idle_for(long long ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                           [this] { return jobs_.empty(); });
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t Server::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

void Server::retain_partial(const std::string& job_id,
                            const std::string& cache_key, const AtpgRun& run) {
  if (opt_.retained_partials == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (partials_.find(job_id) == partials_.end()) {
    partial_order_.push_back(job_id);
    while (partial_order_.size() > opt_.retained_partials) {
      partials_.erase(partial_order_.front());
      partial_order_.pop_front();
    }
  }
  partials_[job_id] = RetainedPartial{run, cache_key};
}

bool Server::find_partial(const std::string& job_id,
                          RetainedPartial& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = partials_.find(job_id);
  if (it == partials_.end()) return false;
  out = it->second;
  return true;
}

}  // namespace dft::serve
