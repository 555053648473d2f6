// dft_tool -- a command-line driver over the library's public API.
//
//   dft_tool stats   <file.bench>          structural summary
//   dft_tool scoap   <file.bench> [N]      N hardest nets (default 10)
//   dft_tool faults  <file.bench>          fault universe / collapsing
//   dft_tool atpg    <file.bench> [--threads N] [--engine E]
//                    [--time-budget-ms M] [--retry-aborted]
//                                          full ATPG run + test vectors;
//                                          N >= 1 fault-sim workers
//                                          (default 1);
//                                          E = serial|deductive|event
//                                          (default event; every engine
//                                          gives identical results);
//                                          M caps wall time -- an expired
//                                          budget exits 3 with the partial
//                                          result printed/reported;
//                                          --retry-aborted re-attacks
//                                          aborted faults with escalating
//                                          limits + a D-algorithm prover
//   dft_tool bist    <file.bench> [--patterns N] [--threads N] [--engine E]
//                                          pseudo-random self-test: LFSR
//                                          PRPG patterns, signature-register
//                                          response compaction, fault-sim
//                                          coverage grading
//   dft_tool scan    <file.bench> [chains] LSSD insertion, writes result
//   dft_tool lint    <file.bench> [--json] [--scan-first]
//                                          design-rule check; exits 1 on any
//                                          error-severity violation
//   dft_tool sta     <file.bench> [--no-learn] [--faults]
//                    [--time-budget-ms M]   static structural analysis:
//                                          proven-constant lines,
//                                          unobservable gates, and the
//                                          statically untestable share of
//                                          the collapsed fault universe
//                                          (--faults lists each one); the
//                                          sta.* counters land in the obs
//                                          report
//   dft_tool simd    [--names]             show the SIMD pattern-word lanes
//                                          this host can run and which one
//                                          DFT_SIMD resolves to; --names
//                                          prints just the available lane
//                                          names (for scripting)
//   dft_tool serve   [--socket <path>] [--workers N] [--max-inflight N]
//                    [--cache-size N] [--default-deadline-ms M]
//                                          long-lived JSON-lines daemon:
//                                          reads one request per line
//                                          (data/serve_request_schema_v1
//                                          .json) from stdin -- or from
//                                          concurrent clients of a Unix
//                                          socket with --socket -- and
//                                          answers every line with one
//                                          response line (data/serve_
//                                          response_schema_v1.json): jobs
//                                          run concurrently on N workers,
//                                          compiled circuits are cached,
//                                          overload is shed with a typed
//                                          error, and deadline-expired jobs
//                                          answer degraded:true partials.
//                                          EOF drains and exits 0; SIGINT/
//                                          SIGTERM cancels in-flight jobs
//                                          (each still answers) and exits
//                                          3. stdout carries only protocol
//                                          lines; diagnostics go to stderr.
//   dft_tool export  <name> <out.bench>    dump a built-in circuit
//
// The pattern-word width of the PPSFP engines (64/256/512 patterns per
// pass) is picked at runtime: DFT_SIMD=auto|off|scalar4|scalar8|avx2|avx512
// in the environment overrides the build default (auto = widest ISA the
// host supports). Every lane produces bit-identical detections.
//
// Observability flags, accepted by every command:
//   --stats               print the dft::obs metrics table after the run
//   --report-json <file>  write the versioned machine-readable run report
//   --trace-json <file>   write a Chrome trace_event JSON (chrome://tracing)
//   --progress-every-ms N stream NDJSON progress events (schema
//                         data/obs_progress_schema_v2.json), at most one
//                         every N ms, to stderr or --progress-file <file>;
//                         the stream always closes with a "final":true line
//                         carrying the run status, even on ^C / budget
//                         expiry / error
// DFT_OBS=0 in the environment disables all metric recording.
//
// Every command that reads a .bench file also accepts a built-in circuit
// name: c17, adder4, adder8, mult3, dec3, parity8, mux3, cmp4, sn74181,
// counter8, accum4, rand2k, rand20k.
//
// Exit codes: 0 success, 1 runtime failure (including lint errors), 2 usage
// error, 3 budget expired / interrupted with a valid partial result.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "fx/fx.h"
#include "guard/guard.h"
#include "fault/fault.h"
#include "fault/threaded_fault_sim.h"
#include "lfsr/lfsr.h"
#include "lint/engine.h"
#include "measure/scoap.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scan/scan_insert.h"
#include "serve/server.h"
#include "sim/comb_sim.h"
#include "sim/simd.h"
#include "sta/sta.h"

using namespace dft;

namespace {

// Exit codes (also asserted by the ctest suite).
constexpr int kExitOk = 0;
constexpr int kExitRuntimeError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInterrupted = 3;  // budget expired / ^C, partial emitted

int usage() {
  std::fprintf(stderr,
               "usage: dft_tool {stats|scoap|faults|atpg|scan} <file.bench> "
               "[arg]\n       dft_tool atpg <file.bench> [--threads N] "
               "[--engine serial|deductive|event]\n"
               "                     [--time-budget-ms M] [--retry-aborted]\n"
               "       dft_tool bist <file.bench> [--patterns N] "
               "[--threads N] [--engine E]\n"
               "                     [--time-budget-ms M]\n"
               "       dft_tool lint <file.bench> [--json] "
               "[--scan-first]\n"
               "       dft_tool sta <file.bench> [--no-learn] [--faults] "
               "[--time-budget-ms M]\n"
               "       dft_tool simd [--names]\n"
               "       dft_tool serve [--socket <path>] [--workers N] "
               "[--max-inflight N]\n"
               "                      [--cache-size N] "
               "[--default-deadline-ms M]\n"
               "       dft_tool export <name> <out.bench>\n"
               "valid --engine values: event (default), serial, deductive\n"
               "DFT_SIMD=auto|off|scalar4|scalar8|avx2|avx512 selects the "
               "PPSFP pattern-word lane\n"
               "observability (any command): [--stats] "
               "[--report-json <file>] [--trace-json <file>]\n"
               "                             [--progress-every-ms N] "
               "[--progress-file <file>]\n");
  return kExitUsage;
}

// ^C requests cooperative cancellation: the running phase stops at its next
// poll and the partial result is printed/reported like a deadline expiry.
// CancelToken::cancel is a relaxed atomic store -- async-signal-safe.
guard::CancelToken& sigint_token() {
  static guard::CancelToken token;
  return token;
}

extern "C" void handle_sigint(int) { sigint_token().cancel(); }

// Shares the process-lifetime SIGINT token with a Budget (no-op deleter:
// the token outlives every budget).
std::shared_ptr<guard::CancelToken> sigint_token_ref() {
  return {&sigint_token(), [](guard::CancelToken*) {}};
}

// The name table lives in dft::serve (the daemon resolves the same names
// for its requests); the CLI delegates so the two can never drift apart.
Netlist builtin(const std::string& name) {
  return serve::builtin_circuit(name);
}

// Observability outputs requested on the command line. The flags are
// extracted before mode dispatch so every mode accepts them uniformly.
struct ObsFlags {
  bool stats = false;
  std::string trace_path;
  std::string report_path;
  long long progress_every_ms = -1;  // -1 = progress streaming off
  std::string progress_path;         // empty = stderr
};

bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

// Writes the stats table / report JSON / trace JSON as requested. Returns
// false when a file cannot be written.
bool emit_obs_outputs(const ObsFlags& flags, const std::string& tool,
                      const std::map<std::string, std::string>& context) {
  obs::ReportOptions ropt;
  ropt.tool = tool;
  ropt.context = context;
  const obs::Registry& reg = obs::Registry::global();
  if (flags.stats) {
    std::printf("%s", obs::render_report_text(reg, ropt).c_str());
  }
  if (!flags.report_path.empty()) {
    std::ofstream out(flags.report_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.report_path.c_str());
      return false;
    }
    out << obs::render_report_json(reg, ropt) << "\n";
  }
  if (!flags.trace_path.empty()) {
    obs::Tracer::global().stop();
    std::ofstream out(flags.trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_path.c_str());
      return false;
    }
    out << obs::Tracer::global().render_chrome_json() << "\n";
  }
  return true;
}

int run_tool(const std::vector<std::string>& args,
             std::map<std::string, std::string>& context) {
  const std::string& cmd = args[0];
  context["command"] = cmd;

  if (cmd == "simd") {
    // No circuit argument: this mode reports host capabilities, not a run.
    bool names_only = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--names") names_only = true;
      else return usage();
    }
    const std::vector<simd::Lane> lanes = simd::available_lanes();
    const simd::Lane active = simd::resolve_lane();
    if (names_only) {
      // Space-separated, one line: `for lane in $(dft_tool simd --names)`.
      std::string line;
      for (const simd::Lane l : lanes) {
        if (!line.empty()) line += ' ';
        line += simd::lane_name(l);
      }
      std::printf("%s\n", line.c_str());
    } else {
      std::printf("available pattern-word lanes:\n");
      for (const simd::Lane l : lanes) {
        std::printf("  %-8s %3d patterns/word  tag=%-10s%s\n",
                    std::string(simd::lane_name(l)).c_str(),
                    simd::lane_bits(l),
                    std::string(simd::lane_tag(l)).c_str(),
                    l == active ? "  <-- active" : "");
      }
      std::printf("resolved lane: %s (%s)\n",
                  std::string(simd::lane_name(active)).c_str(),
                  std::string(simd::resolve_diagnostic()).c_str());
    }
    context["simd"] = std::string(simd::lane_tag(active));
    return 0;
  }

  if (cmd == "serve") {
    serve::ServerOptions sopt;
    std::string socket_path;
    for (std::size_t i = 1; i < args.size(); ++i) {
      int v = 0;
      if (args[i] == "--socket" && i + 1 < args.size()) {
        socket_path = args[++i];
      } else if (args[i] == "--workers" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), v) || v < 1) return usage();
        sopt.workers = v;
      } else if (args[i] == "--max-inflight" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), v) || v < 1) return usage();
        sopt.max_inflight = v;
      } else if (args[i] == "--cache-size" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), v) || v < 0) return usage();
        sopt.cache_capacity = static_cast<std::size_t>(v);
      } else if (args[i] == "--default-deadline-ms" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), v) || v < 0) return usage();
        sopt.default_deadline_ms = v;
      } else {
        return usage();
      }
    }
    // Daemons are stopped with SIGTERM; route it onto the same cooperative
    // token as ^C. A client that dies mid-response must yield EPIPE on the
    // write (counted, job retired), not a process-killing SIGPIPE.
    std::signal(SIGTERM, handle_sigint);
    std::signal(SIGPIPE, SIG_IGN);
    context["transport"] = socket_path.empty() ? "stdio" : "unix-socket";
    context["workers"] = std::to_string(sopt.workers);
    context["max_inflight"] = std::to_string(sopt.max_inflight);

    serve::Server server(sopt);
    const int rc = socket_path.empty()
                       ? serve::serve_stdio(server, stdin, stdout,
                                            sigint_token())
                       : serve::serve_unix_socket(server, socket_path,
                                                  sigint_token());
    const serve::Server::Stats s = server.stats();
    context["status"] = rc == 0 ? "completed" : "cancelled";
    context["accepted"] = std::to_string(s.accepted);
    // stdout is the protocol channel; the human-facing summary is stderr's.
    std::fprintf(stderr,
                 "serve: %llu accepted (%llu ok, %llu degraded, %llu "
                 "errors, %llu drained), %llu bad requests, %llu shed "
                 "overloaded, %llu shed shutdown, %llu write failures\n",
                 static_cast<unsigned long long>(s.accepted),
                 static_cast<unsigned long long>(s.completed_ok),
                 static_cast<unsigned long long>(s.degraded),
                 static_cast<unsigned long long>(s.job_errors),
                 static_cast<unsigned long long>(s.drained_unstarted),
                 static_cast<unsigned long long>(s.bad_requests),
                 static_cast<unsigned long long>(s.rejected_overload),
                 static_cast<unsigned long long>(s.rejected_shutdown),
                 static_cast<unsigned long long>(s.write_failures));
    return rc;
  }

  context["circuit"] = args[1];

  if (cmd == "export") {
    if (args.size() < 3) return usage();
    const Netlist nl = builtin(args[1]);
    std::ofstream out(args[2]);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args[2].c_str());
      return 1;
    }
    write_bench(out, nl);
    std::printf("wrote %s (%zu gates)\n", args[2].c_str(), nl.size());
    return 0;
  }

  const Netlist nl = [&] {
    obs::Phase phase("parse");
    // Accept either a .bench file or a built-in circuit name.
    if (std::ifstream probe(args[1]); probe.good()) {
      return read_bench_file(args[1].c_str());
    }
    return builtin(args[1]);
  }();

  if (cmd == "lint") {
    bool json = false, scan_first = false;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--json") json = true;
      else if (args[i] == "--scan-first") scan_first = true;
      else return usage();
    }
    Netlist copy = nl;
    if (scan_first) insert_scan(copy, ScanStyle::Lssd);
    obs::Phase phase("lint");
    const LintReport report = lint_netlist(copy);
    std::printf("%s", (json ? render_json(copy, report)
                            : render_text(copy, report)).c_str());
    if (json) std::printf("\n");
    return report.passed() ? 0 : 1;
  }
  if (cmd == "stats") {
    const NetlistStats s = compute_stats(nl);
    std::printf("%s: PI=%d PO=%d FF=%d (scan %d) gates=%d GE=%d depth=%d "
                "maxfi=%d maxfo=%d\n",
                args[1].c_str(), s.primary_inputs, s.primary_outputs,
                s.storage_elements, s.scannable_storage,
                s.combinational_gates, s.gate_equivalents, s.depth,
                s.max_fanin, s.max_fanout);
    return 0;
  }
  if (cmd == "scoap") {
    const std::size_t n = args.size() > 2 ? std::stoul(args[2]) : 10;
    std::printf("%s", scoap_report(nl, compute_scoap(nl), n).c_str());
    return 0;
  }
  if (cmd == "faults") {
    const CollapseResult col = collapse_faults(nl);
    std::printf("fault universe: %zu, collapsed: %zu (%.1f%%), "
                "checkpoints: %zu\n",
                col.universe.size(), col.representatives.size(),
                100 * col.collapse_ratio(), checkpoint_faults(nl).size());
    return 0;
  }
  if (cmd == "atpg") {
    AtpgOptions opt;
    opt.backtrack_limit = 100000;
    long long budget_ms = -1;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), opt.threads) || opt.threads < 1) {
          std::fprintf(stderr, "--threads must be >= 1 (got %s)\n",
                       args[i].c_str());
          return usage();
        }
      } else if (args[i] == "--engine" && i + 1 < args.size()) {
        opt.engine = args[++i];
      } else if (args[i] == "--time-budget-ms" && i + 1 < args.size()) {
        int ms = 0;
        if (!parse_int(args[++i].c_str(), ms) || ms < 0) return usage();
        budget_ms = ms;
      } else if (args[i] == "--retry-aborted") {
        opt.retry_aborted = true;
      } else {
        return usage();
      }
    }
    context["threads"] = std::to_string(opt.threads);
    context["engine"] = opt.engine.empty() ? "event" : opt.engine;
    const auto faults = [&] {
      obs::Phase phase("collapse");
      return collapse_faults(nl).representatives;
    }();
    // Arm the budget only now, after parse and collapse: the deadline
    // covers the ATPG run itself. The SIGINT token is attached either way
    // so ^C degrades gracefully even without --time-budget-ms.
    if (budget_ms >= 0) opt.budget.set_deadline_ms(budget_ms);
    opt.budget.set_cancel_token(sigint_token_ref());
    const AtpgRun run = run_atpg(nl, faults, opt);
    context["status"] = std::string(guard::to_string(run.status));
    context["elapsed_ms"] = std::to_string(run.elapsed_ms);
    std::printf("%zu faults: coverage %.2f%% (test coverage %.2f%%), "
                "%zu tests, %zu redundant, %zu aborted "
                "(backtrack limit %d)\n",
                faults.size(), 100 * run.fault_coverage(),
                100 * run.test_coverage(), run.tests.size(),
                run.redundant.size(), run.aborted.size(),
                run.backtrack_limit);
    std::printf("status %s after %lld ms", guard::to_string(run.status).data(),
                run.elapsed_ms);
    if (opt.retry_aborted) {
      std::printf(", retries %d (rescued %d)", run.retry_attempts,
                  run.retry_rescued);
    }
    if (!run.remaining.empty()) {
      std::printf(", %zu faults remaining", run.remaining.size());
    }
    std::printf("\n");
    for (const auto& t : run.tests) {
      std::string s;
      for (Logic l : t) s += to_char(l);
      std::printf("  %s\n", s.c_str());
    }
    for (const Fault& f : run.redundant) {
      std::printf("  redundant: %s\n", fault_name(nl, f).c_str());
    }
    return guard::interrupted(run.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "bist") {
    int patterns = 1024, threads = 1;
    long long budget_ms = -1;
    std::string engine;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--patterns" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), patterns) || patterns <= 0) {
          return usage();
        }
      } else if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_int(args[++i].c_str(), threads) || threads < 1) {
          std::fprintf(stderr, "--threads must be >= 1 (got %s)\n",
                       args[i].c_str());
          return usage();
        }
      } else if (args[i] == "--engine" && i + 1 < args.size()) {
        engine = args[++i];
      } else if (args[i] == "--time-budget-ms" && i + 1 < args.size()) {
        int ms = 0;
        if (!parse_int(args[++i].c_str(), ms) || ms < 0) return usage();
        budget_ms = ms;
      } else {
        return usage();
      }
    }
    context["threads"] = std::to_string(threads);
    context["patterns"] = std::to_string(patterns);
    context["engine"] = engine.empty() ? "event" : engine;
    const auto faults = [&] {
      obs::Phase phase("collapse");
      return collapse_faults(nl).representatives;
    }();

    // PRPG: one maximal LFSR feeding every source serially, exactly like a
    // pseudo-random scan-BIST session shifting the chain from the generator.
    const std::size_t nsrc = source_count(nl);
    std::vector<SourceVector> tests;
    {
      obs::Phase phase("bist.prpg");
      Lfsr prpg = Lfsr::maximal(24, 0x5eed);
      tests.reserve(static_cast<std::size_t>(patterns));
      for (int p = 0; p < patterns; ++p) {
        SourceVector v(nsrc);
        for (auto& bit : v) bit = to_logic(prpg.step());
        tests.push_back(std::move(v));
      }
    }

    // Good-machine signature: serialize every primary-output response
    // through a signature analyzer (Fig. 8), as scan-out would.
    std::uint64_t signature = 0;
    std::uint64_t signature_updates = 0;
    {
      obs::Phase phase("bist.signature");
      CombSim sim(nl);
      SignatureAnalyzer sa(32);
      for (const SourceVector& v : tests) {
        std::size_t k = 0;
        for (GateId g : nl.inputs()) sim.set_value(g, v[k++]);
        for (GateId g : nl.storage()) sim.set_value(g, v[k++]);
        sim.evaluate();
        for (GateId po : nl.outputs()) {
          sa.shift(sim.value(po) == Logic::One);
          ++signature_updates;
        }
      }
      signature = sa.signature();
    }

    // The deadline covers the coverage-grading fault simulation, the
    // expensive part of the session; the PRPG and good-machine signature
    // above are a negligible prefix.
    guard::Budget budget;
    if (budget_ms >= 0) budget.set_deadline_ms(budget_ms);
    budget.set_cancel_token(sigint_token_ref());

    // Coverage grading of the pseudo-random pattern set.
    const FaultSimResult sim_result = [&] {
      obs::Phase phase("bist.fault_sim");
      const auto fsim = make_fault_sim_engine(nl, engine, threads);
      fsim->set_progress_phase("bist.fault_sim");
      return fsim->run(tests, faults, true, &budget);
    }();

    context["status"] = std::string(guard::to_string(sim_result.status));
    if (obs::enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("bist.prpg.patterns_applied")
          .add(static_cast<std::uint64_t>(patterns));
      reg.counter("bist.prpg.signature_updates").add(signature_updates);
      record_coverage_curve("bist.coverage_curve",
                            sim_result.first_detected_by, tests.size());
    }
    std::printf("%d pseudo-random patterns over %zu sources, signature "
                "%016llx (%llu updates)\n",
                patterns, nsrc,
                static_cast<unsigned long long>(signature),
                static_cast<unsigned long long>(signature_updates));
    std::printf("%zu faults: coverage %.2f%% (%d detected), grading %s\n",
                faults.size(), 100 * sim_result.coverage(),
                sim_result.num_detected,
                guard::to_string(sim_result.status).data());
    return guard::interrupted(sim_result.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "sta") {
    sta::StaOptions opt;
    bool list_faults = false;
    long long budget_ms = -1;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--no-learn") {
        opt.learn = false;
      } else if (args[i] == "--faults") {
        list_faults = true;
      } else if (args[i] == "--time-budget-ms" && i + 1 < args.size()) {
        int ms = 0;
        if (!parse_int(args[++i].c_str(), ms) || ms < 0) return usage();
        budget_ms = ms;
      } else {
        return usage();
      }
    }
    const auto faults = [&] {
      obs::Phase phase("collapse");
      return collapse_faults(nl).representatives;
    }();
    if (budget_ms >= 0) opt.budget.set_deadline_ms(budget_ms);
    opt.budget.set_cancel_token(sigint_token_ref());
    obs::Phase phase("sta");
    const sta::StaticAnalyzer analyzer(nl, opt);
    const std::vector<Fault> untestable = analyzer.untestable_faults(faults);
    const sta::StaStats& s = analyzer.stats();
    context["status"] = std::string(guard::to_string(s.status));
    context["elapsed_ms"] = std::to_string(s.elapsed_ms);
    if (obs::enabled()) {
      obs::Registry::global()
          .counter("sta.untestable_faults")
          .add(static_cast<std::uint64_t>(untestable.size()));
    }
    std::printf("%zu gates: %d constant line(s), %d unobservable gate(s), "
                "%lld learned implication(s) in %d round(s)\n",
                nl.size(), s.constants_found, s.unobservable_gates,
                s.implications_learned, s.fixpoint_iterations);
    std::printf("%zu collapsed faults: %zu statically untestable (%.2f%%), "
                "status %s after %lld ms\n",
                faults.size(), untestable.size(),
                faults.empty() ? 0.0
                               : 100.0 * static_cast<double>(untestable.size()) /
                                     static_cast<double>(faults.size()),
                guard::to_string(s.status).data(), s.elapsed_ms);
    if (list_faults) {
      for (const Fault& f : untestable) {
        std::printf("  untestable: %s\n", fault_name(nl, f).c_str());
      }
    }
    return guard::interrupted(s.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "scan") {
    Netlist copy = nl;
    const int chains = args.size() > 2 ? std::atoi(args[2].c_str()) : 1;
    const ScanInsertionResult res =
        insert_scan(copy, ScanStyle::Lssd, chains);
    std::printf("converted %d flops into %zu chain(s); overhead %.1f%%, "
                "+%d pins\n",
                res.converted_flops, res.chains.size(),
                100 * res.overhead_fraction(), res.extra_pins);
    std::printf("%s", write_bench_string(copy).c_str());
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  std::signal(SIGINT, handle_sigint);
  // Chaos-grade fault injection (dft::fx): armed only when DFT_FX is set.
  // A typo'd spec must fail loudly -- running a chaos campaign that
  // silently injects nothing would validate nothing.
  try {
    fx::arm_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "DFT_FX: %s\n", e.what());
    return kExitUsage;
  }

  // Pull the observability flags out first: they are orthogonal to the mode.
  ObsFlags flags;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      flags.stats = true;
    } else if (std::strcmp(argv[i], "--report-json") == 0 && i + 1 < argc) {
      flags.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-json") == 0 && i + 1 < argc) {
      flags.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--progress-every-ms") == 0 &&
               i + 1 < argc) {
      int ms = 0;
      if (!parse_int(argv[++i], ms) || ms < 0) return usage();
      flags.progress_every_ms = ms;
    } else if (std::strcmp(argv[i], "--progress-file") == 0 && i + 1 < argc) {
      flags.progress_path = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  // Every mode takes a circuit argument except `simd` (host inspection)
  // and `serve` (circuits arrive inside requests).
  if (args.empty() ||
      (args.size() < 2 && args[0] != "simd" && args[0] != "serve")) {
    return usage();
  }
  if (!flags.trace_path.empty()) obs::Tracer::global().start();
  std::FILE* progress_out = nullptr;
  if (flags.progress_every_ms >= 0) {
    progress_out = flags.progress_path.empty()
                       ? stderr
                       : std::fopen(flags.progress_path.c_str(), "w");
    if (progress_out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.progress_path.c_str());
      return kExitRuntimeError;
    }
    obs::ProgressSink::global().start(progress_out, flags.progress_every_ms);
  }

  std::map<std::string, std::string> context;
  int rc;
  try {
    rc = run_tool(args, context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    context["error"] = e.what();
    rc = kExitRuntimeError;
  }

  // Close the progress stream on EVERY exit path -- completed, budget
  // expiry / ^C (rc 3, context["status"] carries the RunStatus), or error --
  // so a consumer tailing the NDJSON always sees a "final":true line.
  if (obs::ProgressSink::global().active()) {
    obs::Progress final_event;
    final_event.phase = args[0];
    const auto status_it = context.find("status");
    final_event.status = rc == kExitRuntimeError ? "error"
                         : status_it != context.end()
                             ? std::string_view(status_it->second)
                         : rc == kExitOk ? "completed"
                                         : "error";
    // The engines publish their final ratio as an obs value; reuse it so
    // the closing line carries the run's coverage without recomputation.
    const auto values = obs::Registry::global().values();
    const auto cov = values.find("fault_sim.coverage.final_pct");
    if (cov != values.end()) final_event.coverage_pct = cov->second;
    obs::ProgressSink::global().emit_final(final_event);
    obs::ProgressSink::global().stop();
  }
  if (progress_out != nullptr && progress_out != stderr) {
    std::fclose(progress_out);
  }

  // The obs report is flushed even for rc 1/3: an interrupted or failed run
  // still leaves a valid partial report (the counters that did accumulate).
  const std::string tool = "dft_tool " + args[0];
  if (!emit_obs_outputs(flags, tool, context) && rc == kExitOk) {
    rc = kExitRuntimeError;
  }
  return rc;
}
