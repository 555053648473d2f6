// dft_tool -- a command-line driver over the library's public API.
//
//   stats  <circuit>           structural summary
//   scoap  <circuit> [N]       N hardest nets (default 10)
//   faults <circuit>           fault universe / collapsing
//   atpg   <circuit>           full ATPG run + test vectors; --retry-aborted
//                              re-attacks aborted faults with escalating
//                              limits + a D-algorithm prover
//   bist   <circuit>           pseudo-random self-test: LFSR PRPG patterns,
//                              signature-register response compaction,
//                              fault-sim coverage grading
//   scan   <circuit> [chains]  LSSD insertion, writes the result
//   lint   <circuit>           design-rule check; exits 1 on any error
//   sta    <circuit>           static structural analysis: proven-constant
//                              lines, unobservable gates and the statically
//                              untestable faults (--faults lists each one)
//   simd   [--names]           the SIMD pattern-word lanes this host can run
//                              and the one DFT_SIMD resolves to
//   serve                      the long-lived JSON-lines daemon over stdin
//                              or a Unix socket (see src/serve/server.h);
//                              stdout carries only protocol lines
//   export <name> <out.bench>  dump a built-in circuit
//
// usage() lists every flag. atpg, bist and sta run the dft::jobs functions
// the daemon runs too, and their flags are rows of the same option table
// as the daemon's request options, with the same bounds: --threads 1..64
// fault-sim workers, --patterns 1..1000000, --engine event (default) |
// serial | deductive (identical results), --time-budget-ms 0..86400000
// (an expired budget exits 3 with the partial result). Every number on the
// command line, positional ones included, is parsed strictly against its
// bounds; a malformed or out-of-range one is a usage error.
//
// A <circuit> is a .bench file or a built-in name: c17, adder4, adder8,
// mult3, dec3, parity8, mux3, cmp4, sn74181, counter8, accum4, rand2k,
// rand20k. DFT_SIMD=auto|off|scalar4|scalar8|avx2|avx512 overrides the
// build's pattern-word lane (every lane gives bit-identical detections).
//
// Observability flags, accepted by every command: --stats (metrics table),
// --report-json <file> (versioned run report), --trace-json <file> (Chrome
// trace_event JSON), --progress-every-ms N (NDJSON progress, schema
// data/obs_progress_schema_v2.json, to stderr or --progress-file <file>;
// the stream always closes with a "final":true line carrying the run
// status, even on ^C, budget expiry or error). DFT_OBS=0 disables metrics.
//
// Exit codes: 0 success, 1 runtime failure (including lint errors), 2 usage
// error, 3 budget expired / interrupted with a valid partial result.
#include <algorithm>
#include <climits>
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
#include "jobs/jobs.h"
#include "lint/engine.h"
#include "measure/scoap.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scan/scan_insert.h"
#include "serve/server.h"
#include "sim/simd.h"

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
               "bounds: --threads and --workers 1..64, --patterns 1..1000000, "
               "every M 0..86400000 ms\n"
               "DFT_SIMD=auto|off|scalar4|scalar8|avx2|avx512 selects the "
               "PPSFP pattern-word lane\n"
               "observability (any command): [--stats] "
               "[--report-json <file>] [--trace-json <file>]\n"
               "                             [--progress-every-ms M] "
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

// Observability outputs requested on the command line. The flags are
// extracted before mode dispatch so every mode accepts them uniformly.
struct ObsFlags {
  bool stats = false;
  std::string trace_path;
  std::string report_path;
  long long progress_every_ms = -1;  // -1 = progress streaming off
  std::string progress_path;         // empty = stderr
};

// Reads args[2..]: the job-option flags the mode lists in `flags`, via the
// shared option table. Anything else, a missing value or a rejected one
// throws jobs::OptionError (exit 2).
void parse_flags(const std::vector<std::string>& args,
                 std::initializer_list<std::string_view> flags,
                 jobs::Options& opt) {
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& a = args[i];
    const jobs::OptionSpec* spec = jobs::find_flag(a);
    if (spec == nullptr || std::find(flags.begin(), flags.end(), a) ==
                               flags.end()) {
      throw jobs::OptionError("unknown flag '" + a + "' for this mode");
    }
    using Kind = jobs::OptionSpec::Kind;
    std::string v;
    if (spec->kind != Kind::Flag) {
      if (i + 1 == args.size()) throw jobs::OptionError(a + " needs a value");
      v = args[++i];
    }
    jobs::set_option(opt, *spec,
                     spec->kind == Kind::Int
                         ? jobs::parse_integer(a, v, spec->lo, spec->hi)
                         : 0,
                     v);
  }
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
      if (i + 1 == args.size()) return usage();
      const std::string& a = args[i];
      const std::string& v = args[++i];
      if (a == "--socket") {
        socket_path = v;
      } else if (a == "--workers") {
        sopt.workers =
            static_cast<int>(jobs::parse_integer(a, v, 1, jobs::kMaxThreads));
      } else if (a == "--max-inflight") {
        sopt.max_inflight =
            static_cast<int>(jobs::parse_integer(a, v, 1, INT_MAX));
      } else if (a == "--cache-size") {
        sopt.cache_capacity =
            static_cast<std::size_t>(jobs::parse_integer(a, v, 0, INT_MAX));
      } else if (a == "--default-deadline-ms") {
        sopt.default_deadline_ms = jobs::parse_integer(a, v, 0, jobs::kMaxMs);
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
    const Netlist nl = serve::builtin_circuit(args[1]);
    std::ofstream out(args[2]);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args[2].c_str());
      return 1;
    }
    write_bench(out, nl);
    std::printf("wrote %s (%zu gates)\n", args[2].c_str(), nl.size());
    return 0;
  }

  Netlist nl = [&] {
    obs::Phase phase("parse");
    // Accept either a .bench file or a built-in circuit name.
    if (std::ifstream probe(args[1]); probe.good()) {
      return read_bench_file(args[1].c_str());
    }
    return serve::builtin_circuit(args[1]);
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
    const long long n =
        args.size() > 2 ? jobs::parse_integer("N", args[2], 0, INT_MAX) : 10;
    std::printf("%s", scoap_report(nl, compute_scoap(nl),
                                   static_cast<std::size_t>(n))
                          .c_str());
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
    jobs::Options opt;
    opt.backtrack_limit = 100000;
    parse_flags(
        args, {"--threads", "--engine", "--time-budget-ms", "--retry-aborted"},
        opt);
    context["threads"] = std::to_string(opt.threads);
    context["engine"] = opt.engine.empty() ? "event" : opt.engine;
    const jobs::CompiledCircuit c = jobs::compile(std::move(nl));
    // Arm the budget only now, after parse and collapse: the deadline
    // covers the ATPG run itself. The SIGINT token is attached either way
    // so ^C degrades gracefully even without --time-budget-ms.
    const AtpgRun run = jobs::atpg(
        c, opt, jobs::make_budget(opt.deadline_ms, sigint_token_ref()));
    context["status"] = std::string(guard::to_string(run.status));
    context["elapsed_ms"] = std::to_string(run.elapsed_ms);
    std::printf("%zu faults: coverage %.2f%% (test coverage %.2f%%), "
                "%zu tests, %zu redundant, %zu aborted "
                "(backtrack limit %d)\n",
                c.faults.size(), 100 * run.fault_coverage(),
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
      std::printf("  redundant: %s\n", fault_name(c.netlist, f).c_str());
    }
    return guard::interrupted(run.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "bist") {
    jobs::Options opt;
    opt.patterns = 1024;
    opt.seed = 0x5eed;
    parse_flags(args,
                {"--patterns", "--threads", "--engine", "--time-budget-ms"},
                opt);
    context["threads"] = std::to_string(opt.threads);
    context["patterns"] = std::to_string(opt.patterns);
    context["engine"] = opt.engine.empty() ? "event" : opt.engine;
    const jobs::CompiledCircuit c = jobs::compile(std::move(nl));
    const jobs::BistResult r = jobs::bist(
        c, opt, jobs::make_budget(opt.deadline_ms, sigint_token_ref()));
    context["status"] = std::string(guard::to_string(r.grading.status));
    std::printf("%d pseudo-random patterns over %zu sources, signature "
                "%016llx (%llu updates)\n",
                opt.patterns, r.sources,
                static_cast<unsigned long long>(r.signature),
                static_cast<unsigned long long>(r.signature_updates));
    std::printf("%zu faults: coverage %.2f%% (%d detected), grading %s\n",
                c.faults.size(), 100 * r.grading.coverage(),
                r.grading.num_detected,
                guard::to_string(r.grading.status).data());
    return guard::interrupted(r.grading.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "sta") {
    jobs::Options opt;
    std::vector<std::string> rest = args;
    const bool list_faults = std::erase(rest, "--faults") > 0;
    parse_flags(rest, {"--no-learn", "--time-budget-ms"}, opt);
    const jobs::CompiledCircuit c = jobs::compile(std::move(nl));
    const jobs::StaResult r = jobs::sta(
        c, opt, jobs::make_budget(opt.deadline_ms, sigint_token_ref()));
    const sta::StaStats& s = r.stats;
    context["status"] = std::string(guard::to_string(s.status));
    context["elapsed_ms"] = std::to_string(s.elapsed_ms);
    std::printf("%zu gates: %d constant line(s), %d unobservable gate(s), "
                "%lld learned implication(s) in %d round(s)\n",
                c.netlist.size(), s.constants_found, s.unobservable_gates,
                s.implications_learned, s.fixpoint_iterations);
    std::printf("%zu collapsed faults: %zu statically untestable (%.2f%%), "
                "status %s after %lld ms\n",
                c.faults.size(), r.untestable.size(),
                c.faults.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(r.untestable.size()) /
                          static_cast<double>(c.faults.size()),
                guard::to_string(s.status).data(), s.elapsed_ms);
    if (list_faults) {
      for (const Fault& f : r.untestable) {
        std::printf("  untestable: %s\n", fault_name(c.netlist, f).c_str());
      }
    }
    return guard::interrupted(s.status) ? kExitInterrupted : kExitOk;
  }
  if (cmd == "scan") {
    Netlist copy = nl;
    const long long chains =
        args.size() > 2 ? jobs::parse_integer("chains", args[2], 1, INT_MAX)
                        : 1;
    const ScanInsertionResult res =
        insert_scan(copy, ScanStyle::Lssd, static_cast<int>(chains));
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
      try {
        flags.progress_every_ms =
            jobs::parse_integer(argv[i], argv[i + 1], 0, jobs::kMaxMs);
      } catch (const jobs::OptionError& e) {
        std::fprintf(stderr, "dft_tool: %s\n", e.what());
        return usage();
      }
      ++i;
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
  } catch (const jobs::OptionError& e) {
    std::fprintf(stderr, "dft_tool: %s\n", e.what());
    rc = usage();
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
