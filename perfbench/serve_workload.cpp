// serve_mixed: open-loop JSON-lines traffic from one generator (the main
// thread) into an in-process serve::Server with two workers, at a fixed
// rate of 100 requests per second.
//
// Mix, in every block of 100 requests (placed per block from the seed):
//   80 light requests on the six small built-ins (c17 ... sn74181),
//    9 light requests on unique inline .bench circuits that miss the cache,
//   10 heavy requests on rand2k, two for each op, one every tenth slot
//      (lint and sta, the long ones, never back to back),
//    1 malformed line.
// Ops are lint, measure, fault_sim, bist and sta; fault_sim and bist run 64
// patterns on one thread in a fresh engine per job.
//
// Chosen because heavy requests recompute derived artifacts (CSR, SCOAP,
// sta implications) even on cache hits, and light requests queue behind
// them, so serve caching and head-of-line blocking show here. Two workers
// at ~7.7 ms mean service saturate near 260 req/s; 100 req/s keeps them
// about half busy. max_inflight is raised from the default 8, which sheds
// light requests queued behind two 150 ms heavy jobs, to 64, so nothing is
// shed at this rate. Generator + 2 server workers + 1 fault-sim worker per
// job stay within the 4 cores.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "circuits/random_circuit.h"
#include "fault/fault.h"
#include "fault/threaded_fault_sim.h"
#include "harness.h"
#include "lfsr/lfsr.h"
#include "lint/engine.h"
#include "measure/scoap.h"
#include "netlist/bench_io.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/comb_sim.h"
#include "sta/sta.h"

namespace perfbench {
namespace {

namespace serve = dft::serve;

constexpr double kRate = 100;  // requests per second, open loop
constexpr int kPatterns = 64;
constexpr int kSetupReps = 9;
constexpr double kMaxGeneratorLateMs = 10;  // p99 beyond this voids a run
constexpr const char* kLightCircuits[] = {"c17",    "adder4", "mult3",
                                          "parity8", "cmp4",   "sn74181"};
constexpr const char* kOps[] = {"lint", "measure", "fault_sim", "bist", "sta"};

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.workers = 2;
  o.max_inflight = 64;
  return o;
}

enum class Kind { Light, Unique, Heavy, Malformed };

struct Request {
  std::string id;
  std::string line;
  Kind kind = Kind::Light;
  std::string op;
};

std::string request_line(const std::string& id, const std::string& op,
                         const std::string& circuit, const std::string& bench,
                         std::uint64_t seed) {
  std::string line =
      "{\"schema\":\"dft-serve-request\",\"version\":1,\"id\":\"" + id +
      "\",\"op\":\"" + op + "\",";
  if (bench.empty()) {
    line += "\"circuit\":\"" + circuit + "\"";
  } else {
    line += "\"bench\":";
    serve::append_json_string(bench, line);
  }
  if (op == "fault_sim" || op == "bist") {
    line += ",\"options\":{\"patterns\":" + std::to_string(kPatterns) +
            ",\"seed\":" + std::to_string(seed) + "}";
  }
  return line + "}";
}

// The traffic of one run, from the seed: `count` requests in blocks of 100.
// Every tenth request is heavy, so heavy jobs never queue behind each other
// (two workers, one heavy per 100 ms, none longer than ~150 ms); their op
// order and the placement of the rest are shuffled per block.
std::vector<Request> make_traffic(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<Request> out;
  std::size_t unique = 0;
  while (out.size() < count) {
    std::vector<Kind> deck;
    deck.insert(deck.end(), 80, Kind::Light);
    deck.insert(deck.end(), 9, Kind::Unique);
    deck.push_back(Kind::Malformed);
    std::shuffle(deck.begin(), deck.end(), rng);
    // Two of each op. The long ones (lint, sta: ~150 ms on rand2k) take
    // slots 0, 2, 4 and 6, so two of them never run at once.
    std::vector<const char*> longs = {"lint", "sta", "lint", "sta"};
    std::vector<const char*> shorts = {"measure", "fault_sim", "bist",
                                       "measure", "fault_sim", "bist"};
    std::shuffle(longs.begin(), longs.end(), rng);
    std::shuffle(shorts.begin(), shorts.end(), rng);
    std::vector<const char*> heavy_ops;
    for (std::size_t k = 0; k < 10; ++k) {
      const bool long_slot = k % 2 == 0 && k < 8;
      heavy_ops.push_back(long_slot ? longs[k / 2]
                                    : shorts[k < 8 ? k / 2 : k - 4]);
    }
    for (std::size_t j = 0; j < 100 && out.size() < count; ++j) {
      Request r;
      r.kind = j % 10 == 0 ? Kind::Heavy : deck[j - j / 10 - 1];
      r.id = "r" + std::to_string(out.size());
      const std::uint64_t pattern_seed = 1 + rng() % 4;
      switch (r.kind) {
        case Kind::Light:
          r.op = kOps[rng() % 5];
          r.line = request_line(r.id, r.op, kLightCircuits[rng() % 6], "",
                                pattern_seed);
          break;
        case Kind::Unique: {
          dft::RandomCircuitSpec spec;
          spec.num_inputs = 8;
          spec.num_outputs = 4;
          spec.num_gates = 40;
          spec.seed = seed * 1000003 + ++unique;
          r.op = kOps[rng() % 5];
          r.line = request_line(
              r.id, r.op, "",
              dft::write_bench_string(dft::make_random_combinational(spec)),
              pattern_seed);
          break;
        }
        case Kind::Heavy:
          r.op = heavy_ops[j / 10];
          r.line = request_line(r.id, r.op, "rand2k", "", pattern_seed);
          break;
        case Kind::Malformed:
          r.line = rng() % 2 ? "{\"schema\":\"dft-serve-request\",\"version\":1,"
                               "\"id\":\"" + r.id + "\",\"op\":\"explode\","
                               "\"circuit\":\"c17\"}"
                             : "{\"schema\":\"dft-serve-req";
          break;
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

// The value of a top-level string field in a one-line JSON response.
std::string string_field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto at = json.find(pat);
  if (at == std::string::npos) return {};
  const auto from = at + pat.size();
  return json.substr(from, json.find('"', from) - from);
}

// compile_circuit, one layer span at a time: builtin generation or .bench
// parse, then fault collapse.
std::shared_ptr<const serve::CompiledCircuit> compile(
    const serve::ServeRequest& req, SpanLog* log, int parent) {
  auto c = std::make_shared<serve::CompiledCircuit>();
  if (req.circuit.empty()) {
    Scoped s(log, "netlist.parse", parent, req.id);
    c->netlist = dft::read_bench_string(req.bench, "request:" + req.id);
  } else {
    Scoped s(log, "netlist.build", parent, req.id);
    c->netlist = serve::builtin_circuit(req.circuit);
  }
  Scoped s(log, "fault.collapse", parent, req.id);
  c->faults = dft::collapse_faults(c->netlist).representatives;
  return c;
}

// One op run directly, as the server's job would run it, with a span per
// layer call. Returns the result object the server renders for it.
std::string run_op(const serve::ServeRequest& req,
                   const serve::CompiledCircuit& circuit, SpanLog* log,
                   int parent) {
  const dft::Netlist& nl = circuit.netlist;
  const std::string& id = req.id;
  serve::JsonBuilder b;
  switch (req.op) {
    case serve::Op::Lint: {
      dft::LintReport rep;
      {
        Scoped s(log, "lint.run", parent, id);
        rep = dft::lint_netlist(nl);
      }
      b.int_field("errors", rep.errors())
          .int_field("warnings", rep.warnings())
          .int_field("diagnostics",
                     static_cast<long long>(rep.diagnostics.size()))
          .bool_field("passed", rep.passed());
      break;
    }
    case serve::Op::Measure: {
      dft::ScoapResult sc;
      std::vector<dft::GateId> hardest;
      {
        Scoped s(log, "measure.scoap", parent, id);
        sc = dft::compute_scoap(nl);
        hardest = dft::rank_hardest_nets(nl, sc, 1);
      }
      b.int_field("gates", static_cast<long long>(nl.size()));
      if (!hardest.empty()) {
        b.int_field("hardest_difficulty", sc.difficulty(hardest[0]));
        b.string_field("hardest_net", nl.gate_name(hardest[0]));
      }
      break;
    }
    case serve::Op::FaultSim: {
      std::vector<dft::SourceVector> patterns;
      {
        Scoped s(log, "fault.patterns", parent, id);
        std::mt19937_64 rng(req.options.seed);
        for (int p = 0; p < req.options.patterns; ++p) {
          patterns.push_back(dft::random_source_vector(nl, rng));
        }
      }
      std::unique_ptr<dft::FaultSimEngine> engine;
      {
        Scoped s(log, "netlist.compile", parent, id);
        engine = dft::make_fault_sim_engine(nl, req.options.engine,
                                            req.options.threads);
      }
      dft::FaultSimResult r;
      {
        Scoped s(log, "fault.grade", parent, id);
        r = engine->run(patterns, circuit.faults, true);
      }
      b.int_field("faults", static_cast<long long>(circuit.faults.size()))
          .int_field("patterns", static_cast<long long>(patterns.size()))
          .int_field("detected", r.num_detected)
          .number_field("coverage_pct", 100 * r.coverage());
      break;
    }
    case serve::Op::Bist: {
      std::vector<dft::SourceVector> tests;
      {
        Scoped s(log, "lfsr.prpg", parent, id);
        dft::Lfsr prpg = dft::Lfsr::maximal(
            24, req.options.seed == 0 ? 0x5eed : req.options.seed);
        for (int p = 0; p < req.options.patterns; ++p) {
          dft::SourceVector v(dft::source_count(nl));
          for (dft::Logic& bit : v) bit = dft::to_logic(prpg.step());
          tests.push_back(std::move(v));
        }
      }
      std::uint64_t signature = 0;
      {
        Scoped s(log, "sim.signature", parent, id);
        dft::CombSim sim(nl);
        dft::SignatureAnalyzer sa(32);
        for (const dft::SourceVector& v : tests) {
          std::size_t k = 0;
          for (dft::GateId g : nl.inputs()) sim.set_value(g, v[k++]);
          for (dft::GateId g : nl.storage()) sim.set_value(g, v[k++]);
          sim.evaluate();
          for (dft::GateId po : nl.outputs()) {
            sa.shift(sim.value(po) == dft::Logic::One);
          }
        }
        signature = sa.signature();
      }
      std::unique_ptr<dft::FaultSimEngine> engine;
      {
        Scoped s(log, "netlist.compile", parent, id);
        engine = dft::make_fault_sim_engine(nl, req.options.engine,
                                            req.options.threads);
      }
      dft::FaultSimResult r;
      {
        Scoped s(log, "fault.grade", parent, id);
        r = engine->run(tests, circuit.faults, true);
      }
      char sig[20];
      std::snprintf(sig, sizeof sig, "%016llx",
                    static_cast<unsigned long long>(signature));
      b.int_field("patterns", static_cast<long long>(tests.size()))
          .string_field("signature", sig)
          .int_field("faults", static_cast<long long>(circuit.faults.size()))
          .int_field("detected", r.num_detected)
          .number_field("coverage_pct", 100 * r.coverage());
      break;
    }
    case serve::Op::Sta: {
      std::unique_ptr<dft::sta::StaticAnalyzer> analyzer;
      {
        Scoped s(log, "sta.build", parent, id);
        analyzer = std::make_unique<dft::sta::StaticAnalyzer>(nl);
      }
      std::vector<dft::Fault> untestable;
      {
        Scoped s(log, "sta.query", parent, id);
        untestable = analyzer->untestable_faults(circuit.faults);
      }
      const dft::sta::StaStats& st = analyzer->stats();
      b.int_field("gates", static_cast<long long>(nl.size()))
          .int_field("constants", st.constants_found)
          .int_field("unobservable", st.unobservable_gates)
          .int_field("untestable", static_cast<long long>(untestable.size()))
          .int_field("faults", static_cast<long long>(circuit.faults.size()));
      break;
    }
    case serve::Op::Atpg:
      break;  // not in this mix
  }
  return b.take();
}

struct Answer {
  int count = 0;
  double at = 0;
  std::string line;
};

struct Outcome {
  std::vector<double> due;       // scheduled send time per request
  std::vector<double> submit_s;  // submit_line duration per request
  std::vector<double> late_ms;   // generator lateness per request
  std::vector<Answer> answers;
  serve::Server::Stats stats;    // deltas over the run
  serve::NetlistCache::Stats cache;
  double start = 0, end = 0;
};

serve::Server::Stats minus(serve::Server::Stats a,
                           const serve::Server::Stats& b) {
  a.accepted -= b.accepted;
  a.completed_ok -= b.completed_ok;
  a.degraded -= b.degraded;
  a.job_errors -= b.job_errors;
  a.bad_requests -= b.bad_requests;
  a.rejected_overload -= b.rejected_overload;
  a.rejected_shutdown -= b.rejected_shutdown;
  a.drained_unstarted -= b.drained_unstarted;
  a.write_failures -= b.write_failures;
  return a;
}

// Sends every request at its due time and collects the answers.
Outcome open_loop(serve::Server& server, const std::vector<Request>& traffic) {
  Outcome o;
  const std::size_t n = traffic.size();
  o.due.resize(n);
  o.submit_s.resize(n);
  o.late_ms.resize(n);
  // Shared with the write callbacks, which may outlive this call if the
  // server never goes idle.
  struct Inbox {
    std::mutex mu;
    std::vector<Answer> answers;
  };
  const auto inbox = std::make_shared<Inbox>();
  inbox->answers.resize(n);
  const serve::Server::Stats before = server.stats();
  const serve::NetlistCache::Stats cache_before = server.cache().stats();
  o.start = now_s() + 0.01;
  for (std::size_t i = 0; i < n; ++i) {
    o.due[i] = o.start + static_cast<double>(i) / kRate;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, o.due[i] - now_s())));
    const double sent = now_s();
    o.late_ms[i] = 1e3 * (sent - o.due[i]);
    server.submit_line(traffic[i].line, [inbox, i](const std::string& l) {
      const double at = now_s();
      std::lock_guard<std::mutex> lock(inbox->mu);
      Answer& a = inbox->answers[i];
      if (a.count++ == 0) {
        a.at = at;
        a.line = l;
      }
    });
    o.submit_s[i] = now_s() - sent;
  }
  server.wait_idle_for(60000);
  o.end = now_s();
  o.stats = minus(server.stats(), before);
  const serve::NetlistCache::Stats cache_after = server.cache().stats();
  o.cache.hits = cache_after.hits - cache_before.hits;
  o.cache.misses = cache_after.misses - cache_before.misses;
  o.cache.evictions = cache_after.evictions - cache_before.evictions;
  std::lock_guard<std::mutex> lock(inbox->mu);
  o.answers = inbox->answers;
  return o;
}

// One request per built-in circuit and op, so the cache holds every
// built-in and each code path has run once.
void warm_up(serve::Server& server) {
  std::vector<std::string> circuits(std::begin(kLightCircuits),
                                    std::end(kLightCircuits));
  circuits.push_back("rand2k");
  int i = 0;
  for (const std::string& c : circuits) {
    for (const char* op : kOps) {
      server.submit_line(
          request_line("warm" + std::to_string(i++), op, c, "", 1),
          [](const std::string&) {});
    }
  }
  server.wait_idle();
}

struct Latencies {
  std::vector<double> light, heavy;  // ms; +inf for a failed request
  std::map<std::string, std::vector<double>> heavy_by_op;
  std::size_t valid = 0, failed = 0;
};

Latencies latencies(const std::vector<Request>& traffic, const Outcome& o) {
  Latencies l;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (traffic[i].kind == Kind::Malformed) continue;
    ++l.valid;
    const Answer& a = o.answers[i];
    const bool ok = a.count == 1 && a.line.find("\"ok\":true") != std::string::npos;
    if (!ok) ++l.failed;
    const double ms = ok ? 1e3 * (a.at - o.due[i]) : inf;
    if (traffic[i].kind == Kind::Heavy) {
      l.heavy.push_back(ms);
      l.heavy_by_op[traffic[i].op].push_back(ms);
    } else {
      l.light.push_back(ms);
    }
  }
  return l;
}

void report_latencies(const Latencies& l, const Outcome& o, Report& report) {
  const Tail lt = tail(l.light);
  const Tail ht = tail(l.heavy);
  report.metric("serve.light_p50_ms", median(l.light), "ms");
  report.metric("serve.light_tail_ms", lt.value, "ms");
  report.metric("serve.light_tail_percentile", lt.percentile, "%");
  report.metric("serve.light_tail_beyond", static_cast<double>(lt.beyond), "count");
  report.metric("serve.heavy_p50_ms", median(l.heavy), "ms");
  report.metric("serve.heavy_tail_ms", ht.value, "ms");
  report.metric("serve.heavy_tail_percentile", ht.percentile, "%");
  report.metric("serve.heavy_tail_beyond", static_cast<double>(ht.beyond), "count");
  // The end-to-end wall time of this workload: one rand2k request of each
  // op, one after another, each at its median latency. Medians per op keep
  // it steady; the sum keeps every op in it (the plain heavy median would
  // sit on whichever op lands in the middle).
  double round_ms = 0;
  for (const char* op : kOps) {
    const auto it = l.heavy_by_op.find(op);
    const double ms = it == l.heavy_by_op.end() ? 0.0 : median(it->second);
    report.metric(std::string("serve.heavy_p50_ms.") + op, ms, "ms");
    round_ms += ms;
  }
  report.metric("wall_s", 1e-3 * round_ms, "s");
  report.metric("fail_share",
                l.valid ? static_cast<double>(l.failed) / l.valid : 0.0,
                "ratio");
  std::vector<double> late = o.late_ms;
  std::sort(late.begin(), late.end());
  const double late_p99 =
      late.empty() ? 0.0 : late[static_cast<std::size_t>(0.99 * (late.size() - 1))];
  report.metric("serve.gen_late_p99_ms", late_p99, "ms");
  report.check(late_p99 <= kMaxGeneratorLateMs,
               "generator ran late; the run is void");
  report.attempted = l.valid;
  report.failed = l.failed;
}

// Every valid id answered exactly once, malformed lines with bad_request,
// each ok answer's result equal to a direct call of the same op on the same
// circuit, and the server's counters balanced.
void check_answers(const std::vector<Request>& traffic, const Outcome& o,
                   Report& report) {
  std::map<std::string, std::shared_ptr<const serve::CompiledCircuit>> circuits;
  // Expected result objects, keyed by circuit, op and pattern seed.
  std::map<std::string, std::string> expected;
  std::size_t malformed = 0, answered_once = 0, bad_ok = 0, mismatched = 0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const Request& r = traffic[i];
    const Answer& a = o.answers[i];
    if (a.count == 1) ++answered_once;
    if (r.kind == Kind::Malformed) {
      ++malformed;
      if (a.count != 1 || string_field(a.line, "type") != "bad_request") {
        ++bad_ok;
      }
      continue;
    }
    if (a.count != 1 || a.line.find("\"ok\":true") == std::string::npos) {
      continue;  // a failed request, counted by latencies()
    }
    if (string_field(a.line, "id") != r.id) {
      ++mismatched;
      continue;
    }
    const serve::ServeRequest req = serve::parse_request(r.line);
    const std::string key = serve::circuit_cache_key(req);
    auto& circuit = circuits[key];
    if (!circuit) circuit = compile(req, nullptr, -1);
    const std::string memo =
        key + "|" + r.op + "|" + std::to_string(req.options.seed);
    auto it = expected.find(memo);
    if (it == expected.end()) {
      it = expected.emplace(memo, run_op(req, *circuit, nullptr, -1)).first;
    }
    const auto at = a.line.find("\"result\":");
    const std::string got =
        at == std::string::npos ? "" : a.line.substr(at + 9, a.line.size() - at - 10);
    if (got != it->second) ++mismatched;
  }
  report.check(answered_once == traffic.size(),
               "a request was not answered exactly once");
  report.check(bad_ok == 0, "a malformed line did not get bad_request");
  report.check(mismatched == 0,
               std::to_string(mismatched) +
                   " answers differ from a direct call of the same op");
  const serve::Server::Stats& s = o.stats;
  report.check(s.accepted == s.completed_ok + s.job_errors + s.drained_unstarted,
               "Server::Stats: accepted jobs do not balance");
  report.check(s.bad_requests == malformed,
               "Server::Stats: bad_requests != malformed lines sent");
  report.check(s.accepted + s.rejected_overload + s.rejected_shutdown +
                       s.bad_requests ==
                   traffic.size(),
               "Server::Stats: lines sent do not balance");
}

struct SetUp {
  std::vector<Request> traffic;
  std::unique_ptr<serve::Server> server;
};

SetUp set_up(const Args& args) {
  SetUp s;
  s.traffic = make_traffic(
      args.seed, static_cast<std::size_t>(std::llround(args.seconds * kRate)));
  s.server = std::make_unique<serve::Server>(server_options());
  warm_up(*s.server);
  return s;
}

// Replays the first `limit` valid requests sequentially through run_op,
// compiling a circuit on first sight (the server's cache hits after that).
// Returns each request's replayed service time (0 for the rest).
std::vector<double> replay(const std::vector<Request>& traffic,
                           std::size_t limit, SpanLog* log, double& wall) {
  std::map<std::string, std::shared_ptr<const serve::CompiledCircuit>> circuits;
  std::vector<double> service(traffic.size(), 0.0);
  const double t0 = now_s();
  for (std::size_t i = 0; i < limit; ++i) {
    if (traffic[i].kind == Kind::Malformed) continue;
    const serve::ServeRequest req = serve::parse_request(traffic[i].line);
    const double t = now_s();
    Scoped root(log, "serve.job", -1, req.id);
    auto& circuit = circuits[serve::circuit_cache_key(req)];
    if (!circuit) circuit = compile(req, log, root.id());
    run_op(req, *circuit, log, root.id());
    root.finish();
    service[i] = now_s() - t;
  }
  wall = now_s() - t0;
  return service;
}

void traced_run(const Args& args, Report& report) {
  SetUp s = set_up(args);
  dft::obs::Registry::global().reset();
  const Outcome o = open_loop(*s.server, s.traffic);
  s.server.reset();
  // The server's counts for the run, read before the replays add theirs.
  for (const char* name :
       {"sim.comb.gate_evals", "fault_sim.event.gates_evaluated",
        "fault_sim.event.events_scheduled", "fault_sim.ppsfp.faults_simulated",
        "fault_sim.ppsfp.faults_dropped", "sta.implications_learned",
        "fault_sim.threaded.decomposition.sequential",
        "fault_sim.threaded.decomposition.pattern_block",
        "fault_sim.threaded.decomposition.fault_chunk"}) {
    report.metric(name, static_cast<double>(counter(name)), "count");
  }
  check_answers(s.traffic, o, report);
  const Latencies lat = latencies(s.traffic, o);
  report_latencies(lat, o, report);

  // Request spans: due time to answer, with the submit_line call inside.
  SpanLog log;
  for (std::size_t i = 0; i < s.traffic.size(); ++i) {
    const Answer& a = o.answers[i];
    const double sent = o.due[i] + 1e-3 * o.late_ms[i];
    const int root = log.add("serve.request", o.due[i],
                             a.count ? a.at : o.end, -1, s.traffic[i].id);
    log.add("serve.submit", sent, sent + o.submit_s[i], root, s.traffic[i].id);
  }
  log.write_json(args.out_dir + "/spans-serve_mixed-" +
                 std::to_string(args.seed) + ".json");

  // Service attribution: the same requests replayed one at a time.
  SpanLog rlog;
  double traced_wall = 0, plain_wall = 0, off_wall = 0;
  const std::vector<double> service =
      replay(s.traffic, s.traffic.size(), &rlog, traced_wall);
  // Overheads from the first third of the requests, to keep the run short:
  // traced (from the full replay), untraced, and untraced with obs off.
  const std::size_t third = s.traffic.size() / 3;
  double traced_third = 0;
  for (std::size_t i = 0; i < third; ++i) traced_third += service[i];
  replay(s.traffic, third, nullptr, plain_wall);
  dft::obs::set_enabled(false);
  replay(s.traffic, third, nullptr, off_wall);
  dft::obs::set_enabled(true);
  rlog.write_json(args.out_dir + "/spans-serve_mixed-replay-" +
                  std::to_string(args.seed) + ".json");

  std::vector<double> wait_light, wait_heavy;
  std::map<std::string, std::vector<double>> heavy_service;
  double busy = 0;
  for (std::size_t i = 0; i < s.traffic.size(); ++i) {
    const Request& r = s.traffic[i];
    if (r.kind == Kind::Malformed || o.answers[i].count == 0) continue;
    busy += service[i];
    const double wait = 1e3 * (o.answers[i].at - o.due[i] - service[i]);
    if (r.kind == Kind::Heavy) {
      wait_heavy.push_back(wait);
      heavy_service[r.op].push_back(1e3 * service[i]);
    } else {
      wait_light.push_back(wait);
    }
  }
  for (const char* op : kOps) {
    report.metric(std::string("serve.service_ms.") + op,
                  median(heavy_service[op]), "ms");
  }
  report.metric("serve.queue_wait_ms.light", median(wait_light), "ms");
  report.metric("serve.queue_wait_ms.heavy", median(wait_heavy), "ms");
  report.metric("serve.worker_util",
                busy / (server_options().workers * (o.end - o.start)), "ratio");
  report.metric("serve.submit_s", median(o.submit_s), "s");
  report.metric("serve.cache.hit_share",
                static_cast<double>(o.cache.hits) /
                    std::max<std::uint64_t>(1, o.cache.hits + o.cache.misses),
                "ratio");
  report.metric("serve.cache.evictions", static_cast<double>(o.cache.evictions),
                "count");
  report.metric("serve.rejected_overload",
                static_cast<double>(o.stats.rejected_overload), "count");
  report.metric("serve.job_errors", static_cast<double>(o.stats.job_errors),
                "count");

  for (const char* name : {"lint.run", "measure.scoap", "sta.build",
                           "sta.query", "netlist.compile", "netlist.parse",
                           "fault.collapse", "fault.grade", "lfsr.prpg",
                           "sim.signature"}) {
    report.metric(std::string(name) + "_s", rlog.self_total(name), "s");
  }
  report.metric("netlist.parse_calls",
                static_cast<double>(rlog.count("netlist.parse")), "count");
  report.metric("trace.wall_s", traced_wall, "s");
  report.metric("trace.overhead_share", traced_third / plain_wall - 1, "ratio");
  report.metric("obs.overhead_share", plain_wall / off_wall - 1, "ratio");
}

}  // namespace

void run_serve_workload(const Args& args, Report& report) {
  const serve::ServerOptions opt = server_options();
  report.note("server_workers", std::to_string(opt.workers));
  report.note("max_inflight", std::to_string(opt.max_inflight));
  report.note("cache_capacity", std::to_string(opt.cache_capacity));
  report.note("rate_per_s", std::to_string(kRate));
  report.note("patterns", std::to_string(kPatterns));
  report.note("fault_sim_workers_per_job", "1");
  if (args.trace) {
    traced_run(args, report);
    return;
  }

  SetUp s;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    s = SetUp{};  // the previous server drains and joins here, untimed
    const double t = now_s();
    s = set_up(args);
    setups.push_back(now_s() - t);
  }
  const Outcome o = open_loop(*s.server, s.traffic);
  const double rss = peak_rss_mb();
  s.server.reset();

  check_answers(s.traffic, o, report);
  const Latencies lat = latencies(s.traffic, o);
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", rss, "MiB");
  report_latencies(lat, o, report);
}

}  // namespace perfbench
