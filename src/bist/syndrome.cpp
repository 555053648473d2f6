#include "bist/syndrome.h"

#include <atomic>
#include <bit>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/progress.h"
#include "sim/parallel_sim.h"
#include "sim/thread_pool.h"

namespace dft {

namespace {

// Applies all 2^n patterns 64 at a time and accumulates per-output ones
// counts; optionally with a fault, whose faulty machine is the good
// machine with the site forced and only its fanout cone re-evaluated.
// Storage-free circuits only.
std::vector<std::uint64_t> count_ones(const Netlist& nl, const Fault* f) {
  const std::size_t n = nl.inputs().size();
  if (!nl.storage().empty()) {
    throw std::invalid_argument("syndrome testing needs combinational logic");
  }
  if (n > 26) throw std::invalid_argument("too many inputs for exhaustion");

  ParallelSim sim(nl);
  const std::size_t total = 1ull << n;
  std::vector<std::uint64_t> counts(nl.outputs().size(), 0);
  const std::vector<GateId> cone =
      f != nullptr ? sim.cone_of(f->gate) : std::vector<GateId>{};

  for (std::uint64_t base = 0; base < total; base += 64) {
    const std::uint64_t blk = std::min<std::uint64_t>(64, total - base);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t w = 0;
      for (std::uint64_t b = 0; b < blk; ++b) {
        if (((base + b) >> i) & 1) w |= 1ull << b;
      }
      sim.set_word(nl.inputs()[i], w);
    }
    sim.evaluate();
    if (f != nullptr) {
      const std::uint64_t forced = f->sa1 ? ~0ull : 0ull;
      std::uint64_t site;
      if (f->pin < 0) {
        site = forced;
      } else {
        site = sim.eval_with_forced_pin(f->gate, f->pin, forced);
      }
      sim.force_word(f->gate, site);
      sim.evaluate_gates(cone);
    }
    const std::uint64_t valid = blk == 64 ? ~0ull : ((1ull << blk) - 1);
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      counts[o] += std::popcount(sim.word(nl.outputs()[o]) & valid);
    }
  }
  return counts;
}

}  // namespace

std::vector<std::uint64_t> minterm_counts(const Netlist& nl) {
  return count_ones(nl, nullptr);
}

std::vector<std::uint64_t> minterm_counts_faulty(const Netlist& nl,
                                                 const Fault& f) {
  return count_ones(nl, &f);
}

std::vector<double> syndromes(const Netlist& nl) {
  const auto counts = minterm_counts(nl);
  const double denom =
      static_cast<double>(1ull << nl.inputs().size());
  std::vector<double> out;
  out.reserve(counts.size());
  for (auto k : counts) out.push_back(static_cast<double>(k) / denom);
  return out;
}

SyndromeAnalysis analyze_syndrome_testability(const Netlist& nl,
                                              const std::vector<Fault>& faults,
                                              int threads,
                                              const guard::Budget* budget) {
  SyndromeAnalysis res;
  res.total_faults = static_cast<int>(faults.size());
  const bool guarded = budget != nullptr && budget->limited();
  const auto good = minterm_counts(nl);
  std::vector<char> testable(faults.size(), 0);
  std::vector<char> graded(faults.size(), 0);
  // Worst interrupted status seen by any worker; doubles as the stop flag.
  std::atomic<int> stop{0};
  // Separate relaxed atomics for progress: the testable/graded bitmaps are
  // plain chars written disjointly, so an emitter must not scan them mid-run.
  const bool progressing = obs::ProgressSink::global().active();
  std::atomic<std::uint64_t> n_graded{0};
  std::atomic<std::uint64_t> n_testable{0};
  auto grade = [&](std::size_t i) {
    testable[i] = minterm_counts_faulty(nl, faults[i]) != good;
    graded[i] = 1;
    if (progressing) {
      const std::uint64_t done =
          n_graded.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::uint64_t hit =
          n_testable.fetch_add(testable[i] ? 1 : 0,
                               std::memory_order_relaxed) +
          (testable[i] ? 1 : 0);
      obs::Progress prog;
      prog.phase = "bist.syndrome";
      // Over the FIXED total so the stream is non-decreasing.
      prog.coverage_pct = 100.0 * static_cast<double>(hit) /
                          static_cast<double>(faults.size());
      prog.patterns = done << nl.inputs().size();
      prog.items_done = done;
      prog.items_total = faults.size();
      if (budget != nullptr) prog.budget_remaining_ms = budget->remaining_ms();
      obs::ProgressSink::global().maybe_emit(prog);
    }
    // Poll after the sweep: each fault is one exhaustive 2^n application.
    if (guarded) {
      budget->charge_patterns(1ull << nl.inputs().size());
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        int cur = stop.load(std::memory_order_relaxed);
        while (cur < static_cast<int>(st) &&
               !stop.compare_exchange_weak(cur, static_cast<int>(st),
                                           std::memory_order_relaxed)) {
        }
      }
    }
  };
  if (resolve_thread_count(threads) <= 1) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (stop.load(std::memory_order_relaxed) != 0) break;
      grade(i);
    }
  } else {
    nl.topo_order();  // warm the lazy caches before sharing the netlist
    ThreadPool pool(threads);
    parallel_for_chunks(pool, faults.size(),
                        [&](std::size_t, std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            if (stop.load(std::memory_order_relaxed) != 0) {
                              break;
                            }
                            grade(i);
                          }
                        });
  }
  // Merge in fault order, so the report is thread-count independent.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!graded[i]) continue;
    ++res.graded;
    if (testable[i]) {
      ++res.syndrome_testable;
    } else {
      res.untestable.push_back(faults[i]);
    }
  }
  res.status = static_cast<guard::RunStatus>(
      stop.load(std::memory_order_relaxed));
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("bist.syndrome.analyses").add(1);
    reg.counter("bist.syndrome.faults_graded")
        .add(static_cast<std::uint64_t>(res.graded));
    // Every grade is one exhaustive 2^n sweep of the network.
    reg.counter("bist.syndrome.patterns_applied")
        .add((static_cast<std::uint64_t>(res.graded) + 1)
             << nl.inputs().size());
  }
  return res;
}

HeldInputTest syndrome_test_with_held_input(const Netlist& nl,
                                            const Fault& f) {
  // Hold input i at v: compare ones-counts restricted to the subcube.
  // Implemented by counting over all patterns but masking to the subcube:
  // equivalent to two passes of 2^(n-1) patterns each.
  const std::size_t n = nl.inputs().size();
  if (n > 22) throw std::invalid_argument("too many inputs");
  HeldInputTest out;

  // Every block sets all inputs and re-evaluates the whole good machine,
  // so one simulator serves every held input and value.
  ParallelSim sim(nl);
  const std::vector<GateId> cone = sim.cone_of(f.gate);
  for (std::size_t i = 0; i < n && !out.testable; ++i) {
    for (int v = 0; v < 2 && !out.testable; ++v) {
      // Count ones over patterns with input i == v, good vs faulty.
      const std::uint64_t total = 1ull << n;
      // Subcube ones-counts, good vs faulty, accumulated over all blocks:
      // a syndrome is a count, so the comparison happens on the totals.
      std::vector<std::uint64_t> good_count(nl.outputs().size(), 0);
      std::vector<std::uint64_t> bad_count(nl.outputs().size(), 0);
      for (std::uint64_t base = 0; base < total; base += 64) {
        const std::uint64_t blk = std::min<std::uint64_t>(64, total - base);
        std::uint64_t subcube = 0;
        for (std::uint64_t b = 0; b < blk; ++b) {
          if ((((base + b) >> i) & 1) == static_cast<std::uint64_t>(v)) {
            subcube |= 1ull << b;
          }
        }
        if (subcube == 0) continue;
        for (std::size_t k = 0; k < n; ++k) {
          std::uint64_t w = 0;
          for (std::uint64_t b = 0; b < blk; ++b) {
            if (((base + b) >> k) & 1) w |= 1ull << b;
          }
          sim.set_word(nl.inputs()[k], w);
        }
        sim.evaluate();
        for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
          good_count[o] += std::popcount(sim.word(nl.outputs()[o]) & subcube);
        }
        const std::uint64_t forced = f.sa1 ? ~0ull : 0ull;
        const std::uint64_t good_site = sim.word(f.gate);
        const std::uint64_t site =
            f.pin < 0 ? forced
                      : sim.eval_with_forced_pin(f.gate, f.pin, forced);
        sim.force_word(f.gate, site);
        sim.evaluate_gates(cone);
        for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
          bad_count[o] += std::popcount(sim.word(nl.outputs()[o]) & subcube);
        }
        // evaluate() recomputes the cone but not a constant site, so the
        // next block's good machine needs the site restored.
        sim.force_word(f.gate, good_site);
      }
      if (good_count != bad_count) {
        out.testable = true;
        out.held_input = nl.inputs()[i];
        out.held_value = v != 0;
      }
    }
  }
  return out;
}

SyndromeModification make_syndrome_testable(const Netlist& nl,
                                            const Fault& f) {
  SyndromeModification res;
  if (nl.inputs().size() > 15) {
    throw std::invalid_argument("network too wide to search exhaustively");
  }
  // Candidate splice nets: splicing the propagation path itself applies the
  // same monotone transform to good and faulty function and preserves count
  // equality, so the effective candidates are the SIDE inputs of the gates
  // along the fault's fanout cone (plus the cone nets, which occasionally
  // help through reconvergence).
  const auto cone = nl.fanout_cone(f.gate);
  std::vector<char> seen(nl.size(), 0);
  std::vector<GateId> candidates;
  auto add = [&](GateId g) {
    if (!seen[g] && nl.type(g) != GateType::Output && !nl.fanout(g).empty() &&
        nl.type(g) != GateType::Const0 && nl.type(g) != GateType::Const1) {
      seen[g] = 1;
      candidates.push_back(g);
    }
  };
  for (GateId g : cone) {
    for (GateId x : nl.fanin(g)) add(x);  // side inputs first
  }
  for (GateId g : cone) add(g);

  for (GateId x : candidates) {
    for (bool use_or : {true, false}) {
      Netlist mod = nl;  // ids preserved
      const GateId c = mod.add_input("syn_ctl");
      GateId splice;
      int gates = 1;
      if (use_or) {
        splice = mod.add_gate(GateType::Or, {x, c}, "syn_splice");
      } else {
        const GateId nc = mod.add_gate(GateType::Not, {c}, "syn_nc");
        splice = mod.add_gate(GateType::And, {x, nc}, "syn_splice");
        gates = 2;
      }
      // Rewire x's sinks to the splice.
      std::vector<std::pair<GateId, int>> sinks;
      for (GateId s : mod.fanout(x)) {
        if (s == splice) continue;
        const auto& fin = mod.fanin(s);
        for (std::size_t p = 0; p < fin.size(); ++p) {
          if (fin[p] == x) sinks.emplace_back(s, static_cast<int>(p));
        }
      }
      for (const auto& [s, p] : sinks) mod.set_fanin(s, p, splice);
      mod.validate();

      if (minterm_counts_faulty(mod, f) != minterm_counts(mod)) {
        res.found = true;
        res.spliced_net = x;
        res.used_or = use_or;
        res.extra_inputs = 1;
        res.extra_gates = gates;
        res.modified = std::move(mod);
        return res;
      }
    }
  }
  return res;
}

SyndromeTestResult run_syndrome_tester(const Netlist& nl, const Fault* f) {
  SyndromeTestResult res;
  res.expected = minterm_counts(nl);
  res.observed = f == nullptr ? res.expected : minterm_counts_faulty(nl, *f);
  res.patterns_applied = 1ull << nl.inputs().size();
  res.pass = res.observed == res.expected;
  return res;
}

}  // namespace dft
