#include "fault/fault_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <exception>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace dft {

std::size_t source_count(const Netlist& nl) {
  return nl.inputs().size() + nl.storage().size();
}

SourceVector random_source_vector(const Netlist& nl, std::mt19937_64& rng) {
  SourceVector v(source_count(nl));
  for (auto& l : v) l = to_logic((rng() & 1) != 0);
  return v;
}

void random_fill(SourceVector& v, std::mt19937_64& rng) {
  for (auto& l : v) {
    if (!is_binary(l)) l = to_logic((rng() & 1) != 0);
  }
}

void validate_patterns(std::size_t ns,
                       const std::vector<SourceVector>& patterns,
                       bool require_binary) {
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (patterns[p].size() != ns) {
      throw std::invalid_argument(
          "pattern " + std::to_string(p) + " has " +
          std::to_string(patterns[p].size()) + " entries, netlist has " +
          std::to_string(ns) + " sources");
    }
    if (require_binary) {
      for (Logic l : patterns[p]) {
        if (!is_binary(l)) {
          throw std::invalid_argument(
              "pattern " + std::to_string(p) +
              " contains X/Z entries; this engine requires binary patterns "
              "(random_fill them first)");
        }
      }
    }
  }
}

// --- Progress / coverage reporting ---------------------------------------

void FaultSimEngine::emit_progress(std::uint64_t patterns, int detected,
                                   std::size_t total, std::uint64_t items_done,
                                   std::uint64_t items_total,
                                   const guard::Budget* budget) const {
  obs::Progress p;
  p.phase = progress_phase_;
  if (total > 0) {
    p.coverage_pct =
        100.0 * static_cast<double>(detected) / static_cast<double>(total);
  }
  p.patterns = patterns;
  p.items_done = items_done;
  p.items_total = items_total;
  if (budget != nullptr) p.budget_remaining_ms = budget->remaining_ms();
  obs::ProgressSink::global().maybe_emit(p);
}

void record_final_coverage(const FaultSimResult& res) {
  obs::Registry::global()
      .value("fault_sim.coverage.final_pct")
      .set(100.0 * res.coverage());
}

void record_coverage_curve(std::string_view name,
                           const std::vector<int>& first_detected_by,
                           std::size_t num_patterns) {
  obs::Curve& curve = obs::Registry::global().curve(name);
  curve.reset();
  if (num_patterns == 0) return;
  const std::size_t nblocks = (num_patterns + 63) / 64;
  std::vector<std::uint64_t> per_block(nblocks, 0);
  for (const int fd : first_detected_by) {
    if (fd >= 0 && static_cast<std::size_t>(fd) < num_patterns) {
      ++per_block[static_cast<std::size_t>(fd) / 64];
    }
  }
  const double total = static_cast<double>(first_detected_by.size());
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    cum += per_block[b];
    const std::size_t last = std::min(num_patterns, (b + 1) * 64) - 1;
    curve.add(static_cast<double>(last),
              total == 0.0 ? 100.0
                           : 100.0 * static_cast<double>(cum) / total);
  }
}

// --- Serial --------------------------------------------------------------

SerialFaultSimulator::SerialFaultSimulator(const Netlist& nl)
    : nl_(&nl), good_(nl), bad_(good_) {}

void SerialFaultSimulator::apply(CombSim& sim, const SourceVector& pattern) {
  const auto& pis = nl_->inputs();
  const auto& ffs = nl_->storage();
  if (pattern.size() != pis.size() + ffs.size()) {
    throw std::invalid_argument("pattern size mismatch");
  }
  for (std::size_t i = 0; i < pis.size(); ++i) sim.set_value(pis[i], pattern[i]);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    sim.set_value(ffs[i], pattern[pis.size() + i]);
  }
}

bool SerialFaultSimulator::detects(const SourceVector& pattern,
                                   const Fault& f) {
  apply(good_, pattern);
  good_.clear_stuck();
  good_.evaluate();

  apply(bad_, pattern);
  const bool storage_d_fault =
      is_storage(nl_->type(f.gate)) && f.pin == kStoragePinD;
  if (storage_d_fault) {
    bad_.clear_stuck();
  } else {
    bad_.set_stuck({f.gate, f.pin, f.sa1 ? Logic::One : Logic::Zero});
  }
  bad_.evaluate();

  auto differs = [](Logic a, Logic b) {
    return is_binary(a) && is_binary(b) && a != b;
  };
  for (GateId po : nl_->outputs()) {
    if (differs(good_.value(po), bad_.value(po))) return true;
  }
  for (GateId ff : nl_->storage()) {
    Logic faulty_next = bad_.next_state(ff);
    if (storage_d_fault && ff == f.gate) {
      faulty_next = f.sa1 ? Logic::One : Logic::Zero;
    }
    if (differs(good_.next_state(ff), faulty_next)) return true;
  }
  return false;
}

FaultSimResult SerialFaultSimulator::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  validate_patterns(source_count(*nl_), patterns, /*require_binary=*/false);
  FaultSimResult res;
  res.first_detected_by.assign(faults.size(), -1);
  const bool guarded = budget != nullptr && budget->limited();
  std::uint64_t pairs = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::uint64_t fault_pairs = 0;
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      ++fault_pairs;
      if (detects(patterns[pi], faults[fi])) {
        if (res.first_detected_by[fi] < 0) {
          res.first_detected_by[fi] = static_cast<int>(pi);
          ++res.num_detected;
        }
        // Dropping only skips the remaining (pattern, fault) pairs; the
        // first-detection result is the same either way -- the contract the
        // other engines follow.
        if (drop_detected) break;
      }
    }
    pairs += fault_pairs;
    if (progress_on()) {
      emit_progress(pairs, res.num_detected, faults.size(), fi + 1,
                    faults.size(), budget);
    }
    // Poll after each fully-simulated fault: the partial result covers a
    // clean prefix of the fault list, the rest stays -1.
    if (guarded) {
      budget->charge_patterns(fault_pairs);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fault_sim.serial.runs").add(1);
    reg.counter("fault_sim.serial.pairs_simulated").add(pairs);
    reg.counter("fault_sim.serial.detections")
        .add(static_cast<std::uint64_t>(res.num_detected));
    record_final_coverage(res);
  }
  return res;
}

// --- Parallel-pattern single-fault propagation -----------------------------

template class ppsfp::BasicMachineSet<ScalarEval<std::uint64_t>>;

namespace {

ppsfp::Regions build_regions(const CompiledNetlist& cn,
                             const std::vector<char>& observed) {
  const std::size_t n = cn.size();
  ppsfp::Regions r;
  r.region_of.assign(n, 0);
  r.local_of.assign(n, 0);
  r.sink_of.assign(n, kNoGate);
  r.pin_of.assign(n, -1);
  for (GateId g = 0; g < n; ++g) {
    const auto fo = cn.fanout(g);
    if (fo.size() != 1 || !is_combinational(cn.type(fo[0])) || observed[g]) {
      continue;
    }
    const auto fin = cn.fanin(fo[0]);
    r.sink_of[g] = fo[0];
    r.pin_of[g] = static_cast<std::int32_t>(
        std::find(fin.begin(), fin.end(), g) - fin.begin());
  }
  // Stems are numbered in level order -- sources and storage outputs, then
  // the compiled (level, id) order -- so the stems with the deepest fanout
  // cones, the slowest to propagate, are stolen first.
  std::vector<std::uint32_t> size;
  const auto head = [&](GateId g) {
    if (r.sink_of[g] != kNoGate) return;
    r.region_of[g] = static_cast<std::uint32_t>(r.stem.size());
    r.stem.push_back(g);
    size.push_back(1);
  };
  for (GateId g = 0; g < n; ++g) {
    if (!is_combinational(cn.type(g))) head(g);
  }
  const auto topo = cn.topo();
  for (GateId g : topo) head(g);
  // A member joins its sink's region. Sinks are combinational and sit at a
  // strictly higher level, so descending level order, then the sources and
  // storage outputs, meets every sink before the gates it reads.
  const auto join = [&](GateId g) {
    if (r.sink_of[g] == kNoGate) return;
    const std::uint32_t region = r.region_of[r.sink_of[g]];
    r.region_of[g] = region;
    r.local_of[g] = size[region]++;
  };
  for (std::size_t i = topo.size(); i-- > 0;) join(topo[i]);
  for (GateId g = 0; g < n; ++g) {
    if (!is_combinational(cn.type(g))) join(g);
  }
  for (std::uint32_t s : size) r.widest = std::max(r.widest, s);
  return r;
}

}  // namespace

PpsfpFaultSimulator::PpsfpFaultSimulator(
    std::shared_ptr<const CompiledNetlist> cn, int threads,
    std::unique_ptr<ppsfp::MachineSet> machines)
    : cn_(std::move(cn)),
      threads_(resolve_thread_count(threads)),
      lane_machines_(std::move(machines)) {
  max_workers_ = std::min(threads_, resolve_thread_count(0));
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  reset_observation_points();
}

PpsfpFaultSimulator::PpsfpFaultSimulator(
    std::shared_ptr<const CompiledNetlist> cn, int threads, simd::Lane lane)
    : PpsfpFaultSimulator(std::move(cn), threads, nullptr) {
  head_ = std::make_unique<ppsfp::BasicMachineSet<ScalarEval<std::uint64_t>>>(
      cn_, threads_);
  lane_ = lane;
}

void PpsfpFaultSimulator::set_observation_points(
    const std::vector<GateId>& observed) {
  std::vector<char> next(cn_->size(), 0);
  for (GateId g : observed) {
    if (g >= next.size()) {
      throw std::out_of_range("observation point " + std::to_string(g) +
                              " is not a gate of a " +
                              std::to_string(next.size()) + "-gate netlist");
    }
    next[g] = 1;
  }
  ppsfp::Regions regions = build_regions(*cn_, next);
  observed_ = std::move(next);
  regions_ = std::move(regions);
}

void PpsfpFaultSimulator::reset_observation_points() {
  std::vector<GateId> full(cn_->outputs().begin(), cn_->outputs().end());
  for (GateId ff : cn_->storage()) {
    full.push_back(cn_->fanin(ff)[kStoragePinD]);
  }
  set_observation_points(full);
}

// The one schedule, at every thread count and lane. Pattern-word blocks run
// in order; in each block the caller evaluates the block lane's good
// machine, then every worker copies it into its own faulty machine and
// steals stem regions, one at a time, from a shared counter until the list
// is done. One region is one stem propagation, and those costs differ by
// orders of magnitude, so a region is the unit of stealing. The caller is
// worker 0 and pool_->wait() is the barrier between blocks; at one worker
// the same loop runs inline.
//
// Regions are disjoint and blocks are ordered, so each first_detected_by
// entry has one writer per block and the first block that detects a fault
// is the earliest; dropping skips a fault an earlier block detected. What
// a region visit does depends only on the block and the region's faults,
// so the result and the work done (faults simulated, stems propagated,
// gates evaluated, events scheduled) do not depend on the thread count.
// The lane is a per-block choice: under auto, block 0 of a dropping run
// (or of a run that fits in it) is 64 patterns at 64 bits, and at the
// switch to the wide lane the regions whose faults are all detected leave
// the busy list.
FaultSimResult PpsfpFaultSimulator::run(
    const std::vector<SourceVector>& patterns, const std::vector<Fault>& faults,
    bool drop_detected, const guard::Budget* budget) {
  // Validate before any machine is touched: a malformed pattern in the
  // middle of a block must not leave the engine half-mutated.
  validate_patterns(cn_->source_count(), patterns, /*require_binary=*/true);

  // The faults grouped by region: order[fault_begin[r], fault_begin[r+1]),
  // ascending within a region. Workers steal the regions that hold any.
  const std::size_t nf = faults.size();
  const std::size_t nr = regions_.stem.size();
  std::vector<std::uint32_t> fault_begin(nr + 1, 0);
  for (const Fault& f : faults) {
    if (f.gate >= cn_->size() ||
        (f.pin >= 0 &&
         static_cast<std::size_t>(f.pin) >= cn_->fanin(f.gate).size())) {
      throw std::out_of_range("fault site " + std::to_string(f.gate) + "." +
                              std::to_string(f.pin) + " is not in a " +
                              std::to_string(cn_->size()) + "-gate netlist");
    }
    ++fault_begin[regions_.region_of[f.gate] + 1];
  }
  std::vector<std::uint32_t> busy;
  std::size_t most_faults = 0;  // in one region
  for (std::uint32_t r = 0; r < nr; ++r) {
    const std::size_t here = fault_begin[r + 1];
    if (here == 0) continue;
    busy.push_back(r);
    most_faults = std::max(most_faults, here);
  }
  std::partial_sum(fault_begin.begin(), fault_begin.end(),
                   fault_begin.begin());
  std::vector<std::uint32_t> order(nf);
  {
    std::vector<std::uint32_t> at(fault_begin.begin(), fault_begin.end() - 1);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      order[at[regions_.region_of[faults[fi].gate]]++] =
          static_cast<std::uint32_t>(fi);
    }
  }

  FaultSimResult res;
  res.first_detected_by.assign(nf, -1);
  ppsfp::Block block{regions_, observed_, faults, order, fault_begin,
                     drop_detected, res.first_detected_by.data(), busy};

  const std::size_t np = patterns.size();
  const auto bits = static_cast<std::size_t>(pattern_word_bits());
  const bool headed = head_ && (drop_detected || np <= 64);
  const std::size_t rest = headed ? np - std::min<std::size_t>(np, 64) : np;
  const std::size_t nblocks = (headed && np > 0) + (rest + bits - 1) / bits;
  // A worker with no region to steal would only copy the good machine for
  // nothing.
  int workers =
      static_cast<int>(std::min<std::size_t>(max_workers_, busy.size()));
  const bool guarded = budget != nullptr && budget->limited();
  const bool observed = obs::enabled();
  const bool progressing = progress_on();

  obs::Registry& reg = obs::Registry::global();
  std::vector<obs::Histogram*> task_timers;
  obs::Histogram* block_timer = nullptr;
  if (observed) {
    for (int w = 0; w < workers; ++w) {
      task_timers.push_back(&reg.timer("fault_sim.threaded.worker." +
                                       std::to_string(w) + ".task"));
    }
    block_timer = &reg.timer("fault_sim.threaded.block");
  }

  ppsfp::MachineSet* lane = nullptr;  // the previous block's
  std::atomic<std::size_t> detected{0};
  std::uint64_t blocks = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (!(headed && b == 0) && !lane_machines_) {
      lane_machines_ = ppsfp::make_machine_set(lane_, cn_, threads_);
    }
    ppsfp::MachineSet& here = headed && b == 0 ? *head_ : *lane_machines_;
    if (&here != lane) {
      if (lane != nullptr) {
        // The switch to the wide lane: it grades only the regions that
        // still hold a live fault.
        std::erase_if(busy, [&](std::uint32_t r) {
          return std::all_of(
              order.begin() + fault_begin[r],
              order.begin() + fault_begin[r + 1],
              [&](std::uint32_t fi) { return block.first[fi] >= 0; });
        });
        block.busy = busy;
        workers = static_cast<int>(
            std::min<std::size_t>(max_workers_, busy.size()));
        if (observed) {
          reg.counter("fault_sim.auto.tail_faults").add(nf - detected.load());
        }
      }
      lane = &here;
      lane->begin_run(regions_, most_faults);
    }
    block.count = std::min(static_cast<std::size_t>(lane->bits()),
                           np - block.base);
    std::optional<obs::ScopedTimer> block_time;
    if (observed) block_time.emplace(*block_timer);
    if (workers > 0) lane->load_block(patterns, block.base, block.count);
    std::atomic<std::size_t> next{0};
    const auto work = [&](int w) {
      std::optional<obs::ScopedTimer> timer;
      if (observed) timer.emplace(*task_timers[static_cast<std::size_t>(w)]);
      detected.fetch_add(lane->steal(w, block, next),
                         std::memory_order_relaxed);
    };
    for (int w = 1; w < workers; ++w) pool_->submit([&work, w] { work(w); });
    // Worker 0's exception waits for the pool jobs, which use this frame's
    // locals.
    std::exception_ptr err;
    try {
      if (workers > 0) work(0);
    } catch (...) {
      err = std::current_exception();
    }
    // The barrier: every write of this block happens before the next block
    // reads the entries (and before the caller sees the result).
    if (workers > 1) pool_->wait();
    block_time.reset();
    if (err) std::rethrow_exception(err);
    ++blocks;
    block.base += block.count;
    res.num_detected = static_cast<int>(detected.load());
    if (progressing) {
      emit_progress(block.base, res.num_detected, nf, b + 1, nblocks, budget);
    }
    // Nothing left to simulate (every fault dropped, or none given).
    if (static_cast<std::size_t>(res.num_detected) == nf &&
        (drop_detected || nf == 0)) {
      break;
    }
    // Poll after the block's detections are in: a partial covers a clean
    // pattern prefix, and an exhausted budget still gets one block of work.
    if (guarded) {
      budget->charge_patterns(block.count);
      const guard::RunStatus st = budget->poll();
      if (st != guard::RunStatus::Completed) {
        res.status = st;
        break;
      }
    }
  }
  if (headed && blocks > 0) head_->end_run();
  if (blocks > (headed ? 1u : 0u)) lane_machines_->end_run();
  if (!observed) return res;
  // The run-level counters, once per run after the last barrier; each
  // lane's machines added their work counts above. The decomposition
  // counter names the one schedule, so reports stay comparable with older
  // ones.
  reg.counter("fault_sim.threaded.runs").add(1);
  reg.counter("fault_sim.threaded.decomposition.fault_chunk").add(1);
  reg.gauge("fault_sim.threaded.workers").set(workers);
  if (pool_) {
    reg.gauge("thread_pool.max_queue_depth")
        .set_max(static_cast<std::int64_t>(pool_->max_queue_depth()));
  }
  reg.counter("fault_sim.ppsfp.runs").add(1);
  reg.counter("fault_sim.event.runs").add(1);
  reg.counter("fault_sim.ppsfp.pattern_blocks").add(blocks);
  // Dropping takes a fault out of every later block the moment it is
  // detected, so each detection is one dropped fault -- counted once, not
  // once per block that skips it.
  const auto detections = static_cast<std::uint64_t>(res.num_detected);
  reg.counter("fault_sim.ppsfp.faults_dropped")
      .add(drop_detected ? detections : 0);
  reg.counter("fault_sim.ppsfp.detections").add(detections);
  record_final_coverage(res);
  return res;
}

}  // namespace dft
