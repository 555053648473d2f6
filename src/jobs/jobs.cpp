#include "jobs/jobs.h"

#include <charconv>
#include <climits>
#include <type_traits>
#include <utility>

#include "fault/threaded_fault_sim.h"
#include "lfsr/lfsr.h"
#include "obs/trace.h"
#include "sim/comb_sim.h"

namespace dft::jobs {

namespace {

using Kind = OptionSpec::Kind;

// The setter of one Options member: `text` for a string, `number` else.
template <auto Member>
void store(Options& o, long long number, const std::string& text) {
  using T = std::remove_reference_t<decltype(o.*Member)>;
  if constexpr (std::is_same_v<T, std::string>) {
    o.*Member = text;
  } else {
    o.*Member = static_cast<T>(number);
  }
}

// The request options first, then the settings only dft_tool has.
constexpr OptionSpec kOptions[] = {
    {"deadline_ms", "--time-budget-ms", Kind::Int, 0, kMaxMs,
     store<&Options::deadline_ms>},
    {"patterns", "--patterns", Kind::Int, 1, 1'000'000,
     store<&Options::patterns>},
    {"engine", "--engine", Kind::String, 0, 0, store<&Options::engine>},
    {"threads", "--threads", Kind::Int, 1, kMaxThreads,
     store<&Options::threads>},
    {"backtrack_limit", "", Kind::Int, 1, 1'000'000'000,
     store<&Options::backtrack_limit>},
    {"include_tests", "", Kind::Bool, 0, 0, store<&Options::include_tests>},
    {"seed", "", Kind::Int, 0, 1LL << 53, store<&Options::seed>},
    {"resume_of", "", Kind::String, 0, 0, store<&Options::resume_of>},
    {"", "--retry-aborted", Kind::Flag, 1, 1, store<&Options::retry_aborted>},
    {"", "--no-learn", Kind::Flag, 0, 0, store<&Options::learn>},
};

// The one range check: returns v, or throws OptionError.
long long in_range(std::string_view name, long long v, long long lo,
                   long long hi) {
  if (v < lo || v > hi) {
    throw OptionError("option '" + std::string(name) + "' out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace

const OptionSpec* find_option(std::string_view key) {
  for (const OptionSpec& s : kOptions) {
    if (!key.empty() && s.key == key) return &s;
  }
  return nullptr;
}

const OptionSpec* find_flag(std::string_view flag) {
  for (const OptionSpec& s : kOptions) {
    if (!flag.empty() && s.flag == flag) return &s;
  }
  return nullptr;
}

long long parse_integer(std::string_view name, std::string_view text,
                        long long lo, long long hi) {
  long long v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc() && ptr == end) return in_range(name, v, lo, hi);
  if (ec == std::errc::result_out_of_range) {
    return in_range(name, text[0] == '-' ? LLONG_MIN : LLONG_MAX, lo, hi);
  }
  throw OptionError("option '" + std::string(name) +
                    "' must be an integer (got '" + std::string(text) + "')");
}

void set_option(Options& opt, const OptionSpec& spec, long long number,
                const std::string& text) {
  if (spec.kind == Kind::Int) in_range(spec.key, number, spec.lo, spec.hi);
  if (spec.key == "engine") {
    try {
      check_fault_sim_engine(text);
    } catch (const std::invalid_argument& e) {
      throw OptionError(e.what());
    }
  }
  spec.set(opt, spec.kind == Kind::Flag ? spec.lo : number, text);
}

CompiledCircuit compile(Netlist nl) {
  obs::Phase phase("collapse");
  CompiledCircuit c{std::move(nl), {}};
  c.faults = collapse_faults(c.netlist).representatives;
  return c;
}

guard::Budget make_budget(long long deadline_ms,
                          std::shared_ptr<guard::CancelToken> token) {
  guard::Budget budget;
  if (deadline_ms >= 0) budget.set_deadline_ms(deadline_ms);
  budget.set_cancel_token(std::move(token));
  return budget;
}

BistResult bist(const CompiledCircuit& c, const Options& opt,
                const guard::Budget& budget) {
  const Netlist& nl = c.netlist;
  BistResult r;
  r.sources = source_count(nl);
  std::vector<SourceVector> tests;
  {
    obs::Phase phase("bist.prpg");
    Lfsr prpg = Lfsr::maximal(24, opt.seed == 0 ? 0x5eed : opt.seed);
    tests.reserve(static_cast<std::size_t>(opt.patterns));
    for (int p = 0; p < opt.patterns; ++p) {
      SourceVector v(r.sources);
      for (Logic& bit : v) bit = to_logic(prpg.step());
      tests.push_back(std::move(v));
    }
  }
  {
    obs::Phase phase("bist.signature");
    CombSim sim(nl);
    SignatureAnalyzer sa(32);
    for (const SourceVector& v : tests) {
      std::size_t k = 0;
      for (GateId g : nl.inputs()) sim.set_value(g, v[k++]);
      for (GateId g : nl.storage()) sim.set_value(g, v[k++]);
      sim.evaluate();
      for (GateId po : nl.outputs()) sa.shift(sim.value(po) == Logic::One);
      r.signature_updates += nl.outputs().size();
    }
    r.signature = sa.signature();
  }
  {
    obs::Phase phase("bist.fault_sim");
    const auto fsim = make_fault_sim_engine(nl, opt.engine, opt.threads);
    fsim->set_progress_phase("bist.fault_sim");
    r.grading = fsim->run(tests, c.faults, true, &budget);
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("bist.prpg.patterns_applied")
        .add(static_cast<std::uint64_t>(opt.patterns));
    reg.counter("bist.prpg.signature_updates").add(r.signature_updates);
    record_coverage_curve("bist.coverage_curve", r.grading.first_detected_by,
                          tests.size());
  }
  return r;
}

StaResult sta(const CompiledCircuit& c, const Options& opt,
              const guard::Budget& budget) {
  obs::Phase phase("sta");
  sta::StaOptions sopt;
  sopt.learn = opt.learn;
  sopt.budget = budget;
  const sta::StaticAnalyzer analyzer(c.netlist, sopt);
  StaResult r;
  r.untestable = analyzer.untestable_faults(c.faults);
  r.stats = analyzer.stats();
  if (obs::enabled()) {
    obs::Registry::global()
        .counter("sta.untestable_faults")
        .add(static_cast<std::uint64_t>(r.untestable.size()));
  }
  return r;
}

AtpgRun atpg(const CompiledCircuit& c, const Options& opt,
             const guard::Budget& budget, const AtpgRun* resume) {
  AtpgOptions aopt;
  aopt.backtrack_limit = opt.backtrack_limit;
  aopt.engine = opt.engine;
  aopt.threads = opt.threads;
  aopt.seed = opt.seed;
  aopt.retry_aborted = opt.retry_aborted;
  aopt.budget = budget;
  return resume != nullptr
             ? resume_atpg(c.netlist, c.faults, *resume, aopt)
             : run_atpg(c.netlist, c.faults, aopt);
}

}  // namespace dft::jobs
