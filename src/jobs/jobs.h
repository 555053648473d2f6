// dft::jobs -- each job that both dft_tool and the dft::serve daemon run,
// implemented once: compiled circuit + Options + budget -> typed result,
// recording the same phases and counters whichever front end called it.
// The front ends map their input onto Options through the one option table
// below, which names and bounds every option, and render the result.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/engine.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "guard/guard.h"
#include "netlist/netlist.h"
#include "sta/sta.h"

namespace dft::jobs {

// Every setting a job reads. The defaults are the daemon's; dft_tool sets
// its own per mode before it parses flags.
struct Options {
  long long deadline_ms = -1;  // -1 = no deadline
  int patterns = 256;          // fault_sim / bist pattern count
  std::string engine;          // fault-sim engine name ("" = factory default)
  int threads = 1;             // fault-sim workers inside the job
  int backtrack_limit = 20000;
  bool include_tests = false;  // atpg: ship the test vectors in the result
  std::uint64_t seed = 1;      // atpg / fault_sim RNG; bist LFSR (0 = 0x5eed)
  std::string resume_of;       // atpg: continue a retained partial run
  bool retry_aborted = false;  // atpg: escalate aborted faults
  bool learn = true;           // sta: run the learning fixpoint
};

// Bounds shared with the settings outside the table: every millisecond
// setting (one day) and every worker-thread count.
inline constexpr long long kMaxMs = 86'400'000;
inline constexpr long long kMaxThreads = 64;

// A rejected option: malformed number, out of range, unknown engine. The
// daemon answers it with bad_request, dft_tool exits 2.
struct OptionError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// One row of the option table. `key` is the request option name ("" for a
// setting only dft_tool has), `flag` the dft_tool flag ("" when the CLI
// has none). Int values are bounded to [lo, hi]; a Flag takes no value and
// stores `lo`.
struct OptionSpec {
  enum class Kind { Int, String, Bool, Flag };
  std::string_view key;
  std::string_view flag;
  Kind kind;
  long long lo = 0, hi = 0;
  void (*set)(Options&, long long number, const std::string& text);
};

const OptionSpec* find_option(std::string_view key);  // nullptr if unknown
const OptionSpec* find_flag(std::string_view flag);   // nullptr if unknown

// Checks a value against its row and stores it: `number` for Int and Bool
// rows, `text` for String rows (engine names are checked against the
// fault-sim factory); a Flag row stores its `lo`. Throws OptionError naming
// the option by its key.
void set_option(Options& opt, const OptionSpec& spec, long long number,
                const std::string& text = {});

// The one strict text parser for every number on the command line: the
// whole of `text` must be a decimal integer within [lo, hi]. Throws
// OptionError "option '<name>' must be an integer" / "out of range".
long long parse_integer(std::string_view name, std::string_view text,
                        long long lo, long long hi);

// A netlist plus its collapsed fault representatives: everything a job
// needs that depends on the circuit bytes alone. compile() collapses under
// the obs phase "collapse".
struct CompiledCircuit {
  Netlist netlist;
  std::vector<Fault> faults;
};
CompiledCircuit compile(Netlist nl);

// A budget with `deadline_ms` armed from now (when >= 0) and `token`
// attached, so ^C, SIGTERM or a drain cancels the job cooperatively.
guard::Budget make_budget(long long deadline_ms,
                          std::shared_ptr<guard::CancelToken> token);

// Pseudo-random self-test: a maximal 24-bit LFSR feeds every source
// serially (like a scan-BIST session shifting the chain from the
// generator), a 32-bit signature analyzer compacts the good-machine
// primary-output responses (Fig. 8), and fault simulation grades the
// pattern set. Only the grading polls the budget.
struct BistResult {
  std::size_t sources = 0;
  std::uint64_t signature = 0;
  std::uint64_t signature_updates = 0;
  FaultSimResult grading;
};
BistResult bist(const CompiledCircuit& c, const Options& opt,
                const guard::Budget& budget);

// Static structural analysis and the statically untestable faults.
struct StaResult {
  sta::StaStats stats;
  std::vector<Fault> untestable;
};
StaResult sta(const CompiledCircuit& c, const Options& opt,
              const guard::Budget& budget);

// Full ATPG, or -- given `resume`, a partial run on the same circuit --
// resume_atpg from where it stopped.
AtpgRun atpg(const CompiledCircuit& c, const Options& opt,
             const guard::Budget& budget, const AtpgRun* resume = nullptr);

}  // namespace dft::jobs
