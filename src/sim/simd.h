// Runtime lane selection for the widened PPSFP pattern word.
//
// A "lane" names one (word width, implementation) pair the fault-sim
// engine stack can be instantiated with:
//
//   lane      word    implementation
//   Off       64      std::uint64_t scalar -- the classic path, always on
//   Scalar4   256     PatternWord<4>, portable unrolled scalar limbs
//   Scalar8   512     PatternWord<8>, portable unrolled scalar limbs
//   Avx2      256     PatternWord<4> evaluated with AVX2 intrinsics
//   Avx512    512     PatternWord<8> evaluated with AVX-512F intrinsics
//
// Every lane produces bit-identical FaultSimResults (the differential
// fuzzers and the dft_simd_parity ctest prove it); they differ only in
// throughput. Selection order: the DFT_SIMD environment variable if set,
// else the build-time DFT_SIMD_DEFAULT (CMake -DDFT_SIMD=..., default
// "auto"), where "auto" resolves to the widest lane this CPU supports via
// CPUID (avx512 > avx2 > scalar4). Under "auto" the policy-following
// engine factories (fault/threaded_fault_sim.h) make the lane a per-block
// choice: with fault dropping most faults fall to the first patterns,
// where a wide word carries every fault through patterns the 64-bit word
// does not need, so a dropping run grades its first block, 64 patterns,
// at 64 bits and every later block at the resolved lane. An explicit value
// pins one lane for the whole run. Forcing an ISA the host lacks (or that this
// build could not compile) degrades to the same-width scalar lane, never to
// a crash: the intrinsic backends are compiled per-function with GCC/Clang
// target attributes, so no ISA flags leak into the rest of the build and a
// non-AVX host simply never calls them.
//
// Accepted DFT_SIMD values: auto | off | scalar | scalar4 | scalar8 |
// avx2 | avx512 ("scalar" is an alias for scalar4, the portable multi-limb
// default). Anything else warns once on stderr and falls back to auto.
#pragma once

#include <string_view>
#include <vector>

// The per-function target-attribute backends need an x86-64 GCC/Clang
// toolchain; elsewhere the scalar lanes carry the full width ladder.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DFT_SIMD_X86 1
#else
#define DFT_SIMD_X86 0
#endif

namespace dft::simd {

enum class Lane { Off, Scalar4, Scalar8, Avx2, Avx512 };

// Pattern bits per word: 64 / 256 / 512 / 256 / 512.
int lane_bits(Lane lane);
// Stable obs/report tag: scalar_x1, scalar_x4, scalar_x8, avx2_x4,
// avx512_x8 (echoed as fault_sim.lanes.<tag> and in bench context blocks).
std::string_view lane_tag(Lane lane);
// CLI spelling, matching the DFT_SIMD values: off, scalar4, scalar8, avx2,
// avx512.
std::string_view lane_name(Lane lane);

// True when this build compiled the lane's backend AND the running CPU
// executes it. Scalar lanes are always supported.
bool host_supports(Lane lane);
// Every supported lane, widest last (Off first) -- what dft_tool simd
// lists and the parity ctest sweeps.
std::vector<Lane> available_lanes();

// Applies the DFT_SIMD env / DFT_SIMD_DEFAULT policy above and returns the
// lane the engine factories use (under "auto", the lane of every block but
// a dropping run's first).
// Re-reads the environment on every call (engine construction is rare);
// unsupported forced ISAs degrade to the same-width scalar lane.
Lane resolve_lane();
// True when resolve_lane()'s answer comes from the "auto" policy: the
// value is "auto" or unknown (which falls back to auto). False when
// DFT_SIMD or the build default names a lane.
bool resolves_auto();

// One-line origin of resolve_lane()'s answer ("env DFT_SIMD=avx2",
// "build DFT_SIMD=auto -> auto: off for a dropping run's first 64
// patterns, avx512 after", ...) for --stats output and bench context.
std::string_view resolve_diagnostic();

// lane_bits(resolve_lane()): the block size factory-made engines report
// via FaultSimEngine::pattern_word_bits(). Width-aware tests use this
// instead of hard-coding 64.
int default_pattern_word_bits();

}  // namespace dft::simd
