#include "sim/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#ifndef DFT_SIMD_DEFAULT
#define DFT_SIMD_DEFAULT "auto"
#endif

namespace dft::simd {

namespace {

// Whether the intrinsic backends exist in this binary (sim/simd_eval.cpp
// compiles them whenever the toolchain supports function-level target
// attributes on x86-64).
constexpr bool kIsaCompiled = DFT_SIMD_X86 != 0;

bool cpu_has_avx2() {
#if DFT_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if DFT_SIMD_X86
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

struct Resolution {
  Lane lane;
  std::string diagnostic;
  bool automatic = false;  // the lane came from the auto policy
};

Lane auto_lane() {
  if (kIsaCompiled && cpu_has_avx512f()) return Lane::Avx512;
  if (kIsaCompiled && cpu_has_avx2()) return Lane::Avx2;
  return Lane::Scalar4;
}

// Parses one DFT_SIMD value. "auto" and unknown strings resolve through
// auto_lane(); unknown strings warn once per distinct process run.
Resolution resolve_value(const char* value, const char* origin) {
  const std::string_view v = value;
  const auto with = [&](Lane l) {
    return Resolution{l, std::string(origin) + "=" + value};
  };
  if (v == "off") return with(Lane::Off);
  if (v == "scalar" || v == "scalar4") return with(Lane::Scalar4);
  if (v == "scalar8") return with(Lane::Scalar8);
  if (v == "avx2") {
    if (host_supports(Lane::Avx2)) return with(Lane::Avx2);
    return {Lane::Scalar4, std::string(origin) + "=" + value +
                               " unsupported on this host; scalar4 fallback"};
  }
  if (v == "avx512") {
    if (host_supports(Lane::Avx512)) return with(Lane::Avx512);
    return {Lane::Scalar8, std::string(origin) + "=" + value +
                               " unsupported on this host; scalar8 fallback"};
  }
  if (v != "auto") {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "dft: unknown %s value '%s' (expected auto|off|scalar|"
                   "scalar4|scalar8|avx2|avx512); using auto\n",
                   origin, value);
    }
  }
  const Lane l = auto_lane();
  return {l,
          std::string(origin) + "=" + value +
              " -> auto: off for a dropping run's first 64 patterns, " +
              std::string(lane_name(l)) + " after",
          true};
}

Resolution resolve_now() {
  const char* env = std::getenv("DFT_SIMD");
  if (env != nullptr && env[0] != '\0') {
    return resolve_value(env, "env DFT_SIMD");
  }
  return resolve_value(DFT_SIMD_DEFAULT, "build DFT_SIMD");
}

// resolve_diagnostic needs storage that outlives the call; the inputs
// (environment + CPUID) are fixed per process for any sane caller, so one
// cached line is enough.
const Resolution& cached_resolution() {
  static const Resolution r = resolve_now();
  return r;
}

}  // namespace

int lane_bits(Lane lane) {
  switch (lane) {
    case Lane::Off: return 64;
    case Lane::Scalar4:
    case Lane::Avx2: return 256;
    case Lane::Scalar8:
    case Lane::Avx512: return 512;
  }
  return 64;
}

std::string_view lane_tag(Lane lane) {
  switch (lane) {
    case Lane::Off: return "scalar_x1";
    case Lane::Scalar4: return "scalar_x4";
    case Lane::Scalar8: return "scalar_x8";
    case Lane::Avx2: return "avx2_x4";
    case Lane::Avx512: return "avx512_x8";
  }
  return "?";
}

std::string_view lane_name(Lane lane) {
  switch (lane) {
    case Lane::Off: return "off";
    case Lane::Scalar4: return "scalar4";
    case Lane::Scalar8: return "scalar8";
    case Lane::Avx2: return "avx2";
    case Lane::Avx512: return "avx512";
  }
  return "?";
}

bool host_supports(Lane lane) {
  switch (lane) {
    case Lane::Off:
    case Lane::Scalar4:
    case Lane::Scalar8: return true;
    case Lane::Avx2: return kIsaCompiled && cpu_has_avx2();
    case Lane::Avx512: return kIsaCompiled && cpu_has_avx512f();
  }
  return false;
}

std::vector<Lane> available_lanes() {
  std::vector<Lane> lanes{Lane::Off, Lane::Scalar4, Lane::Scalar8};
  if (host_supports(Lane::Avx2)) lanes.push_back(Lane::Avx2);
  if (host_supports(Lane::Avx512)) lanes.push_back(Lane::Avx512);
  return lanes;
}

// The env var is re-read on every call so a process can sweep lanes
// (tests do); the diagnostic below intentionally caches only the first.
Lane resolve_lane() { return resolve_now().lane; }

bool resolves_auto() { return resolve_now().automatic; }

std::string_view resolve_diagnostic() { return cached_resolution().diagnostic; }

int default_pattern_word_bits() { return lane_bits(resolve_lane()); }

}  // namespace dft::simd
