// Multi-limb pattern words: the PPSFP bit-parallel unit, widened.
//
// The classic parallel-pattern word is one std::uint64_t -- 64 patterns per
// gate evaluation. PatternWord<W> packs W such limbs (W = 4 -> 256 patterns,
// W = 8 -> 512) so one pass through the netlist -- one traversal, one
// pointer-chase per fanin, one event-wheel walk -- grades 4-8x the patterns.
// The limb loops below are plain scalar code the compiler unrolls and
// auto-vectorizes with whatever the *default* build allows (SSE2 on
// x86-64); the AVX2/AVX-512 intrinsic backends in sim/simd_eval.h evaluate
// the same words with wider registers and are selected at runtime by CPUID
// (sim/simd.h). Every consumer goes through WordTraits, so the simulators
// and fault-sim engines are written once and instantiated per width.
//
// Bit-position contract (shared by every width): pattern `base + i` of a
// block loaded at pattern index `base` lives in limb i/64, bit i%64. The
// traits' first_set therefore recovers the same earliest-pattern index the
// 64-bit engine computes -- detections stay keyed by global pattern index.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace dft {

template <int W>
struct PatternWord {
  static_assert(W == 4 || W == 8, "supported widths: 4x64, 8x64");
  std::uint64_t limb[W];

  friend constexpr PatternWord operator&(PatternWord a, const PatternWord& b) {
    for (int i = 0; i < W; ++i) a.limb[i] &= b.limb[i];
    return a;
  }
  friend constexpr PatternWord operator|(PatternWord a, const PatternWord& b) {
    for (int i = 0; i < W; ++i) a.limb[i] |= b.limb[i];
    return a;
  }
  friend constexpr PatternWord operator^(PatternWord a, const PatternWord& b) {
    for (int i = 0; i < W; ++i) a.limb[i] ^= b.limb[i];
    return a;
  }
  friend constexpr PatternWord operator~(PatternWord a) {
    for (int i = 0; i < W; ++i) a.limb[i] = ~a.limb[i];
    return a;
  }
  constexpr PatternWord& operator&=(const PatternWord& b) {
    for (int i = 0; i < W; ++i) limb[i] &= b.limb[i];
    return *this;
  }
  constexpr PatternWord& operator|=(const PatternWord& b) {
    for (int i = 0; i < W; ++i) limb[i] |= b.limb[i];
    return *this;
  }
  constexpr PatternWord& operator^=(const PatternWord& b) {
    for (int i = 0; i < W; ++i) limb[i] ^= b.limb[i];
    return *this;
  }
  constexpr bool operator==(const PatternWord&) const = default;
};

// Uniform view over a pattern word type: the handful of operations the
// simulators need beyond plain bitwise algebra. Specialized for the classic
// std::uint64_t word and for PatternWord<W>; the engine templates only ever
// talk to this interface.
template <typename Word>
struct WordTraits;

template <>
struct WordTraits<std::uint64_t> {
  static constexpr int kBits = 64;
  static constexpr std::uint64_t zeros() { return 0; }
  static constexpr std::uint64_t ones() { return ~0ull; }
  // Mask selecting the first n patterns (the ragged last block); n <= 64.
  static constexpr std::uint64_t prefix_mask(std::size_t n) {
    return n >= 64 ? ~0ull : (std::uint64_t{1} << n) - 1;
  }
  static constexpr bool any(std::uint64_t w) { return w != 0; }
  // In-word index of the earliest set pattern bit; w must be nonzero.
  static constexpr int first_set(std::uint64_t w) {
    return std::countr_zero(w);
  }
  static constexpr void set_bit(std::uint64_t& w, std::size_t b) {
    w |= std::uint64_t{1} << b;
  }
  static constexpr bool test_bit(std::uint64_t w, std::size_t b) {
    return ((w >> b) & 1) != 0;
  }
};

template <int W>
struct WordTraits<PatternWord<W>> {
  using Word = PatternWord<W>;
  static constexpr int kBits = W * 64;
  static constexpr Word zeros() { return Word{}; }
  static constexpr Word ones() {
    Word w{};
    for (int i = 0; i < W; ++i) w.limb[i] = ~0ull;
    return w;
  }
  static constexpr Word prefix_mask(std::size_t n) {
    Word w{};
    for (int i = 0; i < W; ++i) {
      const std::size_t lo = static_cast<std::size_t>(i) * 64;
      if (n >= lo + 64) {
        w.limb[i] = ~0ull;
      } else if (n > lo) {
        w.limb[i] = (std::uint64_t{1} << (n - lo)) - 1;
      }
    }
    return w;
  }
  // Per-limb OR, one reduction -- the movemask-style "any pattern detects"
  // test the detection loop runs per fault word.
  static constexpr bool any(const Word& w) {
    std::uint64_t acc = 0;
    for (int i = 0; i < W; ++i) acc |= w.limb[i];
    return acc != 0;
  }
  static constexpr int first_set(const Word& w) {
    for (int i = 0; i < W; ++i) {
      if (w.limb[i] != 0) return i * 64 + std::countr_zero(w.limb[i]);
    }
    return kBits;  // unreachable under the nonzero precondition
  }
  static constexpr void set_bit(Word& w, std::size_t b) {
    w.limb[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  static constexpr bool test_bit(const Word& w, std::size_t b) {
    return ((w.limb[b / 64] >> (b % 64)) & 1) != 0;
  }
};

}  // namespace dft
