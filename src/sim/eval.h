// Single-gate evaluation helpers shared by the simulators.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "netlist/gate.h"
#include "netlist/logic.h"
#include "sim/pattern_word.h"

namespace dft {

// Four-valued evaluation of one combinational gate. `in` holds the values of
// the gate's fanin nets in pin order. Buses resolve multiple tri-state
// drivers: all-Z yields Z, agreeing drivers win, conflicts yield X.
Logic eval_gate(GateType t, std::span<const Logic> in);

namespace detail {

// Two-valued bit-parallel evaluation over an arbitrary pin accessor
// (at(i) = word of fanin pin i). The word type is whatever the accessor
// yields: the classic std::uint64_t (64 patterns) or a multi-limb
// PatternWord (256/512 patterns; see sim/pattern_word.h). Both scalar
// spellings (eval_gate_word_ids_w and ScalarEval::eval_forced) instantiate
// this one function, so they can never drift apart; the runtime-dispatched
// AVX backends mirror this switch with intrinsics, and the differential
// fuzzers pin them to it. Tri-state drivers contribute (data AND enable) and
// buses OR their drivers (a pull-down bus model), which keeps bus logic
// meaningful without a third value.
template <typename At,
          typename Word = std::remove_cvref_t<
              std::invoke_result_t<const At&, std::size_t>>>
Word eval_word_impl(GateType t, std::size_t n, const At& at) {
  using T = WordTraits<Word>;
  switch (t) {
    case GateType::Const0: return T::zeros();
    case GateType::Const1: return T::ones();
    case GateType::Buf:
    case GateType::Output: return at(0);
    case GateType::Not: return ~at(0);
    case GateType::And:
    case GateType::Nand: {
      Word v = T::ones();
      for (std::size_t i = 0; i < n; ++i) v &= at(i);
      return t == GateType::And ? v : ~v;
    }
    case GateType::Or:
    case GateType::Nor: {
      Word v = T::zeros();
      for (std::size_t i = 0; i < n; ++i) v |= at(i);
      return t == GateType::Or ? v : ~v;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Word v = T::zeros();
      for (std::size_t i = 0; i < n; ++i) v ^= at(i);
      return t == GateType::Xor ? v : ~v;
    }
    case GateType::Mux: {
      const Word sel = at(kMuxPinSel);
      return (at(kMuxPinA) & ~sel) | (at(kMuxPinB) & sel);
    }
    case GateType::Tristate:
      return at(kTristatePinData) & at(kTristatePinEnable);
    case GateType::Bus: {
      Word v = T::zeros();
      for (std::size_t i = 0; i < n; ++i) v |= at(i);
      return v;
    }
    case GateType::Input:
    case GateType::Dff:
    case GateType::ScanDff:
    case GateType::Srl:
    case GateType::AddressableLatch:
      throw std::logic_error(
          "eval_word_impl called on a non-combinational gate");
  }
  return T::zeros();
}

}  // namespace detail

// Evaluation reading fanin words through a flat id array (a CSR fanin span)
// straight out of the value table -- no gather copy. This is the
// compiled-netlist inner loop, at any pattern-word width.
template <typename Word>
inline Word eval_gate_word_ids_w(GateType t, const GateId* fanin,
                                 std::size_t n, const Word* words) {
  return detail::eval_word_impl(
      t, n, [&](std::size_t i) { return words[fanin[i]]; });
}

// Xor/Xnor: the output word is the good word XOR the XOR of the fanins'
// difference words, so one changed fanin costs O(1) however wide the gate.
constexpr bool is_parity(GateType t) {
  return t == GateType::Xor || t == GateType::Xnor;
}

// Controlling input value for simple gates (AND/NAND/tri-state: 0;
// OR/NOR/bus: 1). Returns false if the gate has none (parity gates, MUX).
bool controlling_value(GateType t, Logic& value);
// True when the gate's output is inverted relative to its inputs' sense.
bool inverts(GateType t);

}  // namespace dft
