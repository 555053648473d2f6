// Roth's five-valued D-calculus [93].
//
// D means "1 in the good machine / 0 in the faulty machine"; Dbar the
// reverse. A test exists when a D or Dbar reaches an observation point while
// the fault site is excited.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "netlist/gate.h"
#include "netlist/logic.h"
#include "sim/eval.h"

namespace dft {

enum class DVal : std::uint8_t {
  Zero = 0,
  One = 1,
  X = 2,
  D = 3,     // good 1 / faulty 0
  Dbar = 4,  // good 0 / faulty 1
};

constexpr DVal to_dval(Logic l) {
  switch (l) {
    case Logic::Zero: return DVal::Zero;
    case Logic::One: return DVal::One;
    default: return DVal::X;
  }
}

constexpr bool is_error(DVal v) { return v == DVal::D || v == DVal::Dbar; }
constexpr bool is_assigned(DVal v) { return v != DVal::X; }

// Good-machine / faulty-machine projections (Logic::X when unknown).
constexpr Logic good_of(DVal v) {
  switch (v) {
    case DVal::Zero: return Logic::Zero;
    case DVal::One: return Logic::One;
    case DVal::D: return Logic::One;
    case DVal::Dbar: return Logic::Zero;
    case DVal::X: return Logic::X;
  }
  return Logic::X;
}

constexpr Logic faulty_of(DVal v) {
  switch (v) {
    case DVal::Zero: return Logic::Zero;
    case DVal::One: return Logic::One;
    case DVal::D: return Logic::Zero;
    case DVal::Dbar: return Logic::One;
    case DVal::X: return Logic::X;
  }
  return Logic::X;
}

// Composes the good/faulty pair back into a DVal.
constexpr DVal compose(Logic good, Logic faulty) {
  if (!is_binary(good) || !is_binary(faulty)) return DVal::X;
  if (good == faulty) return good == Logic::One ? DVal::One : DVal::Zero;
  return good == Logic::One ? DVal::D : DVal::Dbar;
}

constexpr DVal dval_not(DVal a) {
  switch (a) {
    case DVal::Zero: return DVal::One;
    case DVal::One: return DVal::Zero;
    case DVal::D: return DVal::Dbar;
    case DVal::Dbar: return DVal::D;
    case DVal::X: return DVal::X;
  }
  return DVal::X;
}

// Generic two-operand composition through the good/faulty projections.
constexpr DVal dval_and(DVal a, DVal b) {
  return compose(logic_and(good_of(a), good_of(b)),
                 logic_and(faulty_of(a), faulty_of(b)));
}

constexpr DVal dval_or(DVal a, DVal b) {
  return compose(logic_or(good_of(a), good_of(b)),
                 logic_or(faulty_of(a), faulty_of(b)));
}

constexpr DVal dval_xor(DVal a, DVal b) {
  return compose(logic_xor(good_of(a), good_of(b)),
                 logic_xor(faulty_of(a), faulty_of(b)));
}

namespace detail {

// Dual-rail code of a DVal over both machines: bits 0-1 the good machine,
// bits 2-3 the faulty machine, each pair "may be 0" (low bit) and "may be 1"
// (high bit). 0 -> 01, 1 -> 10, X -> 11 on each rail.
inline constexpr std::uint8_t kDRails[5] = {
    0b0101,  // Zero
    0b1010,  // One
    0b1111,  // X
    0b0110,  // D: good 1, faulty 0
    0b1001,  // Dbar: good 0, faulty 1
};
inline constexpr unsigned kMay0 = 0b0101;  // both rails' "may be 0" bits
inline constexpr unsigned kMay1 = 0b1010;  // both rails' "may be 1" bits

// The inverse: a rail that is not exactly 01 or 10 is unknown, and an
// unknown rail makes the whole value X (compose()).
inline constexpr DVal kFromDRails[16] = {
    // good: 00      01          10         11
    DVal::X, DVal::X,    DVal::X,   DVal::X,  // faulty 00
    DVal::X, DVal::Zero, DVal::D,   DVal::X,  // faulty 01
    DVal::X, DVal::Dbar, DVal::One, DVal::X,  // faulty 10
    DVal::X, DVal::X,    DVal::X,   DVal::X,  // faulty 11
};

constexpr unsigned swap_drails(unsigned r) {
  return ((r & kMay0) << 1) | ((r & kMay1) >> 1);
}

}  // namespace detail

// Evaluates one combinational gate in the D-calculus over a pin accessor
// (at(i) = DVal on pin i), so callers can read fanins straight out of a
// value table and compose a stuck pin on the fly without a gather copy.
//
// Both machines are folded at once on the four-bit dual-rail code above:
// AND may be 0 when any input may be 0 and may be 1 only when every input
// may be 1; OR is the dual; inversion swaps each rail's bits; XOR is the
// parity of its inputs, X from the first unknown one; MUX selects rails
// with the select's rails. Tri-state/bus gates use the pull-down model of
// the two-valued simulators in each machine (data AND enable, the OR of the
// drivers) so ATPG agrees with fault simulation. Every other gate yields
// compose(eval_gate(goods), eval_gate(faultys)); no DVal is Z.
template <typename At>
DVal eval_gate_dval_at(GateType t, std::size_t n, const At& at) {
  using detail::kDRails;
  using detail::kFromDRails;
  using detail::kMay0;
  using detail::kMay1;
  const auto rails = [&](std::size_t i) {
    return static_cast<unsigned>(kDRails[static_cast<unsigned>(at(i))]);
  };
  switch (t) {
    case GateType::Const0: return DVal::Zero;
    case GateType::Const1: return DVal::One;
    case GateType::Buf:
    case GateType::Output: return at(0);
    case GateType::Not: return dval_not(at(0));
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Tristate:
    case GateType::Bus: {
      unsigned any = 0;
      unsigned all = 0b1111;
      for (std::size_t i = 0; i < n; ++i) {
        const unsigned r = rails(i);
        any |= r;
        all &= r;
      }
      const unsigned and_rails = (any & kMay0) | (all & kMay1);
      const unsigned or_rails = (all & kMay0) | (any & kMay1);
      switch (t) {
        case GateType::And:
        case GateType::Tristate: return kFromDRails[and_rails];
        case GateType::Nand: return kFromDRails[detail::swap_drails(and_rails)];
        case GateType::Nor: return kFromDRails[detail::swap_drails(or_rails)];
        default: return kFromDRails[or_rails];  // Or, Bus
      }
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Any X input makes the parity X: stop at the first one. Otherwise
      // the parity sits on each rail's "may be 0" bit.
      unsigned parity = t == GateType::Xnor ? kMay0 : 0u;
      for (std::size_t i = 0; i < n; ++i) {
        const DVal v = at(i);
        if (v == DVal::X) return DVal::X;
        parity ^= (kDRails[static_cast<unsigned>(v)] >> 1) & kMay0;
      }
      // 01 + parity is 01 or 10 per rail, with no carry between rails.
      return kFromDRails[kMay0 + parity];
    }
    case GateType::Mux: {
      const unsigned sel = rails(kMuxPinSel);
      const unsigned sel0 = (sel & kMay0) * 3u;
      const unsigned sel1 = ((sel >> 1) & kMay0) * 3u;
      return kFromDRails[(sel0 & rails(kMuxPinA)) | (sel1 & rails(kMuxPinB))];
    }
    case GateType::Input:
    case GateType::Dff:
    case GateType::ScanDff:
    case GateType::Srl:
    case GateType::AddressableLatch:
      throw std::logic_error(
          "eval_gate_dval called on a non-combinational gate");
  }
  return DVal::X;
}

// The same over a gathered span of pin values.
inline DVal eval_gate_dval(GateType t, std::span<const DVal> in) {
  return eval_gate_dval_at(t, in.size(),
                           [&](std::size_t i) { return in[i]; });
}

constexpr char to_char(DVal v) {
  switch (v) {
    case DVal::Zero: return '0';
    case DVal::One: return '1';
    case DVal::X: return 'X';
    case DVal::D: return 'D';
    case DVal::Dbar: return 'B';
  }
  return '?';
}

}  // namespace dft
