#include "bist/walsh.h"

#include <bit>
#include <stdexcept>

#include "sim/parallel_sim.h"

namespace dft {

namespace {

// Sum over all 2^n patterns of W_S(x) * F~(x), evaluated 64 patterns per
// word. W_S(x) = +1 when the number of 0-valued inputs in S is even, else
// -1; F~ = +1 for F=1, -1 for F=0. The product is +1 iff
// parity_of_zeros(S) XOR F == ... computed directly below.
long long coefficient(const Netlist& nl, std::size_t output_index,
                      std::uint32_t subset_mask, const Fault* f) {
  const std::size_t n = nl.inputs().size();
  if (n > 26) throw std::invalid_argument("too many inputs for exhaustion");
  if (output_index >= nl.outputs().size()) {
    throw std::out_of_range("output index");
  }
  if (!nl.storage().empty()) {
    throw std::invalid_argument("Walsh testing needs combinational logic");
  }
  ParallelSim sim(nl);
  const std::vector<GateId> cone =
      f != nullptr ? sim.cone_of(f->gate) : std::vector<GateId>{};

  const GateId po = nl.outputs()[output_index];
  const std::uint64_t total = 1ull << n;
  long long sum = 0;
  for (std::uint64_t base = 0; base < total; base += 64) {
    const std::uint64_t blk = std::min<std::uint64_t>(64, total - base);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t w = 0;
      for (std::uint64_t b = 0; b < blk; ++b) {
        if (((base + b) >> k) & 1) w |= 1ull << b;
      }
      sim.set_word(nl.inputs()[k], w);
    }
    sim.evaluate();
    if (f != nullptr) {
      const std::uint64_t forced = f->sa1 ? ~0ull : 0ull;
      const std::uint64_t site =
          f->pin < 0 ? forced
                     : sim.eval_with_forced_pin(f->gate, f->pin, forced);
      sim.force_word(f->gate, site);
      sim.evaluate_gates(cone);
    }
    const std::uint64_t fw = sim.word(po);
    for (std::uint64_t b = 0; b < blk; ++b) {
      const std::uint64_t x = base + b;
      // W_S(x): product over i in S of (+1 if x_i==1 else -1).
      const int zeros = std::popcount(~x & subset_mask);
      const int ws = (zeros & 1) ? -1 : 1;
      const int ft = ((fw >> b) & 1) ? 1 : -1;
      sum += ws * ft;
    }
  }
  return sum;
}

}  // namespace

long long walsh_coefficient(const Netlist& nl, std::size_t output_index,
                            std::uint32_t subset_mask) {
  return coefficient(nl, output_index, subset_mask, nullptr);
}

long long walsh_coefficient_faulty(const Netlist& nl,
                                   std::size_t output_index,
                                   std::uint32_t subset_mask,
                                   const Fault& f) {
  return coefficient(nl, output_index, subset_mask, &f);
}

std::vector<WalshTableRow> walsh_table(const Netlist& nl) {
  if (nl.inputs().size() != 3 || nl.outputs().empty()) {
    throw std::invalid_argument("walsh_table expects a 3-input function");
  }
  ParallelSim sim(nl);
  // 8 patterns fit in one word. Table I lists x1 x2 x3 with x3 the
  // least-significant (rightmost) column cycling fastest... the table shows
  // rows 000,001,010,...,111 reading x1 x2 x3 left to right, so x3 cycles
  // fastest: pattern index p has x1 = bit2, x2 = bit1, x3 = bit0.
  for (int k = 0; k < 3; ++k) {
    std::uint64_t w = 0;
    for (int p = 0; p < 8; ++p) {
      const int x1 = (p >> 2) & 1, x2 = (p >> 1) & 1, x3 = p & 1;
      const int xi = k == 0 ? x1 : (k == 1 ? x2 : x3);
      if (xi) w |= 1ull << p;
    }
    sim.set_word(nl.inputs()[static_cast<std::size_t>(k)], w);
  }
  sim.evaluate();
  const std::uint64_t fw = sim.word(nl.outputs()[0]);

  std::vector<WalshTableRow> rows;
  for (int p = 0; p < 8; ++p) {
    WalshTableRow r;
    r.x1 = (p >> 2) & 1;
    r.x2 = (p >> 1) & 1;
    r.x3 = p & 1;
    const auto pm = [](int bit) { return bit ? 1 : -1; };
    r.w2 = pm(r.x2);
    r.w13 = pm(r.x1) * pm(r.x3);
    r.f = static_cast<int>((fw >> p) & 1);
    r.w2f = r.w2 * pm(r.f);
    r.w13f = r.w13 * pm(r.f);
    r.wall = pm(r.x1) * pm(r.x2) * pm(r.x3);
    r.wallf = r.wall * pm(r.f);
    rows.push_back(r);
  }
  return rows;
}

WalshTestResult run_walsh_tester(const Netlist& nl, std::size_t output_index,
                                 const Fault* f) {
  WalshTestResult res;
  const std::uint32_t all = all_inputs_mask(nl);
  res.c0_expected = walsh_coefficient(nl, output_index, 0);
  res.call_expected = walsh_coefficient(nl, output_index, all);
  if (f == nullptr) {
    res.c0_observed = res.c0_expected;
    res.call_observed = res.call_expected;
  } else {
    res.c0_observed = walsh_coefficient_faulty(nl, output_index, 0, *f);
    res.call_observed = walsh_coefficient_faulty(nl, output_index, all, *f);
  }
  res.patterns_applied = 2ull << nl.inputs().size();  // two counter passes
  res.pass = res.c0_observed == res.c0_expected &&
             res.call_observed == res.call_expected;
  return res;
}

}  // namespace dft
