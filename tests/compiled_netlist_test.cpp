// CompiledNetlist: the frozen structure-of-arrays snapshot must agree with
// the mutable Netlist it was compiled from -- CSR fanin/fanout spans, gate
// types, levels, the (level, id)-sorted evaluation order with contiguous
// level buckets -- and the id-indirect word evaluator must match the
// span-based one gate for gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sn74181.h"
#include "netlist/compiled.h"
#include "sim/eval.h"

namespace dft {
namespace {

std::vector<Netlist> sample_netlists() {
  std::vector<Netlist> nls;
  nls.push_back(make_c17());
  nls.push_back(make_sn74181());
  nls.push_back(make_mux_tree(3));
  RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_gates = 150;
  spec.max_fanin = 4;
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    spec.seed = seed;
    nls.push_back(make_random_combinational(spec));
  }
  RandomSeqSpec seq;
  seq.seed = 5;
  nls.push_back(make_random_sequential(seq));
  return nls;
}

TEST(CompiledNetlist, CsrSpansMatchSourceNetlist) {
  for (const Netlist& nl : sample_netlists()) {
    const CompiledNetlist cn(nl);
    ASSERT_EQ(cn.size(), nl.size()) << nl.name();
    for (GateId g = 0; g < nl.size(); ++g) {
      EXPECT_EQ(cn.type(g), nl.type(g)) << nl.name() << " gate " << g;
      const auto fin = cn.fanin(g);
      ASSERT_EQ(fin.size(), nl.fanin(g).size()) << nl.name() << " gate " << g;
      EXPECT_TRUE(std::equal(fin.begin(), fin.end(), nl.fanin(g).begin()))
          << nl.name() << " gate " << g << " fanin order";
      const auto fout = cn.fanout(g);
      ASSERT_EQ(fout.size(), nl.fanout(g).size()) << nl.name() << " gate " << g;
      EXPECT_TRUE(std::equal(fout.begin(), fout.end(), nl.fanout(g).begin()))
          << nl.name() << " gate " << g << " fanout order";
    }
  }
}

TEST(CompiledNetlist, LevelsAndDepthMatch) {
  for (const Netlist& nl : sample_netlists()) {
    const CompiledNetlist cn(nl);
    const auto& levels = nl.levels();
    EXPECT_EQ(cn.depth(), nl.depth()) << nl.name();
    for (GateId g = 0; g < nl.size(); ++g) {
      EXPECT_EQ(cn.level(g), levels[g]) << nl.name() << " gate " << g;
    }
  }
}

TEST(CompiledNetlist, TopoIsLevelSortedPermutationWithContiguousBuckets) {
  for (const Netlist& nl : sample_netlists()) {
    const CompiledNetlist cn(nl);
    const auto topo = cn.topo();

    // Same gate set as the source order, sorted by (level, id).
    std::vector<GateId> expect(nl.topo_order());
    std::sort(expect.begin(), expect.end(), [&](GateId a, GateId b) {
      return std::pair(cn.level(a), a) < std::pair(cn.level(b), b);
    });
    ASSERT_EQ(topo.size(), expect.size()) << nl.name();
    EXPECT_TRUE(std::equal(topo.begin(), topo.end(), expect.begin()))
        << nl.name();

    // level_begin/level_end tile topo() exactly, one bucket per level.
    std::size_t at = 0;
    for (int lvl = 0; lvl <= cn.depth(); ++lvl) {
      EXPECT_EQ(cn.level_begin(lvl), at) << nl.name() << " level " << lvl;
      for (std::size_t i = cn.level_begin(lvl); i < cn.level_end(lvl); ++i) {
        EXPECT_EQ(cn.level(topo[i]), lvl) << nl.name() << " topo[" << i << "]";
      }
      at = cn.level_end(lvl);
    }
    EXPECT_EQ(at, topo.size()) << nl.name();
  }
}

TEST(CompiledNetlist, SnapshotIsIndependentOfLaterMutation) {
  Netlist nl = make_c17();
  const CompiledNetlist cn(nl);
  const std::size_t before = cn.size();
  const auto fout0 = cn.fanout(0);
  const std::vector<GateId> fout0_copy(fout0.begin(), fout0.end());
  // Grow and rewire the source; the snapshot must not move.
  const GateId extra = nl.add_gate(GateType::Not, {0});
  nl.add_output(extra);
  EXPECT_EQ(cn.size(), before);
  const auto fout0_after = cn.fanout(0);
  ASSERT_EQ(fout0_after.size(), fout0_copy.size());
  EXPECT_TRUE(std::equal(fout0_after.begin(), fout0_after.end(),
                         fout0_copy.begin()));
}

TEST(CompiledNetlist, ThrowsOnCombinationalCycle) {
  Netlist nl("cycle");
  const GateId a = nl.add_input("a");
  const GateId x = nl.add_gate(GateType::And, {a, a});
  const GateId y = nl.add_gate(GateType::Or, {x, a});
  nl.set_fanin(x, 1, y);
  EXPECT_THROW(CompiledNetlist{nl}, std::runtime_error);
}

TEST(CompiledNetlist, IdIndirectEvalMatchesSpanEval) {
  std::mt19937_64 rng(12345);
  for (const Netlist& nl : sample_netlists()) {
    const CompiledNetlist cn(nl);
    std::vector<std::uint64_t> words(nl.size());
    for (auto& w : words) w = rng();
    std::vector<std::uint64_t> gathered;
    for (GateId g : cn.topo()) {
      const auto fin = cn.fanin(g);
      gathered.clear();
      for (GateId f : fin) gathered.push_back(words[f]);
      const std::uint64_t via_span = detail::eval_word_impl(
          cn.type(g), gathered.size(),
          [&](std::size_t i) { return gathered[i]; });
      const std::uint64_t via_ids = eval_gate_word_ids_w(
          cn.type(g), fin.data(), fin.size(), words.data());
      EXPECT_EQ(via_span, via_ids) << nl.name() << " gate " << g;
    }
  }
}

}  // namespace
}  // namespace dft
