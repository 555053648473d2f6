// The widened pattern word itself: PatternWord algebra, the WordTraits
// interface the engine templates are written against, the lane model
// (CPUID dispatch, DFT_SIMD resolution), and per-gate parity of every
// evaluation backend against the single-source scalar switch. The
// engine-level differential fuzzers prove whole-run equivalence; these
// tests pin the primitives so a fuzz failure localizes immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "netlist/gate.h"
#include "sim/eval.h"
#include "sim/eval_backend.h"
#include "sim/pattern_word.h"
#include "sim/simd.h"

namespace dft {
namespace {

// --- PatternWord algebra ---------------------------------------------------

template <int W>
PatternWord<W> fill(std::mt19937_64& rng) {
  PatternWord<W> w{};
  for (int i = 0; i < W; ++i) w.limb[i] = rng();
  return w;
}

template <int W>
void check_algebra_matches_limbwise() {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 50; ++round) {
    const PatternWord<W> a = fill<W>(rng);
    const PatternWord<W> b = fill<W>(rng);
    PatternWord<W> and_c = a, or_c = a, xor_c = a;
    and_c &= b;
    or_c |= b;
    xor_c ^= b;
    for (int i = 0; i < W; ++i) {
      EXPECT_EQ((a & b).limb[i], a.limb[i] & b.limb[i]);
      EXPECT_EQ((a | b).limb[i], a.limb[i] | b.limb[i]);
      EXPECT_EQ((a ^ b).limb[i], a.limb[i] ^ b.limb[i]);
      EXPECT_EQ((~a).limb[i], ~a.limb[i]);
      EXPECT_EQ(and_c.limb[i], a.limb[i] & b.limb[i]);
      EXPECT_EQ(or_c.limb[i], a.limb[i] | b.limb[i]);
      EXPECT_EQ(xor_c.limb[i], a.limb[i] ^ b.limb[i]);
    }
    EXPECT_TRUE(a == a);
    if (a.limb[0] != b.limb[0]) {
      EXPECT_FALSE(a == b);
    }
  }
}

TEST(PatternWordAlgebra, MatchesLimbwiseScalar) {
  check_algebra_matches_limbwise<4>();
  check_algebra_matches_limbwise<8>();
}

// --- WordTraits: the bit-position contract ---------------------------------

template <typename Word>
void check_traits() {
  using T = WordTraits<Word>;
  const int bits = T::kBits;

  EXPECT_FALSE(T::any(T::zeros()));
  EXPECT_TRUE(T::any(T::ones()));
  EXPECT_EQ(T::first_set(T::ones()), 0);

  // Every single-bit word: set_bit / test_bit / first_set round-trip, and
  // bit b sits exactly where the contract says (limb b/64, bit b%64).
  for (int b = 0; b < bits; ++b) {
    Word w = T::zeros();
    T::set_bit(w, static_cast<std::size_t>(b));
    EXPECT_TRUE(T::any(w));
    EXPECT_EQ(T::first_set(w), b);
    for (int c = 0; c < bits; ++c) {
      EXPECT_EQ(T::test_bit(w, static_cast<std::size_t>(c)), c == b)
          << "bit " << b << " probe " << c;
    }
  }

  // first_set returns the EARLIEST pattern even when later bits are set --
  // the property first-detection recording rests on at every width.
  for (int b : {0, 1, 63, 64, 65, bits - 2, bits - 1}) {
    if (b < 0 || b >= bits) continue;
    Word w = T::zeros();
    T::set_bit(w, static_cast<std::size_t>(b));
    for (int later = b; later < bits; later += 37) {
      T::set_bit(w, static_cast<std::size_t>(later));
    }
    EXPECT_EQ(T::first_set(w), b);
  }

  // prefix_mask(n) selects exactly patterns [0, n), including the limb
  // boundaries and both degenerate ends.
  for (int n : {0, 1, 63, 64, 65, 128, bits - 1, bits}) {
    if (n < 0 || n > bits) continue;
    const Word m = T::prefix_mask(static_cast<std::size_t>(n));
    for (int b = 0; b < bits; ++b) {
      EXPECT_EQ(T::test_bit(m, static_cast<std::size_t>(b)), b < n)
          << "prefix " << n << " bit " << b;
    }
  }
  EXPECT_TRUE(T::prefix_mask(static_cast<std::size_t>(bits)) == T::ones());
  EXPECT_TRUE(T::prefix_mask(0) == T::zeros());
}

TEST(WordTraitsContract, Uint64) { check_traits<std::uint64_t>(); }
TEST(WordTraitsContract, PatternWord4) { check_traits<PatternWord<4>>(); }
TEST(WordTraitsContract, PatternWord8) { check_traits<PatternWord<8>>(); }

// --- Backend parity: every backend against the 64-bit scalar switch --------

// All two-valued combinational gate types, with a pin count that exercises
// the general loops (Mux/Tristate use their fixed pin contracts).
struct GateCase {
  GateType t;
  std::size_t n;
};

const std::vector<GateCase>& gate_cases() {
  static const std::vector<GateCase> cases = {
      {GateType::Const0, 0}, {GateType::Const1, 0}, {GateType::Buf, 1},
      {GateType::Output, 1}, {GateType::Not, 1},    {GateType::And, 3},
      {GateType::Nand, 4},   {GateType::Or, 3},     {GateType::Nor, 4},
      {GateType::Xor, 3},    {GateType::Xnor, 4},   {GateType::Mux, 3},
      {GateType::Tristate, 2}, {GateType::Bus, 3},
  };
  return cases;
}

// Runs backend EB on every gate type over random fanin words and checks
// each limb against the classic 64-bit eval of the same limb slice --
// eval_ids and eval_forced (every pin, both stuck values).
template <typename EB>
void check_backend_parity(const char* tag) {
  SCOPED_TRACE(tag);
  using Word = typename EB::Word;
  using T = WordTraits<Word>;
  constexpr int kLimbs = T::kBits / 64;
  std::mt19937_64 rng(23);

  for (const GateCase& gc : gate_cases()) {
    SCOPED_TRACE("gate type " + std::to_string(static_cast<int>(gc.t)));
    for (int round = 0; round < 20; ++round) {
      // Value table with one word per fanin, accessed through shuffled ids
      // like the CSR inner loop does.
      std::vector<Word> words(gc.n + 2);
      for (auto& w : words) {
        if constexpr (kLimbs == 1) {
          w = rng();
        } else {
          for (int l = 0; l < kLimbs; ++l) w.limb[l] = rng();
        }
      }
      std::vector<GateId> fanin(gc.n);
      for (std::size_t i = 0; i < gc.n; ++i) {
        fanin[i] = static_cast<GateId>((i + 1) % words.size());
      }

      const auto limb_of = [&](const Word& w, int l) -> std::uint64_t {
        if constexpr (kLimbs == 1) {
          return w;
        } else {
          return w.limb[l];
        }
      };

      const Word got = EB::eval_ids(gc.t, fanin.data(), gc.n, words.data());
      for (int l = 0; l < kLimbs; ++l) {
        std::vector<std::uint64_t> slice(words.size());
        for (std::size_t i = 0; i < words.size(); ++i) {
          slice[i] = limb_of(words[i], l);
        }
        EXPECT_EQ(limb_of(got, l),
                  eval_gate_word_ids_w(gc.t, fanin.data(), gc.n, slice.data()))
            << "limb " << l;
      }

      for (std::size_t pin = 0; pin < gc.n; ++pin) {
        for (const bool sa1 : {false, true}) {
          const Word forced = sa1 ? T::ones() : T::zeros();
          const Word f = EB::eval_forced(gc.t, fanin.data(), gc.n,
                                         words.data(), static_cast<int>(pin),
                                         forced);
          for (int l = 0; l < kLimbs; ++l) {
            std::vector<std::uint64_t> slice(words.size());
            for (std::size_t i = 0; i < words.size(); ++i) {
              slice[i] = limb_of(words[i], l);
            }
            const std::uint64_t want = detail::eval_word_impl(
                gc.t, gc.n, [&](std::size_t i) -> std::uint64_t {
                  return i == pin ? (sa1 ? ~0ull : 0ull) : slice[fanin[i]];
                });
            EXPECT_EQ(limb_of(f, l), want)
                << "limb " << l << " pin " << pin << " sa" << sa1;
          }
        }
      }
    }
  }
}

TEST(EvalBackendParity, ScalarLanes) {
  check_backend_parity<ScalarEval<std::uint64_t>>("scalar_x1");
  check_backend_parity<ScalarEval<PatternWord<4>>>("scalar_x4");
  check_backend_parity<ScalarEval<PatternWord<8>>>("scalar_x8");
}

#if DFT_SIMD_X86
TEST(EvalBackendParity, IntrinsicLanes) {
  if (simd::host_supports(simd::Lane::Avx2)) {
    check_backend_parity<Avx2Eval>("avx2_x4");
  } else {
    GTEST_SKIP() << "host lacks AVX2";
  }
  if (simd::host_supports(simd::Lane::Avx512)) {
    check_backend_parity<Avx512Eval>("avx512_x8");
  }
}
#endif

// --- The lane model --------------------------------------------------------

TEST(LaneModel, NamesTagsAndBitsAreConsistent) {
  const std::vector<simd::Lane> all = {
      simd::Lane::Off, simd::Lane::Scalar4, simd::Lane::Scalar8,
      simd::Lane::Avx2, simd::Lane::Avx512};
  for (const simd::Lane l : all) {
    EXPECT_FALSE(std::string(simd::lane_name(l)).empty());
    EXPECT_FALSE(std::string(simd::lane_tag(l)).empty());
    EXPECT_TRUE(simd::lane_bits(l) == 64 || simd::lane_bits(l) == 256 ||
                simd::lane_bits(l) == 512);
  }
  EXPECT_EQ(simd::lane_bits(simd::Lane::Off), 64);
  EXPECT_EQ(simd::lane_bits(simd::Lane::Scalar4), 256);
  EXPECT_EQ(simd::lane_bits(simd::Lane::Scalar8), 512);
  EXPECT_EQ(simd::lane_bits(simd::Lane::Avx2), 256);
  EXPECT_EQ(simd::lane_bits(simd::Lane::Avx512), 512);
  EXPECT_EQ(simd::lane_tag(simd::Lane::Off), "scalar_x1");
}

TEST(LaneModel, ScalarLanesAlwaysAvailable) {
  EXPECT_TRUE(simd::host_supports(simd::Lane::Off));
  EXPECT_TRUE(simd::host_supports(simd::Lane::Scalar4));
  EXPECT_TRUE(simd::host_supports(simd::Lane::Scalar8));
  const std::vector<simd::Lane> lanes = simd::available_lanes();
  ASSERT_GE(lanes.size(), 3u);
  EXPECT_EQ(lanes.front(), simd::Lane::Off);
  for (const simd::Lane l : lanes) EXPECT_TRUE(simd::host_supports(l));
  // Widest last (scalar ladder first, then the ISA lanes): the bench's
  // smoke ablation takes lanes.back() as "the widest lane".
  int widest = 0;
  for (const simd::Lane l : lanes) {
    widest = std::max(widest, simd::lane_bits(l));
  }
  EXPECT_EQ(simd::lane_bits(lanes.back()), widest);
}

// Saves/restores DFT_SIMD around each check; resolve_lane re-reads the
// environment on every call, so setenv takes effect immediately.
class EnvOverride : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("DFT_SIMD");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
  }
  void TearDown() override {
    if (had_) {
      setenv("DFT_SIMD", saved_.c_str(), 1);
    } else {
      unsetenv("DFT_SIMD");
    }
  }
  bool had_ = false;
  std::string saved_;
};

TEST_F(EnvOverride, ForcedLanesResolveOrDegradeToSameWidth) {
  setenv("DFT_SIMD", "off", 1);
  EXPECT_EQ(simd::resolve_lane(), simd::Lane::Off);
  EXPECT_EQ(simd::default_pattern_word_bits(), 64);
  EXPECT_FALSE(simd::resolves_auto());

  setenv("DFT_SIMD", "scalar4", 1);
  EXPECT_EQ(simd::resolve_lane(), simd::Lane::Scalar4);
  // "scalar" is an alias for the portable multi-limb default.
  setenv("DFT_SIMD", "scalar", 1);
  EXPECT_EQ(simd::resolve_lane(), simd::Lane::Scalar4);
  setenv("DFT_SIMD", "scalar8", 1);
  EXPECT_EQ(simd::resolve_lane(), simd::Lane::Scalar8);
  EXPECT_EQ(simd::default_pattern_word_bits(), 512);

  // Forcing an ISA the host lacks degrades to the same-width scalar lane.
  setenv("DFT_SIMD", "avx2", 1);
  const simd::Lane l2 = simd::resolve_lane();
  EXPECT_EQ(l2, simd::host_supports(simd::Lane::Avx2) ? simd::Lane::Avx2
                                                      : simd::Lane::Scalar4);
  EXPECT_EQ(simd::lane_bits(l2), 256);
  setenv("DFT_SIMD", "avx512", 1);
  EXPECT_FALSE(simd::resolves_auto());
  const simd::Lane l5 = simd::resolve_lane();
  EXPECT_EQ(l5, simd::host_supports(simd::Lane::Avx512)
                    ? simd::Lane::Avx512
                    : simd::Lane::Scalar8);
  EXPECT_EQ(simd::lane_bits(l5), 512);

  // auto picks a supported lane (the widest; at minimum it must resolve).
  setenv("DFT_SIMD", "auto", 1);
  EXPECT_TRUE(simd::host_supports(simd::resolve_lane()));
  EXPECT_TRUE(simd::resolves_auto());

  // Unknown values warn (once) and fall back to auto rather than failing.
  setenv("DFT_SIMD", "bogus-lane", 1);
  EXPECT_TRUE(simd::host_supports(simd::resolve_lane()));
  EXPECT_TRUE(simd::resolves_auto());
}

}  // namespace
}  // namespace dft
