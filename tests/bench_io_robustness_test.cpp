// Robustness tests for the .bench reader: every malformed input fails with
// a line-numbered error naming the offending net, and pathological (but
// legal) inputs -- megabytes of gates, dependency chains deep enough to
// overflow a recursive resolver -- parse fine. The error contract is pinned
// whole in a table, a seeded mutation fuzzer checks that no input escapes
// it, and the writer's text is pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/basic.h"
#include "circuits/sequential.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"

namespace dft {
namespace {

// Asserts read_bench_string(text) throws and the message contains every
// expected fragment (typically "line N" plus the net name).
void expect_parse_error(const std::string& text,
                        std::initializer_list<const char*> fragments) {
  try {
    read_bench_string(text);
    FAIL() << "expected a parse error for:\n" << text;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    for (const char* frag : fragments) {
      EXPECT_NE(msg.find(frag), std::string::npos)
          << "missing '" << frag << "' in: " << msg;
    }
  }
}

TEST(BenchRobustness, TruncatedDeclaration) {
  expect_parse_error("INPUT(a\n", {"line 1", "malformed declaration"});
}

TEST(BenchRobustness, TruncatedAssignment) {
  expect_parse_error("INPUT(a)\nb = AND(a\n", {"line 2",
                                               "malformed assignment"});
}

TEST(BenchRobustness, MissingLeftHandSide) {
  expect_parse_error("INPUT(a)\n = AND(a, a)\n", {"line 2",
                                                  "malformed assignment"});
}

TEST(BenchRobustness, UnknownGateType) {
  expect_parse_error("INPUT(a)\nb = FROB(a)\n",
                     {"line 2", "unknown gate type", "FROB"});
}

TEST(BenchRobustness, UnknownKeyword) {
  expect_parse_error("WIBBLE(a)\n", {"line 1", "unknown keyword"});
}

TEST(BenchRobustness, EmptyOperand) {
  expect_parse_error("INPUT(a)\nINPUT(c)\nb = AND(a,,c)\n",
                     {"line 3", "empty operand"});
}

TEST(BenchRobustness, EmptyInputName) {
  expect_parse_error("INPUT()\n", {"line 1", "empty INPUT name"});
}

TEST(BenchRobustness, UndefinedNetIsNamedWithReferencingLine) {
  expect_parse_error("INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\n",
                     {"line 3", "undefined net", "ghost"});
}

TEST(BenchRobustness, UndefinedOutputNet) {
  expect_parse_error("INPUT(a)\nOUTPUT(nowhere)\nb = BUF(a)\n",
                     {"line 2", "undefined output net", "nowhere"});
}

TEST(BenchRobustness, DuplicateGateDefinitionPointsAtFirst) {
  expect_parse_error(
      "INPUT(a)\nOUTPUT(b)\nb = BUF(a)\nb = NOT(a)\n",
      {"line 4", "redefined", "first assigned at line 3"});
}

TEST(BenchRobustness, DuplicateInputDeclaration) {
  expect_parse_error("INPUT(a)\nINPUT(a)\n",
                     {"line 2", "already declared at line 1"});
}

TEST(BenchRobustness, InputThenAssignmentConflict) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nb = BUF(a)\n",
                     {"line 3", "declared INPUT at line 2"});
}

TEST(BenchRobustness, AssignmentThenInputConflict) {
  expect_parse_error("INPUT(a)\nb = BUF(a)\nINPUT(b)\n",
                     {"line 3", "assigned at line 2"});
}

TEST(BenchRobustness, CombinationalSelfAssignmentRejected) {
  expect_parse_error("INPUT(a)\nOUTPUT(b)\nb = AND(a, b)\n",
                     {"line 3", "drives itself", "b"});
}

TEST(BenchRobustness, CombinationalCycleIsLineNumbered) {
  expect_parse_error(
      "INPUT(a)\nOUTPUT(b)\nb = AND(a, c)\nc = NOT(b)\n",
      {"combinational cycle", "line"});
}

TEST(BenchRobustness, StorageSelfLoopIsLegal) {
  // q = DFF(q) is a hold loop, not a combinational cycle.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(b)\nq = DFF(q)\nb = AND(a, q)\n");
  EXPECT_EQ(nl.storage().size(), 1u);
}

TEST(BenchRobustness, ReaderErrorsOnEveryLineAreOneBased) {
  // A comment and a blank line still advance the line counter.
  expect_parse_error("# header comment\n\nINPUT(a)\nb = FROB(a)\n",
                     {"line 4"});
}

TEST(BenchRobustness, MegabytesOfReversedChainParseWithoutOverflow) {
  // ~10 MB of BUF chain listed leaf-last: resolving n0 needs the full chain,
  // so a recursive reader would recurse 400k frames deep and die. The
  // iterative resolver must parse it and preserve the chain length.
  constexpr int kDepth = 400000;
  std::string text;
  text.reserve(static_cast<std::size_t>(kDepth) * 26 + 64);
  text += "INPUT(n" + std::to_string(kDepth) + ")\n";
  text += "OUTPUT(n0)\n";
  for (int i = 0; i < kDepth; ++i) {
    text += "n" + std::to_string(i) + " = BUF(n" + std::to_string(i + 1) +
            ")\n";
  }
  ASSERT_GT(text.size(), 8u * 1024 * 1024);
  const Netlist nl = read_bench_string(text, "deep_chain");
  // One input + kDepth buffers + one output marker gate.
  EXPECT_EQ(nl.size(), static_cast<std::size_t>(kDepth) + 2);

  // Round-trip: writing and re-reading preserves the structure.
  const Netlist again = read_bench_string(write_bench_string(nl), "again");
  EXPECT_EQ(again.size(), nl.size());
}

TEST(BenchRobustness, RoundTripPreservesGateIds) {
  const std::string text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "u = NAND(a, b)\nv = XOR(a, u)\ny = OR(v, u)\n";
  const Netlist one = read_bench_string(text);
  const Netlist two = read_bench_string(write_bench_string(one));
  ASSERT_EQ(one.size(), two.size());
  for (GateId g = 0; g < one.size(); ++g) {
    EXPECT_EQ(one.type(g), two.type(g)) << "gate " << g;
    EXPECT_EQ(one.fanin(g), two.fanin(g)) << "gate " << g;
  }
}

// --- The error contract, whole messages -------------------------------------

// What read_bench_string makes of `text`: "ok: " and every gate as
// label=TYPE(fanin labels), or the exception's type and its full message.
std::string outcome(const std::string& text) {
  try {
    const Netlist nl = read_bench_string(text);
    std::string s = "ok: ";
    for (GateId g = 0; g < nl.size(); ++g) {
      if (g != 0) s += ' ';
      s += nl.label(g) + "=" + std::string(gate_type_name(nl.type(g))) + "(";
      const auto& f = nl.fanin(g);
      for (std::size_t i = 0; i < f.size(); ++i) {
        if (i != 0) s += ',';
        s += nl.label(f[i]);
      }
      s += ')';
    }
    return s;
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error: ") + e.what();
  }
}

struct ContractRow {
  const char* name;
  const char* text;
  const char* expected;
};

// When an input has several faults, the one reported is fixed too: line
// errors in text order, then build errors in build order (storage arity,
// then combinational gates depth-first, storage drivers, outputs).
constexpr ContractRow kContract[] = {
    {"TruncatedDeclaration",
     "INPUT(a\n",
     "runtime_error: bench line 1: malformed declaration 'INPUT(a'"},
    {"TruncatedAssignment",
     "INPUT(a)\nb = AND(a\n",
     "runtime_error: bench line 2: malformed assignment 'b = AND(a'"},
    {"MissingLeftHandSide",
     "INPUT(a)\n = AND(a, a)\n",
     "runtime_error: bench line 2: malformed assignment '= AND(a, a)'"},
    {"UnknownGateType",
     "INPUT(a)\nb = FROB(a)\n",
     "runtime_error: bench line 2: unknown gate type 'FROB'"},
    {"UnknownGateTypeKeepsItsCase",
     "INPUT(a)\nb = frob(a)\n",
     "runtime_error: bench line 2: unknown gate type 'frob'"},
    {"UnknownKeyword",
     "WIBBLE(a)\n",
     "runtime_error: bench line 1: unknown keyword 'WIBBLE'"},
    {"UnknownKeywordIsUpperCased",
     "wibble(a)\n",
     "runtime_error: bench line 1: unknown keyword 'WIBBLE'"},
    {"EmptyOperand",
     "INPUT(a)\nINPUT(c)\nb = AND(a,,c)\n",
     "runtime_error: bench line 3: empty operand"},
    {"LeadingEmptyOperand",
     "INPUT(a)\nb = AND(, a)\n",
     "runtime_error: bench line 2: empty operand"},
    {"UnknownTypeBeforeEmptyOperand",
     "INPUT(a)\nb = FROB(a,,a)\n",
     "runtime_error: bench line 2: unknown gate type 'FROB'"},
    {"EmptyInputName",
     "INPUT()\n",
     "runtime_error: bench line 1: empty INPUT name"},
    {"EmptyOutputName",
     "INPUT(a)\nOUTPUT()\nb = BUF(a)\n",
     "runtime_error: bench line 2: undefined output net ''"},
    {"UndefinedNet",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\n",
     "runtime_error: bench line 3: undefined net 'ghost'"},
    {"UndefinedNetDeepInChain",
     "INPUT(a)\nOUTPUT(y)\ny = BUF(x)\nx = NOT(w)\nw = AND(a, ghost)\n",
     "runtime_error: bench line 5: undefined net 'ghost'"},
    {"UndefinedStorageDriver",
     "INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n",
     "runtime_error: bench line 3: undefined net 'ghost'"},
    {"UndefinedOutputNet",
     "INPUT(a)\nOUTPUT(nowhere)\nb = BUF(a)\n",
     "runtime_error: bench line 2: undefined output net 'nowhere'"},
    {"DuplicateGateDefinition",
     "INPUT(a)\nOUTPUT(b)\nb = BUF(a)\nb = NOT(a)\n",
     "runtime_error: bench line 4: net 'b' redefined (first assigned at "
     "line 3)"},
    {"DuplicateInputDeclaration",
     "INPUT(a)\nINPUT(a)\n",
     "runtime_error: bench line 2: input 'a' already declared at line 1"},
    {"InputThenAssignment",
     "INPUT(a)\nINPUT(b)\nb = BUF(a)\n",
     "runtime_error: bench line 3: net 'b' is declared INPUT at line 2 and "
     "cannot also be assigned"},
    {"AssignmentThenInput",
     "INPUT(a)\nb = BUF(a)\nINPUT(b)\n",
     "runtime_error: bench line 3: net 'b' declared INPUT but assigned at "
     "line 2"},
    {"CombinationalSelfAssignment",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a, b)\n",
     "runtime_error: bench line 3: combinational net 'b' drives itself"},
    {"CombinationalCycle",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a, c)\nc = NOT(b)\n",
     "runtime_error: bench line 3: combinational cycle through net 'b'"},
    {"LongerCycle",
     "INPUT(a)\nOUTPUT(d)\nd = BUF(c)\nc = AND(a, b)\nb = NOT(e)\ne = OR(c, "
     "a)\n",
     "runtime_error: bench line 4: combinational cycle through net 'c'"},
    {"LineNumbersCountCommentsAndBlanks",
     "# header comment\n\nINPUT(a)\nb = FROB(a)\n",
     "runtime_error: bench line 4: unknown gate type 'FROB'"},
    // Arity errors are line-numbered runtime_errors like every other one.
    {"ArityAndNoFanins",
     "INPUT(a)\nOUTPUT(b)\nb = AND()\n",
     "runtime_error: bench line 3: AND gate given 0 fanins"},
    {"ArityDffTwoFanins",
     "INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n",
     "runtime_error: bench line 3: DFF gate given 2 fanins"},
    {"ArityMuxTwoFanins",
     "INPUT(a)\nOUTPUT(b)\nb = MUX(a, a)\n",
     "runtime_error: bench line 3: MUX gate given 2 fanins"},
    {"ArityConstWithFanin",
     "INPUT(a)\nOUTPUT(b)\nb = CONST1(a)\n",
     "runtime_error: bench line 3: CONST1 gate given 1 fanins"},
    {"ArityNotTwoFanins",
     "INPUT(a)\nINPUT(c)\nOUTPUT(b)\nb = NOT(a, c)\n",
     "runtime_error: bench line 4: NOT gate given 2 fanins"},
    {"ArityScanDffOneFanin",
     "INPUT(a)\nOUTPUT(q)\nq = SCANDFF(a)\n",
     "runtime_error: bench line 3: SCANDFF gate given 1 fanins"},
    {"UndefinedNetBeforeArity",
     "INPUT(a)\nOUTPUT(b)\nb = MUX(a, ghost)\n",
     "runtime_error: bench line 3: undefined net 'ghost'"},
    // Netlist::validate() rejects what the reader builds, without a line.
    {"BusDrivenByPlainGate",
     "INPUT(a)\nOUTPUT(b)\nb = BUS(a)\n",
     "runtime_error: bus b driven by non-tristate gate a"},
    // Legal inputs, as built.
    {"StorageSelfLoop",
     "INPUT(a)\nOUTPUT(b)\nq = DFF(q)\nb = AND(a, q)\n",
     "ok: a=INPUT() g1=CONST0() q=DFF(q) b=AND(a,q) out_b=OUTPUT(b)"},
    {"OutputIsDeclaredTwice",
     "INPUT(a)\nOUTPUT(b)\nOUTPUT(b)\nb = NOT(a)\n",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b) out_b_2=OUTPUT(b)"},
    {"OutputOfAnInput",
     "INPUT(a)\nOUTPUT(a)\n",
     "ok: a=INPUT() out_a=OUTPUT(a)"},
    {"OutputNameCollidesWithNet",
     "INPUT(a)\nOUTPUT(a)\nout_a = NOT(a)\nOUTPUT(out_a)\n",
     "ok: a=INPUT() out_a=NOT(a) out_a_2=OUTPUT(a) out_out_a=OUTPUT(out_a)"},
    {"LowerCaseKeywordsAndTypes",
     "input(a)\ninput(c)\noutput(b)\nb = nand(a, c)\nd = buff(b)\n",
     "ok: a=INPUT() c=INPUT() b=NAND(a,c) d=BUF(b) out_b=OUTPUT(b)"},
    {"CrLfLineEndings",
     "INPUT(a)\r\nOUTPUT(b)\r\nb = NOT(a)\r\n",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b)"},
    {"CommentAfterCode",
     "INPUT(a) # the only input\nOUTPUT(b)#out\nb = NOT(a) # inverter\n",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b)"},
    {"LastLineWithoutNewline",
     "INPUT(a)\nOUTPUT(b)\nb = NOT(a)",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b)"},
    {"TrailingCommaIsIgnored",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a, )\n",
     "ok: a=INPUT() b=AND(a) out_b=OUTPUT(b)"},
    {"TextAfterDeclarationIsIgnored",
     "INPUT(a) junk\nOUTPUT(b)x\nb = NOT(a)\n",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b)"},
    {"TabsAndSpaces",
     "\tINPUT( a )\t\nOUTPUT(\tb)\n  b\t=\tNOT ( a )  \n",
     "ok: a=INPUT() b=NOT(a) out_b=OUTPUT(b)"},
    {"EqualsInsideDeclaration",
     "INPUT(a=b)\n",
     "runtime_error: bench line 1: malformed assignment 'INPUT(a=b)'"},
    {"InputAsGateType",
     "INPUT(a)\nb = INPUT(a)\n",
     "runtime_error: bench line 2: unknown gate type 'INPUT'"},
    {"StoragePlaceholderAndForwardUse",
     "INPUT(a)\nOUTPUT(y)\ny = AND(q, n)\nq = DFF(n)\nn = NOT(a)\n",
     "ok: a=INPUT() g1=CONST0() q=DFF(n) n=NOT(a) y=AND(q,n) out_y=OUTPUT(y)"},
    {"EmptyText",
     "",
     "ok: "},
    {"OperandWithParenthesis",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a), c)\n",
     "runtime_error: bench line 3: undefined net 'a)'"},
    {"OperandWithSpace",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a b)\n",
     "runtime_error: bench line 3: undefined net 'a b'"},
    {"CloseBeforeOpenInDeclaration",
     ")INPUT(a\n",
     "runtime_error: bench line 1: malformed declaration ')INPUT(a'"},
    {"CloseBeforeOpenInAssignment",
     "INPUT(a)\nb = )AND(a\n",
     "runtime_error: bench line 2: malformed assignment 'b = )AND(a'"},
    {"StorageArityBeforeCombinationalErrors",
     "INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\nq = DFF()\n",
     "runtime_error: bench line 4: DFF gate given 0 fanins"},
};

TEST(BenchContract, EveryRowReadsExactlyAsPinned) {
  for (const ContractRow& row : kContract) {
    EXPECT_EQ(outcome(row.text), row.expected) << row.name;
  }
}

// --- Seeded mutation fuzz ----------------------------------------------------

// Every data/*.bench file, sorted by name.
std::vector<std::pair<std::string, std::string>> bench_corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(DFT_SOURCE_DIR "/data")) {
    if (entry.path().extension() != ".bench") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    out.emplace_back(entry.path().filename().string(), text.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Applies one to three mutations: a byte overwritten (by a delimiter or an
// arbitrary byte), a line deleted, a line duplicated elsewhere, or two
// identifier tokens swapped.
std::string mutate(std::string t, std::mt19937_64& rng) {
  static constexpr char kBytes[] = "()=,#\n\r \t\0aZ9_";
  const auto pick = [&](std::size_t n) { return rng() % n; };
  const auto line_at = [&t](std::size_t b) {
    const std::size_t e = t.find('\n', b);
    return std::make_pair(b, e == std::string::npos ? t.size() : e + 1);
  };
  for (int m = 1 + static_cast<int>(pick(3)); m > 0; --m) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] == '\n') starts.push_back(i + 1);
    }
    switch (pick(5)) {
      case 0:
      case 1:
        if (!t.empty()) {
          t[pick(t.size())] = pick(2) != 0
                                  ? kBytes[pick(sizeof kBytes - 1)]
                                  : static_cast<char>(rng() & 0xFF);
        }
        break;
      case 2: {
        const auto [b, e] = line_at(starts[pick(starts.size())]);
        t.erase(b, e - b);
        break;
      }
      case 3: {
        const auto [b, e] = line_at(starts[pick(starts.size())]);
        t.insert(starts[pick(starts.size())], t.substr(b, e - b));
        break;
      }
      default: {
        std::vector<std::pair<std::size_t, std::size_t>> tokens;
        for (std::size_t i = 0; i < t.size();) {
          std::size_t j = i;
          while (j < t.size() &&
                 (std::isalnum(static_cast<unsigned char>(t[j])) ||
                  t[j] == '_')) {
            ++j;
          }
          if (j > i) tokens.emplace_back(i, j - i);
          i = j > i ? j : i + 1;
        }
        if (tokens.size() < 2) break;
        auto a = tokens[pick(tokens.size())];
        auto b = tokens[pick(tokens.size())];
        if (a.first == b.first) break;
        if (a.first > b.first) std::swap(a, b);
        const std::string ta = t.substr(a.first, a.second);
        const std::string tb = t.substr(b.first, b.second);
        t.replace(b.first, b.second, ta);  // the later one first
        t.replace(a.first, a.second, tb);
        break;
      }
    }
  }
  return t;
}

TEST(BenchFuzz, EveryMutantParsesOrThrowsRuntimeError) {
  const auto corpus = bench_corpus();
  ASSERT_GE(corpus.size(), 5u);
  std::mt19937_64 rng(1801022011);
  constexpr int kMutantsPerSeed = 1500;
  int parsed = 0;
  int rejected = 0;
  for (const auto& [name, text] : corpus) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(text, rng);
      try {
        read_bench_string(mutant).validate();
        ++parsed;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " mutant " << i
                      << " escaped the error contract: " << e.what()
                      << "\n" << mutant;
      }
    }
  }
  // Both outcomes occur: the mutations neither all break nor all miss.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// --- The writer's text -------------------------------------------------------

TEST(BenchWriter, C17TextIsPinned) {
  EXPECT_EQ(write_bench_string(make_c17()),
            "# netlist: c17\n"
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n"
            "OUTPUT(22)\nOUTPUT(23)\n"
            "10 = NAND(1, 3)\n"
            "11 = NAND(3, 6)\n"
            "16 = NAND(2, 11)\n"
            "19 = NAND(11, 7)\n"
            "22 = NAND(10, 16)\n"
            "23 = NAND(16, 19)\n");
}

TEST(BenchWriter, SequentialTextIsPinned) {
  const std::string text =
      "# netlist: cnt3\n"
      "INPUT(en)\n"
      "OUTPUT(cnt0)\nOUTPUT(cnt1)\nOUTPUT(cnt2)\n"
      "tie0 = CONST0()\n"
      "cnt0 = DFF(nq0)\n"
      "cnt1 = DFF(nq1)\n"
      "cnt2 = DFF(nq2)\n"
      "nq0 = XOR(cnt0, en)\n"
      "cc0 = AND(en, cnt0)\n"
      "nq1 = XOR(cnt1, cc0)\n"
      "cc1 = AND(cc0, cnt1)\n"
      "nq2 = XOR(cnt2, cc1)\n"
      "cc2 = AND(cc1, cnt2)\n";
  EXPECT_EQ(write_bench_string(make_counter(3)), text);
  // Read back, the storage placeholder is one more gate, an unnamed dead
  // constant, which the writer skips: the same lines come out again.
  const Netlist again = read_bench_string(text, "cnt3");
  EXPECT_EQ(again.size(), make_counter(3).size() + 1);
  const std::string rewritten = write_bench_string(again);
  EXPECT_EQ(std::count(rewritten.begin(), rewritten.end(), '\n'),
            std::count(text.begin(), text.end(), '\n'));
}

TEST(BenchWriter, UnnamedGatesAreLabelledByIdAndDeadConstantsSkipped) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_gate(GateType::Const0, {});  // unnamed, no fanout: skipped
  const GateId one = nl.add_gate(GateType::Const1, {});
  const GateId x = nl.add_gate(GateType::And, {a, one});
  nl.add_gate(GateType::Const0, {}, "tie");  // named: kept
  nl.add_output(x);
  const std::string text =
      "# netlist: (unnamed)\n"
      "INPUT(a)\n"
      "OUTPUT(g3)\n"
      "g2 = CONST1()\n"
      "g3 = AND(a, g2)\n"
      "tie = CONST0()\n";
  EXPECT_EQ(write_bench_string(nl), text);
  std::ostringstream os;
  write_bench(os, nl);
  EXPECT_EQ(os.str(), text);
}

TEST(BenchWriter, DataFilesRoundTrip) {
  for (const auto& [name, text] : bench_corpus()) {
    const Netlist one = read_bench_string(text, name);
    const std::string written = write_bench_string(one);
    const Netlist two = read_bench_string(written, name);
    ASSERT_EQ(one.size(), two.size()) << name;
    for (GateId g = 0; g < one.size(); ++g) {
      EXPECT_EQ(one.type(g), two.type(g)) << name << " gate " << g;
      EXPECT_EQ(one.fanin(g), two.fanin(g)) << name << " gate " << g;
      EXPECT_EQ(one.gate_name(g), two.gate_name(g)) << name << " gate " << g;
    }
    EXPECT_EQ(one.inputs(), two.inputs()) << name;
    EXPECT_EQ(one.outputs(), two.outputs()) << name;
    EXPECT_EQ(one.storage(), two.storage()) << name;
    EXPECT_EQ(write_bench_string(two), written) << name;
  }
}

}  // namespace
}  // namespace dft
