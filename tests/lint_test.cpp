// Tests for the dft::lint design-rule checker (Sec. IV-A: "enforced by
// software").
//
// Every rule gets a passing and a violating netlist. The scan-rule
// acceptance path mirrors the paper's flow: an unscanned sequential circuit
// violates scan readiness with the offending flip-flops named, the same
// circuit after insert_scan (either style) is clean, and a deliberately
// broken chain is flagged again. The JSON rendering is locked down so CI
// tooling can rely on the schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "circuits/basic.h"
#include "circuits/pla.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "lint/engine.h"
#include "scan/scan_insert.h"
#include "serve/cache.h"
#include "sta/sta.h"

namespace dft {
namespace {

using G = GateType;

std::vector<Diagnostic> rule_diags(const LintReport& r, std::string_view id) {
  return r.by_rule(id);
}

bool mentions_gate(const Diagnostic& d, GateId g) {
  return std::count(d.gates.begin(), d.gates.end(), g) > 0;
}

// --- Scan rules (acceptance path) ----------------------------------------

TEST(LintScan, UnscannedSequentialReportsNamedViolations) {
  const Netlist nl = make_counter(4);
  const LintReport report = lint_netlist(nl);
  EXPECT_FALSE(report.passed());
  const auto diags = rule_diags(report, "SCAN-001");
  ASSERT_EQ(diags.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::string name = "cnt" + std::to_string(i);
    const GateId g = *nl.find(name);
    const bool found = std::any_of(
        diags.begin(), diags.end(), [&](const Diagnostic& d) {
          return mentions_gate(d, g) &&
                 d.message.find("'" + name + "'") != std::string::npos;
        });
    EXPECT_TRUE(found) << "no SCAN-001 diagnostic names " << name;
  }
}

TEST(LintScan, LssdInsertionIsScanClean) {
  Netlist nl = make_counter(4);
  insert_scan(nl, ScanStyle::Lssd);
  const LintReport report = lint_netlist(nl);
  for (const char* id :
       {"SCAN-001", "SCAN-002", "SCAN-003", "SCAN-004", "SCAN-005"}) {
    EXPECT_TRUE(rule_diags(report, id).empty()) << id;
  }
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(lint_scan_rules(nl).clean());
}

TEST(LintScan, ScanPathInsertionIsScanClean) {
  Netlist nl = make_counter(4);
  insert_scan(nl, ScanStyle::ScanPath);
  EXPECT_TRUE(lint_scan_rules(nl).clean());
}

TEST(LintScan, MultiChainInsertionIsScanClean) {
  Netlist nl = make_counter(10);
  insert_scan(nl, ScanStyle::Lssd, 3);
  EXPECT_TRUE(lint_scan_rules(nl).clean());
}

TEST(LintScan, PartialScanPassesOnlyWithoutFullScanRequirement) {
  Netlist nl = make_counter(4);
  const GateId cnt0 = *nl.find("cnt0");
  insert_scan_partial(nl, ScanStyle::Lssd, {cnt0});
  EXPECT_FALSE(lint_scan_rules(nl, /*require_all_scanned=*/true).passed());
  EXPECT_TRUE(lint_scan_rules(nl, /*require_all_scanned=*/false).passed());
}

TEST(LintScan, BrokenChainIsFlagged) {
  Netlist nl = make_counter(4);
  const ScanInsertionResult res = insert_scan(nl, ScanStyle::Lssd);
  ASSERT_EQ(res.chains.size(), 1u);
  // Rewire the second SRL's scan-data pin off-chain, onto a system net.
  const GateId victim = res.chains[0].elements[1];
  const GateId off_chain = *nl.find("nq0");
  nl.set_fanin(victim, kStoragePinScanIn, off_chain);

  const LintReport report = lint_scan_rules(nl);
  EXPECT_FALSE(report.passed());
  const auto diags = rule_diags(report, "SCAN-002");
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(mentions_gate(diags[0], victim));
  EXPECT_NE(diags[0].message.find("'" + nl.label(victim) + "'"),
            std::string::npos);
  // The bypassed predecessor cnt0 still drives its system output, which is
  // a legal (if accidental) scan-out, so SCAN-003 stays quiet here.
}

TEST(LintScan, ChainForkIsFlagged) {
  Netlist nl("fork");
  const GateId x = nl.add_input("x");
  const GateId si = nl.add_input("si");
  const GateId a = nl.add_gate(G::Srl, {x, si}, "a");
  const GateId b = nl.add_gate(G::Srl, {x, a}, "b");
  const GateId c = nl.add_gate(G::Srl, {x, a}, "c");
  nl.add_output(b, "ob");
  nl.add_output(c, "oc");
  const auto diags = rule_diags(lint_scan_rules(nl), "SCAN-002");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));
  EXPECT_TRUE(mentions_gate(diags[0], b));
  EXPECT_TRUE(mentions_gate(diags[0], c));
}

TEST(LintScan, ScanInLoopIsFlagged) {
  Netlist nl("loop");
  const GateId x = nl.add_input("x");
  const GateId a = nl.add_gate(G::Srl, {x, x}, "a");
  const GateId b = nl.add_gate(G::Srl, {x, a}, "b");
  nl.set_fanin(a, kStoragePinScanIn, b);  // a <-> b scan-in loop
  nl.add_output(b, "ob");
  const auto diags = rule_diags(lint_scan_rules(nl), "SCAN-002");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));
  EXPECT_TRUE(mentions_gate(diags[0], b));
}

TEST(LintScan, ChainWithoutScanOutIsFlagged) {
  Netlist nl("noso");
  const GateId x = nl.add_input("x");
  const GateId si = nl.add_input("si");
  const GateId a = nl.add_gate(G::Srl, {x, si}, "a");
  const GateId y = nl.add_gate(G::And, {a, x}, "y");
  nl.add_output(y, "oy");  // observable through logic, but not a scan-out
  const auto diags = rule_diags(lint_scan_rules(nl), "SCAN-003");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));

  nl.add_output(a, "so");  // a real scan-out pin fixes it
  EXPECT_TRUE(rule_diags(lint_scan_rules(nl), "SCAN-003").empty());
}

TEST(LintScan, MixedStylesAreFlagged) {
  Netlist nl("mixed");
  const GateId x = nl.add_input("x");
  const GateId si1 = nl.add_input("si1");
  const GateId si2 = nl.add_input("si2");
  const GateId a = nl.add_gate(G::Srl, {x, si1}, "a");
  const GateId b = nl.add_gate(G::ScanDff, {x, si2}, "b");
  nl.add_output(a, "oa");
  nl.add_output(b, "ob");
  const auto diags = rule_diags(lint_scan_rules(nl), "SCAN-004");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));
  EXPECT_TRUE(mentions_gate(diags[0], b));
}

TEST(LintScan, SharedScanPortIsFlagged) {
  Netlist nl = make_counter(4);
  insert_scan(nl, ScanStyle::Lssd);
  EXPECT_TRUE(rule_diags(lint_scan_rules(nl), "SCAN-005").empty());
  // Route the scan-in PI into system data as well.
  const GateId si = *nl.find("scan_si");
  const GateId nq0 = *nl.find("nq0");
  nl.set_fanin(nq0, 1, si);
  const auto diags = rule_diags(lint_scan_rules(nl), "SCAN-005");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], si));
  EXPECT_TRUE(mentions_gate(diags[0], nq0));
}

// --- Structural rules -----------------------------------------------------

TEST(LintStructural, CombinationalLoopIsFlaggedWithoutThrowing) {
  Netlist nl("cyc");
  const GateId x = nl.add_input("x");
  const GateId a = nl.add_gate(G::And, {x, x}, "a");
  const GateId b = nl.add_gate(G::Or, {a, x}, "b");
  nl.add_output(b, "ob");
  nl.set_fanin(a, 1, b);  // a -> b -> a

  LintReport report;
  ASSERT_NO_THROW(report = lint_netlist(nl));
  EXPECT_FALSE(report.passed());
  const auto diags = rule_diags(report, "STRUCT-001");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));
  EXPECT_TRUE(mentions_gate(diags[0], b));

  EXPECT_TRUE(rule_diags(lint_netlist(make_c17()), "STRUCT-001").empty());
}

TEST(LintStructural, DanglingNetIsFlagged) {
  Netlist nl = make_c17();
  EXPECT_TRUE(rule_diags(lint_netlist(nl), "STRUCT-002").empty());
  const GateId in0 = nl.inputs()[0];
  const GateId dead = nl.add_gate(G::And, {in0, in0}, "dead");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-002");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], dead));
}

TEST(LintStructural, TristateIntoLogicIsFlagged) {
  Netlist nl("tri");
  const GateId d = nl.add_input("d");
  const GateId en = nl.add_input("en");
  const GateId t = nl.add_gate(G::Tristate, {d, en}, "t");
  const GateId a = nl.add_gate(G::And, {t, d}, "a");
  nl.add_output(a, "oa");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-003");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], t));
  EXPECT_TRUE(mentions_gate(diags[0], a));
}

TEST(LintStructural, BusFedByPlainGateIsFlagged) {
  Netlist nl("badbus");
  const GateId d = nl.add_input("d");
  const GateId en = nl.add_input("en");
  const GateId t = nl.add_gate(G::Tristate, {d, en}, "t");
  const GateId a = nl.add_gate(G::And, {d, en}, "a");
  const GateId bus = nl.add_gate(G::Bus, {t, a}, "bus");
  nl.add_output(bus, "ob");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-003");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], bus));
  EXPECT_TRUE(mentions_gate(diags[0], a));
}

TEST(LintStructural, WellFormedBusPasses) {
  Netlist nl("okbus");
  const GateId d1 = nl.add_input("d1");
  const GateId d2 = nl.add_input("d2");
  const GateId en1 = nl.add_input("en1");
  const GateId en2 = nl.add_input("en2");
  const GateId t1 = nl.add_gate(G::Tristate, {d1, en1}, "t1");
  const GateId t2 = nl.add_gate(G::Tristate, {d2, en2}, "t2");
  const GateId bus = nl.add_gate(G::Bus, {t1, t2}, "bus");
  nl.add_output(bus, "ob");
  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(rule_diags(report, "STRUCT-003").empty());
  EXPECT_TRUE(rule_diags(report, "STRUCT-004").empty());
  EXPECT_TRUE(rule_diags(report, "STRUCT-005").empty());
}

TEST(LintStructural, SharedEnableContentionIsFlagged) {
  Netlist nl("fight");
  const GateId d1 = nl.add_input("d1");
  const GateId d2 = nl.add_input("d2");
  const GateId en = nl.add_input("en");
  const GateId t1 = nl.add_gate(G::Tristate, {d1, en}, "t1");
  const GateId t2 = nl.add_gate(G::Tristate, {d2, en}, "t2");
  const GateId bus = nl.add_gate(G::Bus, {t1, t2}, "bus");
  nl.add_output(bus, "ob");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-004");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], bus));
  EXPECT_TRUE(mentions_gate(diags[0], t1));
  EXPECT_TRUE(mentions_gate(diags[0], t2));
}

TEST(LintStructural, SingleDriverBusFloats) {
  Netlist nl("float");
  const GateId d = nl.add_input("d");
  const GateId en = nl.add_input("en");
  const GateId t = nl.add_gate(G::Tristate, {d, en}, "t");
  const GateId bus = nl.add_gate(G::Bus, {t}, "bus");
  nl.add_output(bus, "ob");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-005");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], bus));
}

TEST(LintStructural, UninitializableStateIslandIsFlagged) {
  Netlist nl("island");
  const GateId x = nl.add_input("x");
  const GateId a = nl.add_gate(G::Dff, {x}, "a");
  const GateId b = nl.add_gate(G::Dff, {a}, "b");
  nl.set_fanin(a, kStoragePinD, b);  // a <-> b island, x feeds nothing
  nl.add_output(b, "ob");
  const auto diags = rule_diags(lint_netlist(nl), "STRUCT-006");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], a));
  EXPECT_TRUE(mentions_gate(diags[0], b));

  EXPECT_TRUE(rule_diags(lint_netlist(make_counter(4)), "STRUCT-006").empty());
}

TEST(LintStructural, UnobservableConeIsFlagged) {
  Netlist nl("blind");
  const GateId x = nl.add_input("x");
  const GateId y = nl.add_input("y");
  const GateId a = nl.add_gate(G::And, {x, y}, "a");
  const GateId b = nl.add_gate(G::Not, {a}, "b");
  const GateId keep = nl.add_gate(G::Or, {x, y}, "keep");
  nl.add_output(keep, "ok");
  const LintReport report = lint_netlist(nl);
  // 'a' fans out but reaches no PO; 'b' drives nothing (dangling instead).
  const auto cone = rule_diags(report, "STRUCT-007");
  ASSERT_EQ(cone.size(), 1u);
  EXPECT_TRUE(mentions_gate(cone[0], a));
  EXPECT_FALSE(mentions_gate(cone[0], b));
  const auto dangling = rule_diags(report, "STRUCT-002");
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_TRUE(mentions_gate(dangling[0], b));
}

// --- Testability rules ----------------------------------------------------

TEST(LintTestability, ScoapThresholdControlsHotspots) {
  const Netlist nl = make_sn74181();
  LintEngine engine;
  engine.options().scoap_difficulty_threshold = 0;
  EXPECT_FALSE(rule_diags(engine.run(nl), "TEST-001").empty());
  engine.options().scoap_difficulty_threshold = 1LL << 40;
  EXPECT_TRUE(rule_diags(engine.run(nl), "TEST-001").empty());
}

TEST(LintTestability, DeepPlaProductTermsResistRandomPatterns) {
  // Fan-in-20 product terms: detection probability ~2^-20 per pattern
  // (Fig. 22), far below the default 1e-4 floor.
  const Netlist pla =
      make_pla(make_random_pla_spec(/*num_inputs=*/20, /*num_outputs=*/2,
                                    /*num_terms=*/6, /*term_fanin=*/20,
                                    /*seed=*/7));
  EXPECT_FALSE(rule_diags(lint_netlist(pla), "TEST-002").empty());
  // Shallow logic does fine under random patterns.
  EXPECT_TRUE(rule_diags(lint_netlist(make_c17()), "TEST-002").empty());
}

TEST(LintTestability, SilentOnCyclicNetlists) {
  Netlist nl("cyc2");
  const GateId x = nl.add_input("x");
  const GateId a = nl.add_gate(G::And, {x, x}, "a");
  const GateId b = nl.add_gate(G::Or, {a, x}, "b");
  nl.add_output(b, "ob");
  nl.set_fanin(a, 1, b);
  LintEngine engine;
  engine.options().scoap_difficulty_threshold = 0;
  const LintReport report = engine.run(nl);
  EXPECT_TRUE(rule_diags(report, "TEST-001").empty());
  EXPECT_TRUE(rule_diags(report, "TEST-002").empty());
  EXPECT_FALSE(rule_diags(report, "STRUCT-001").empty());
}

// --- Engine registry ------------------------------------------------------

TEST(LintEngineApi, RegistryListsUniqueCompleteRules) {
  LintEngine engine;
  const auto rules = engine.rules();
  ASSERT_GE(rules.size(), 14u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_FALSE(rules[i]->id().empty());
    EXPECT_FALSE(rules[i]->title().empty());
    EXPECT_FALSE(rules[i]->category().empty());
    EXPECT_FALSE(rules[i]->paper().empty());
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      EXPECT_NE(rules[i]->id(), rules[j]->id());
    }
  }
  EXPECT_NE(engine.find_rule("SCAN-001"), nullptr);
  EXPECT_EQ(engine.find_rule("NOPE-999"), nullptr);
}

TEST(LintEngineApi, RulesCanBeDisabledIndividuallyAndByCategory) {
  const Netlist nl = make_counter(4);
  LintEngine engine;
  EXPECT_TRUE(engine.is_enabled("SCAN-001"));
  engine.set_enabled("SCAN-001", false);
  EXPECT_FALSE(engine.is_enabled("SCAN-001"));
  EXPECT_TRUE(rule_diags(engine.run(nl), "SCAN-001").empty());

  engine.set_category_enabled("testability", false);
  const LintReport report = engine.run(nl);
  EXPECT_TRUE(rule_diags(report, "TEST-001").empty());
  EXPECT_TRUE(rule_diags(report, "TEST-002").empty());

  EXPECT_THROW(engine.set_enabled("NOPE-999", true), std::invalid_argument);
  EXPECT_THROW(engine.set_category_enabled("nope", true),
               std::invalid_argument);
}

TEST(LintEngineApi, CustomRulesRegisterAndRejectDuplicates) {
  class AlwaysInfoRule final : public LintRule {
   public:
    std::string_view id() const override { return "CUSTOM-001"; }
    std::string_view title() const override { return "always-info"; }
    Severity severity() const override { return Severity::Info; }
    std::string_view category() const override { return "custom"; }
    std::string_view paper() const override { return "n/a"; }
    void check(LintContext&, std::vector<Diagnostic>& out) const override {
      Diagnostic d;
      d.message = "hello";
      out.push_back(std::move(d));
    }
  };
  LintEngine engine;
  engine.add_rule(std::make_unique<AlwaysInfoRule>());
  EXPECT_THROW(engine.add_rule(std::make_unique<AlwaysInfoRule>()),
               std::invalid_argument);
  const LintReport report = engine.run(make_c17());
  const auto diags = rule_diags(report, "CUSTOM-001");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Info);
  EXPECT_EQ(report.count(Severity::Info), 1);
  EXPECT_TRUE(report.passed());  // infos never fail a netlist
}

// --- Redundancy rules (dft::sta-backed) -----------------------------------

// The classic redundancy: z = AND(a, OR(b, NOT b)). The OR is provably
// constant 1, which makes z's side-input faults untestable.
Netlist make_redundant_and() {
  Netlist nl("classic_redundant");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId nb = nl.add_gate(G::Not, {b}, "nb");
  const GateId t = nl.add_gate(G::Or, {b, nb}, "t");
  const GateId z = nl.add_gate(G::And, {a, t}, "z");
  nl.add_output(z, "po");
  return nl;
}

TEST(LintRedundancy, ConstantLineIsFlagged) {
  const Netlist nl = make_redundant_and();
  const LintReport report = lint_netlist(nl);
  const auto diags = rule_diags(report, "REDUN-001");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(mentions_gate(diags[0], *nl.find("t")));
  EXPECT_NE(diags[0].message.find("constant 1"), std::string::npos);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
  EXPECT_TRUE(report.passed());  // redundancy is advisory, not fatal
  // Irredundant circuits are silent.
  EXPECT_TRUE(rule_diags(lint_netlist(make_c17()), "REDUN-001").empty());
}

TEST(LintRedundancy, UnobservableGateIsFlagged) {
  // g's only sink is AND-gated by a provable constant 0.
  Netlist nl("blocked");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId nb = nl.add_gate(G::Not, {b}, "nb");
  const GateId zero = nl.add_gate(G::And, {b, nb}, "zero");
  const GateId g = nl.add_gate(G::Or, {a, b}, "g");
  const GateId s = nl.add_gate(G::And, {g, zero}, "sink");
  nl.add_output(s, "po");
  const LintReport report = lint_netlist(nl);
  const auto diags = rule_diags(report, "REDUN-002");
  ASSERT_GE(diags.size(), 1u);
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return mentions_gate(d, g);
  }));
}

TEST(LintRedundancy, UntestableFaultSiteSkipsConstantAndUnobservableSites) {
  const Netlist nl = make_redundant_and();
  const LintReport report = lint_netlist(nl);
  // z has untestable side-input faults but is neither constant nor
  // unobservable, so it is the REDUN-003 site; t is REDUN-001's finding
  // and must not be re-reported here.
  const auto diags = rule_diags(report, "REDUN-003");
  ASSERT_GE(diags.size(), 1u);
  const GateId z = *nl.find("z");
  const GateId t = *nl.find("t");
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return mentions_gate(d, z);
  }));
  for (const Diagnostic& d : diags) EXPECT_FALSE(mentions_gate(d, t));
}

TEST(LintRedundancy, ProvenBusContentionIsAnError) {
  Netlist nl("contention");
  const GateId d = nl.add_input("d");
  const GateId one = nl.add_gate(G::Const1, {}, "one");
  const GateId zero = nl.add_gate(G::Const0, {}, "zero");
  const GateId t0 = nl.add_gate(G::Tristate, {zero, one}, "drv0");
  const GateId t1 = nl.add_gate(G::Tristate, {one, one}, "drv1");
  const GateId bus = nl.add_gate(G::Bus, {t0, t1}, "bus");
  const GateId keep = nl.add_gate(G::And, {bus, d}, "keep");
  nl.add_output(keep, "po");
  const LintReport report = lint_netlist(nl);
  const auto diags = rule_diags(report, "REDUN-004");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Error);
  EXPECT_TRUE(mentions_gate(diags[0], bus));
  EXPECT_FALSE(report.passed());

  // Free the enable of one driver: contention is no longer provable.
  Netlist ok("no_contention");
  const GateId en = ok.add_input("en");
  const GateId one2 = ok.add_gate(G::Const1, {}, "one");
  const GateId zero2 = ok.add_gate(G::Const0, {}, "zero");
  const GateId u0 = ok.add_gate(G::Tristate, {zero2, en}, "drv0");
  const GateId u1 = ok.add_gate(G::Tristate, {one2, one2}, "drv1");
  const GateId bus2 = ok.add_gate(G::Bus, {u0, u1}, "bus");
  ok.add_output(bus2, "po");
  EXPECT_TRUE(rule_diags(lint_netlist(ok), "REDUN-004").empty());
}

TEST(LintRedundancy, SilentOnCyclicNetlists) {
  Netlist nl("cyc3");
  const GateId x = nl.add_input("x");
  const GateId a = nl.add_gate(G::And, {x, x}, "a");
  const GateId b = nl.add_gate(G::Or, {a, x}, "b");
  nl.add_output(b, "ob");
  nl.set_fanin(a, 1, b);
  const LintReport report = lint_netlist(nl);
  for (const char* id : {"REDUN-001", "REDUN-002", "REDUN-003", "REDUN-004"}) {
    EXPECT_TRUE(rule_diags(report, id).empty()) << id;
  }
  EXPECT_FALSE(rule_diags(report, "STRUCT-001").empty());
}

// A caller-supplied analysis (the daemon shares one per cached circuit)
// renders the same report as lint building its own. Every built-in circuit
// but rand20k, whose analysis takes tens of seconds per build, too slow for
// this suite; rand2k is the same generator at a tenth of the size.
TEST(LintRedundancy, SharedAnalyzerRendersTheSameReport) {
  for (const char* name :
       {"c17", "adder4", "adder8", "mult3", "dec3", "parity8", "mux3", "cmp4",
        "sn74181", "counter8", "accum4", "rand2k"}) {
    const Netlist nl = serve::builtin_circuit(name);
    const sta::StaticAnalyzer shared(nl);
    const LintReport own = lint_netlist(nl);
    const LintReport borrowed = lint_netlist(nl, &shared);
    EXPECT_EQ(render_text(nl, borrowed), render_text(nl, own)) << name;
    EXPECT_EQ(render_json(nl, borrowed), render_json(nl, own)) << name;
  }
}

// --- Deterministic report ordering ----------------------------------------

TEST(LintReportOrdering, DiagnosticsAreTotallyOrderedAndStable) {
  // A netlist that trips several rules at several severities.
  const Netlist frozen = make_counter(4);
  const LintReport r1 = lint_netlist(frozen);
  const LintReport r2 = lint_netlist(frozen);
  ASSERT_GE(r1.diagnostics.size(), 2u);
  // Byte-identical across runs.
  EXPECT_EQ(render_json(frozen, r1), render_json(frozen, r2));
  // Sorted by (severity desc, rule, gates, message).
  for (std::size_t i = 1; i < r1.diagnostics.size(); ++i) {
    const Diagnostic& p = r1.diagnostics[i - 1];
    const Diagnostic& q = r1.diagnostics[i];
    const auto key = [](const Diagnostic& d) {
      return std::tuple<int, const std::string&, const std::vector<GateId>&,
                        const std::string&>(-static_cast<int>(d.severity),
                                            d.rule, d.gates, d.message);
    };
    EXPECT_LE(key(p), key(q)) << "diagnostics out of order at index " << i;
  }
}

// --- Rendering ------------------------------------------------------------

TEST(LintRender, JsonSchemaIsStable) {
  EXPECT_EQ(kLintJsonVersion, 1);
  Netlist nl("tiny");
  const GateId x = nl.add_input("x");
  const GateId f = nl.add_gate(G::Dff, {x}, "f");
  nl.add_output(f, "q");
  const LintReport report = lint_netlist(nl);
  EXPECT_EQ(
      render_json(nl, report),
      "{\"version\":1,\"netlist\":\"tiny\",\"gates\":3,"
      "\"summary\":{\"errors\":1,\"warnings\":0,\"infos\":0,\"passed\":false},"
      "\"diagnostics\":[{\"rule\":\"SCAN-001\",\"severity\":\"error\","
      "\"category\":\"scan\",\"paper\":\"Sec. IV-A rule 1 / Sec. IV-B\","
      "\"message\":\"storage element 'f' is not scannable; its state is "
      "neither directly controllable nor observable\","
      "\"fix\":\"convert it with insert_scan (LSSD SRL / Scan Path "
      "flip-flop) or insert_scan_partial\","
      "\"gates\":[{\"id\":" +
          std::to_string(f) + ",\"label\":\"f\"}]}]}");
}

TEST(LintRender, JsonEscapesSpecialCharacters) {
  Netlist nl("esc");
  const GateId x = nl.add_input("x");
  const GateId f = nl.add_gate(G::Dff, {x}, "we\"ird\\ff");
  nl.add_output(f, "q");
  const std::string json = render_json(nl, lint_netlist(nl));
  EXPECT_NE(json.find("we\\\"ird\\\\ff"), std::string::npos);
}

TEST(LintRender, TextReportNamesRuleSeverityAndGates) {
  const Netlist nl = make_counter(2);
  const std::string text = render_text(nl, lint_netlist(nl));
  EXPECT_NE(text.find("[SCAN-001] error:"), std::string::npos);
  EXPECT_NE(text.find("cnt0"), std::string::npos);
  EXPECT_NE(text.find("fix:"), std::string::npos);
  EXPECT_NE(text.find("ref: Sec. IV-A"), std::string::npos);
}

}  // namespace
}  // namespace dft
