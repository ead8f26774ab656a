// Tests for the stuck-at fault model, PODEM and fault simulation.
#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "atpg/fault_sim.hpp"
#include "atpg/test_set.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace tz {
namespace {

TEST(FaultUniverse, TwoFaultsPerSite) {
  const Netlist nl = gen_c17();
  const auto faults = fault_universe(nl);
  EXPECT_EQ(faults.size(), 2 * (5 + 6));  // PIs + gates
}

TEST(FaultUniverse, SkipsTiesAndDffs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.const_node(false);
  const NodeId q = nl.add_gate(GateType::Dff, "q", {a});
  const NodeId g = nl.add_gate(GateType::Xor, "g", {q, a});
  nl.mark_output(g);
  const auto faults = fault_universe(nl);
  EXPECT_EQ(faults.size(), 4u);  // a and g only
}

TEST(FaultCollapse, DropsDominatedInverterFaults) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId n = nl.add_gate(GateType::Not, "n", {a});
  nl.mark_output(n);
  const auto collapsed = collapse_faults(nl, fault_universe(nl));
  EXPECT_EQ(collapsed.size(), 2u);  // only the PI faults remain
}

TEST(FaultToString, Readable) {
  const Netlist nl = gen_c17();
  const Fault f{nl.find("10"), StuckAt::One};
  EXPECT_EQ(to_string(nl, f), "10/sa1");
}

TEST(Podem, FindsTestsForEveryC17Fault) {
  // c17 is fully testable; PODEM must find a pattern for every fault, and
  // the pattern must actually detect it under fault simulation.
  const Netlist nl = gen_c17();
  for (const Fault& f : fault_universe(nl)) {
    const PodemResult r = podem(nl, f);
    ASSERT_EQ(r.status, PodemStatus::Detected) << to_string(nl, f);
    PatternSet one(nl.inputs().size(), 1);
    for (std::size_t s = 0; s < r.pattern.size(); ++s) {
      one.set(0, s, r.pattern[s]);
    }
    EXPECT_TRUE(test::detected(nl, f, one)) << to_string(nl, f);
  }
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // f = OR(x, AND(x, y)): the AND is absorbed, its sa0 is undetectable.
  Netlist nl;
  const NodeId x = nl.add_input("x");
  const NodeId y = nl.add_input("y");
  const NodeId a = nl.add_gate(GateType::And, "a", {x, y});
  const NodeId f = nl.add_gate(GateType::Or, "f", {x, a});
  nl.mark_output(f);
  const PodemResult r = podem(nl, Fault{a, StuckAt::Zero});
  EXPECT_EQ(r.status, PodemStatus::Untestable);
  // sa1 on the same node IS testable (x=0, y arbitrary exposes it? x=0,a=1
  // forces f=1 vs good f=0 when y picked right).
  const PodemResult r1 = podem(nl, Fault{a, StuckAt::One});
  EXPECT_EQ(r1.status, PodemStatus::Detected);
}

TEST(Podem, C432ConsensusCoversAreUntestable) {
  // The generator's hazard-cover redundancy must be invisible to any test.
  const Netlist nl = make_benchmark("c432");
  const auto faults = fault_universe(nl);
  int untestable = 0;
  PodemOptions opt;
  opt.backtrack_limit = 2000;
  for (const Fault& f : faults) {
    if (podem(nl, f, opt).status == PodemStatus::Untestable) ++untestable;
  }
  EXPECT_GT(untestable, 5);  // the injected consensus covers at minimum
}


TEST(PodemEngine, ReusedEngineMatchesOneShotPodem) {
  // One engine across an entire fault universe must return exactly what the
  // one-shot wrapper does for each fault (status, pattern, don't-care mask,
  // backtrack count) — the scratch reuse and event-driven implication are
  // pure optimisations.
  const Netlist nl = make_benchmark("c432");
  const auto faults = collapse_faults(nl, fault_universe(nl));
  PodemEngine engine(nl);
  for (const Fault& f : faults) {
    const PodemResult fresh = podem(nl, f);
    const PodemResult reused = engine.run(f);
    ASSERT_EQ(reused.status, fresh.status) << to_string(nl, f);
    EXPECT_EQ(reused.backtracks, fresh.backtracks) << to_string(nl, f);
    EXPECT_EQ(reused.pattern, fresh.pattern) << to_string(nl, f);
    EXPECT_EQ(reused.assigned, fresh.assigned) << to_string(nl, f);
  }
}

// FNV-1a over the eight little-endian bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(PodemEngine, PinnedVerdictDigests) {
  // Every PODEM verdict (status, backtrack count, pattern and don't-care
  // mask) of one reused engine over a fault sample, folded into a digest
  // pinned at the full-scan D-frontier search: a faster search must leave
  // all of it byte-identical. Each run must also equal a fresh podem().
  struct Case {
    const char* circuit;
    std::size_t stride;  ///< every stride-th collapsed fault
    std::size_t detected, untestable, aborted;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{"c880", 1, 768, 0, 14, 0x250A09F4F607E27Cull},
                        Case{"c1908", 4, 208, 0, 52, 0xC51772820282E62Aull},
                        Case{"rand2k", 16, 256, 10, 10,
                             0xC57BFC9BCC4921EBull}}) {
    const Netlist nl = make_benchmark(c.circuit);
    const auto faults = collapse_faults(nl, fault_universe(nl));
    PodemEngine engine(nl);
    std::uint64_t h = 0xCBF29CE484222325ull;
    std::size_t counts[3] = {0, 0, 0};
    for (std::size_t i = 0; i < faults.size(); i += c.stride) {
      const PodemResult r = engine.run(faults[i]);
      const PodemResult fresh = podem(nl, faults[i]);
      ASSERT_EQ(r.status, fresh.status) << c.circuit << " fault " << i;
      ASSERT_EQ(r.backtracks, fresh.backtracks) << c.circuit << " fault " << i;
      ASSERT_EQ(r.pattern, fresh.pattern) << c.circuit << " fault " << i;
      ASSERT_EQ(r.assigned, fresh.assigned) << c.circuit << " fault " << i;
      ++counts[static_cast<int>(r.status)];
      h = fnv1a(h, static_cast<std::uint64_t>(r.status));
      h = fnv1a(h, static_cast<std::uint64_t>(r.backtracks));
      for (std::size_t s = 0; s < r.pattern.size(); ++s) {
        h = fnv1a(h, (r.pattern[s] ? 1u : 0u) | (r.assigned[s] ? 2u : 0u));
      }
    }
    EXPECT_EQ(counts[static_cast<int>(PodemStatus::Detected)], c.detected)
        << c.circuit;
    EXPECT_EQ(counts[static_cast<int>(PodemStatus::Untestable)], c.untestable)
        << c.circuit;
    EXPECT_EQ(counts[static_cast<int>(PodemStatus::Aborted)], c.aborted)
        << c.circuit;
    EXPECT_EQ(h, c.digest) << c.circuit;
  }
}

TEST(FaultSim, AgreesWithPodemOnDetection) {
  const Netlist nl = make_benchmark("c17");
  const auto faults = fault_universe(nl);
  const PatternSet ps = exhaustive_patterns(nl.inputs().size());
  const auto det = test::detect_flags(nl, faults, ps);
  // Exhaustive patterns detect exactly the testable faults.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool testable =
        podem(nl, faults[i]).status == PodemStatus::Detected;
    EXPECT_EQ(det[i], testable) << to_string(nl, faults[i]);
  }
}

TEST(FaultSim, FirstDetectsMatchDropSimFlags) {
  // The engine reports each fault's first detecting pattern equal to the
  // reference evaluator's, and sets exactly the flags of the faults it
  // reports.
  const Netlist nl = gen_c17();
  const auto faults = fault_universe(nl);
  const PatternSet ps = random_patterns(nl.inputs().size(), 20, 5);
  const auto first = test::first_detects(nl, faults, ps);
  const auto det = test::detect_flags(nl, faults, ps);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const std::size_t want = test::reference_first_detect(nl, ps, faults[f]);
    EXPECT_EQ(first[f], want) << to_string(nl, faults[f]);
    EXPECT_EQ(det[f], want != test::kUndetected) << to_string(nl, faults[f]);
  }
}

TEST(TestGen, BootstrapKeepsFirstDetects) {
  // With no deterministic phase (coverage target 0) the shipped set is the
  // compacted bootstrap: the sorted distinct first detecting patterns of
  // the collapsed faults, here rebuilt from reference fault injection. It
  // must be smaller than the bootstrap and cover as much. 200 patterns span
  // four words, so some first detections fall past word 0.
  const Netlist nl = make_benchmark("c432");
  const auto faults = collapse_faults(nl, fault_universe(nl));
  for (const std::size_t width : {64u, 128u, 200u}) {
    TestGenOptions opt;
    opt.random_patterns = width;
    opt.coverage_target = 0.0;
    const PatternSet bootstrap =
        random_patterns(nl.inputs().size(), width, opt.seed);
    std::vector<std::size_t> kept;
    for (const Fault& f : faults) {
      const std::size_t first = test::reference_first_detect(nl, bootstrap, f);
      if (first != test::kUndetected) kept.push_back(first);
    }
    const std::size_t covered = kept.size();
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    if (width == 200) {
      EXPECT_GE(kept.back(), 64u);
    }
    EXPECT_LT(kept.size(), width);  // compaction bites
    PatternSet want(nl.inputs().size(), kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      for (std::size_t s = 0; s < nl.inputs().size(); ++s) {
        want.set(k, s, bootstrap.get(kept[k], s));
      }
    }
    EXPECT_EQ(grade_patterns(nl, faults, want).detected, covered);
    const std::string label = "width=" + std::to_string(width);
    const DefenderTestSet ts = generate_atpg_tests(nl, opt);
    EXPECT_EQ(ts.patterns.num_patterns(), kept.size()) << label;
    EXPECT_TRUE(BitSimulator::responses_equal(ts.patterns, want)) << label;
    EXPECT_EQ(ts.coverage.detected, covered) << label;
  }
}

TEST(TestGen, CoverageAndGoldenResponses) {
  const Netlist nl = make_benchmark("c880");
  TestGenOptions opt;
  opt.random_patterns = 64;
  opt.max_patterns = 96;
  const DefenderTestSet ts = generate_atpg_tests(nl, opt);
  EXPECT_GT(ts.coverage.coverage(), 0.80);
  EXPECT_LE(ts.patterns.num_patterns(), 97u);
  // Golden responses must match a fresh simulation.
  const PatternSet again = BitSimulator(nl).outputs(ts.patterns);
  EXPECT_TRUE(BitSimulator::responses_equal(again, ts.golden));
}

TEST(TestGen, PatternBudgetBinds) {
  const Netlist nl = make_benchmark("c1908");
  TestGenOptions opt;
  opt.random_patterns = 64;
  opt.max_patterns = 40;
  opt.coverage_target = 1.0;
  const DefenderTestSet ts = generate_atpg_tests(nl, opt);
  EXPECT_LE(ts.patterns.num_patterns(), 41u);
  EXPECT_LT(ts.coverage.coverage(), 1.0);
}

TEST(TestGen, HigherBudgetNeverLowersCoverage) {
  const Netlist nl = make_benchmark("c432");
  TestGenOptions small, big;
  small.max_patterns = 32;
  big.max_patterns = 256;
  big.coverage_target = 0.999;
  const auto cs = generate_atpg_tests(nl, small);
  const auto cb = generate_atpg_tests(nl, big);
  EXPECT_GE(cb.coverage.coverage(), cs.coverage.coverage());
}

TEST(FunctionalTest, CleanCircuitPasses) {
  const Netlist nl = make_benchmark("c432");
  const DefenderSuite suite = make_defender_suite(nl);
  EXPECT_TRUE(functional_test(nl, suite));
}

TEST(FunctionalTest, MutatedCircuitFails) {
  const Netlist nl = make_benchmark("c17");
  DefenderSuite suite = make_defender_suite(nl);
  Netlist broken = nl;
  // Retype one NAND to NOR: a gross functional change.
  const NodeId g = broken.find("10");
  broken.retype(g, GateType::Nor);
  EXPECT_FALSE(functional_test(broken, suite));
}

TEST(FunctionalTest, InterfaceMismatchFails) {
  const Netlist nl = make_benchmark("c17");
  const DefenderSuite suite = make_defender_suite(nl);
  const Netlist other = make_benchmark("c432");
  EXPECT_FALSE(functional_test(other, suite));
}

/// Property: on random circuits every PODEM-detected fault is confirmed by
/// fault simulation of the produced pattern.
class PodemSound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemSound, PatternsConfirmedByFaultSim) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 40;
  const Netlist nl = random_circuit(spec);
  int checked = 0;
  for (const Fault& f : fault_universe(nl)) {
    const PodemResult r = podem(nl, f);
    if (r.status != PodemStatus::Detected) continue;
    PatternSet one(nl.inputs().size(), 1);
    for (std::size_t s = 0; s < r.pattern.size(); ++s) {
      one.set(0, s, r.pattern[s]);
    }
    ASSERT_TRUE(test::detected(nl, f, one)) << to_string(nl, f);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemSound,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

/// Property: PODEM "untestable" verdicts are genuine — exhaustive simulation
/// finds no detecting pattern either (small circuits only).
class PodemComplete : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemComplete, UntestableMeansUndetectable) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_inputs = 8;
  spec.num_gates = 25;
  const Netlist nl = random_circuit(spec);
  const PatternSet all = exhaustive_patterns(8);
  for (const Fault& f : fault_universe(nl)) {
    const PodemResult r = podem(nl, f);
    if (r.status == PodemStatus::Untestable) {
      EXPECT_FALSE(test::detected(nl, f, all)) << to_string(nl, f);
    } else if (r.status == PodemStatus::Detected) {
      EXPECT_TRUE(test::detected(nl, f, all)) << to_string(nl, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemComplete,
                         ::testing::Values(31, 37, 41, 43, 47));

/// Property: on random circuits the engine's per-fault first detecting
/// pattern matches the reference evaluator's fault injection, across a
/// pattern count that crosses the 64-pattern word boundary.
class FaultSimEquiv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimEquiv, EngineMatchesSerialReference) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 60;
  const Netlist nl = random_circuit(spec);
  const auto faults = fault_universe(nl);
  const PatternSet ps = random_patterns(nl.inputs().size(), 70, GetParam());
  const auto first = test::first_detects(nl, faults, ps);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(first[i], test::reference_first_detect(nl, ps, faults[i]))
        << to_string(nl, faults[i]);
  }
}

TEST_P(FaultSimEquiv, DropSimOverSplitsMatchesFullSim) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 60;
  const Netlist nl = random_circuit(spec);
  const auto faults = fault_universe(nl);
  const PatternSet ps = random_patterns(nl.inputs().size(), 70, GetParam());
  // Split the set in two and drop-simulate incrementally with one engine.
  const PatternSet first = ps.slice(0, 37);
  const PatternSet second = ps.slice(37, 33);
  FaultSimEngine engine(nl);
  std::vector<bool> dropped(faults.size(), false);
  engine.set_patterns(first);
  std::size_t covered = engine.drop_sim(faults, dropped);
  engine.set_patterns(second);
  covered += engine.drop_sim(faults, dropped);
  const std::vector<bool> full = test::detect_flags(nl, faults, ps);
  EXPECT_EQ(dropped, full);
  std::size_t full_covered = 0;
  for (const bool d : full) full_covered += d ? 1 : 0;
  EXPECT_EQ(covered, full_covered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimEquiv,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(FaultSimEngine, UnreachableSiteSkippedStatically) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId dead = nl.add_gate(GateType::Not, "dead", {a});
  const NodeId live = nl.add_gate(GateType::Buf, "live", {a});
  nl.mark_output(live);
  FaultSimEngine engine(nl);
  engine.set_patterns(exhaustive_patterns(1));
  EXPECT_FALSE(engine.po_reachable(dead));
  EXPECT_TRUE(engine.po_reachable(a));
  EXPECT_FALSE(test::detected(engine, Fault{dead, StuckAt::One}));
  EXPECT_TRUE(test::detected(engine, Fault{a, StuckAt::One}));
}

TEST(FaultSimEngine, MatchesReferenceOnBenchmarks) {
  // On two ISCAS netlists the engine's flags and first detections must equal
  // reference fault injection on a sample of faults, and one drop_sim must
  // count exactly the faults it flags.
  for (const char* name : {"c432", "c880"}) {
    const Netlist nl = make_benchmark(name);
    const auto faults = collapse_faults(nl, fault_universe(nl));
    const PatternSet ps = random_patterns(nl.inputs().size(), 150, 9);
    const std::string label = name;
    FaultSimEngine engine(nl);
    engine.set_patterns(ps);
    const auto first = test::first_detects(engine, faults);
    for (std::size_t i = 0; i < faults.size(); i += 17) {
      const std::size_t want = test::reference_first_detect(nl, ps, faults[i]);
      EXPECT_EQ(first[i], want) << label << " fault " << to_string(nl, faults[i]);
      EXPECT_EQ(test::detected(engine, faults[i]), want != test::kUndetected)
          << label << " fault " << to_string(nl, faults[i]);
    }
    std::vector<bool> dropped(faults.size(), false);
    const std::size_t newly = engine.drop_sim(faults, dropped);
    EXPECT_EQ(newly, static_cast<std::size_t>(
                         std::count(dropped.begin(), dropped.end(), true)))
        << label;
    EXPECT_EQ(newly, faults.size() - static_cast<std::size_t>(std::count(
                                         first.begin(), first.end(),
                                         test::kUndetected)))
        << label;
  }
}

TEST(FaultSimEngine, FirstDetectWordBoundaries) {
  // The engine packs 64 patterns per word. Exercise every off-by-one around
  // the boundary: fault counts and pattern counts one below, at, and one
  // above a full word.
  const Netlist nl = make_benchmark("c432");
  const auto universe = fault_universe(nl);
  ASSERT_GE(universe.size(), 65u);
  for (const std::size_t nf : {63u, 64u, 65u}) {
    const std::span<const Fault> faults(universe.data(), nf);
    for (const std::size_t np : {63u, 64u, 65u}) {
      const PatternSet ps =
          random_patterns(nl.inputs().size(), np, 31 * nf + np);
      const std::string label =
          "faults=" + std::to_string(nf) + " patterns=" + std::to_string(np);
      const auto first = test::first_detects(nl, faults, ps);
      for (std::size_t i = 0; i < nf; ++i) {
        EXPECT_EQ(first[i], test::reference_first_detect(nl, ps, faults[i]))
            << label << " fault " << i;
      }
    }
  }
}

TEST(FaultSimEngine, FirstDetectsPastWordZero) {
  // g = AND(a0..a7) and n = NOR(a0..a7) over 200 hand-made patterns (four
  // words): every pattern drives only a0 high, except pattern 130 (all
  // ones) and pattern 190 (all zeros). g sa0 and a1..a7 sa0 first detect at
  // 130, n sa0 and a0..a7 sa1 at 190, all in word 2. The faults detected on
  // pattern 0 end their PO scan at once.
  Netlist nl;
  const std::vector<NodeId> a = test::add_inputs(nl, 8, "a");
  const NodeId g = nl.add_gate(GateType::And, "g", a);
  const NodeId n = nl.add_gate(GateType::Nor, "n", a);
  nl.mark_output(g);
  nl.mark_output(n);
  PatternSet ps(a.size(), 200);
  for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
    for (std::size_t s = 0; s < a.size(); ++s) {
      ps.set(p, s, p == 130 || (p != 190 && s == 0));
    }
  }
  const std::vector<Fault> early = {{g, StuckAt::One}, {n, StuckAt::One},
                                    {a[0], StuckAt::Zero}};
  const std::vector<Fault> late = {{g, StuckAt::Zero}, {n, StuckAt::Zero},
                                   {a[1], StuckAt::Zero}, {a[1], StuckAt::One},
                                   {a[0], StuckAt::One}};
  const std::vector<std::size_t> want_early = {0, 0, 0};
  const std::vector<std::size_t> want_late = {130, 190, 130, 190, 190};
  for (const auto& [faults, want] :
       {std::pair{early, want_early}, std::pair{late, want_late}}) {
    EXPECT_EQ(test::reference_first_detects(nl, ps, faults), want);
    EXPECT_EQ(test::first_detects(nl, faults, ps), want);
  }
  // Both lists in one call: early and late faults share one engine pass.
  std::vector<Fault> all = early;
  all.insert(all.end(), late.begin(), late.end());
  std::vector<std::size_t> want_all = want_early;
  want_all.insert(want_all.end(), want_late.begin(), want_late.end());
  EXPECT_EQ(test::first_detects(nl, all, ps), want_all);
}

TEST(FaultSimEngine, ZeroDetectRowsAndAllDroppedCalls) {
  // g = AND(a, b) under all-zero patterns: g stuck-at-0 is never excited
  // (never detected), g stuck-at-1 flips every pattern (first detected by
  // pattern 0). The engine must match the reference on both extremes, and
  // a drop_sim where every fault is already dropped must touch no flag and
  // no first-detect entry.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, "g", {a, b});
  const NodeId o = nl.add_gate(GateType::Buf, "o", {g});
  nl.mark_output(o);
  const PatternSet zeros(nl.inputs().size(), 70);  // all-zero, 2 words
  const std::vector<Fault> faults = {{g, StuckAt::Zero}, {g, StuckAt::One},
                                     {a, StuckAt::One}, {b, StuckAt::One}};
  // a/b sa1 are excited but masked by the other AND input staying 0.
  const std::vector<std::size_t> want = {test::kUndetected, 0,
                                         test::kUndetected, test::kUndetected};
  EXPECT_EQ(test::reference_first_detects(nl, zeros, faults), want);
  FaultSimEngine engine(nl);
  engine.set_patterns(zeros);
  EXPECT_EQ(test::first_detects(engine, faults), want);
  std::vector<bool> all_dropped(faults.size(), true);
  std::vector<std::size_t> first(faults.size(), 7);
  EXPECT_EQ(engine.drop_sim(faults, all_dropped, first), 0u);
  EXPECT_EQ(all_dropped, std::vector<bool>(faults.size(), true));
  EXPECT_EQ(first, std::vector<std::size_t>(faults.size(), 7));
}

TEST(FaultSimEngine, PatternSwapKeepsStaticAnalyses) {
  // PO reachability is computed once and kept across pattern swaps; each
  // swap re-runs the good machine.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  const NodeId o = nl.add_gate(GateType::Buf, "o", {a});
  nl.mark_output(o);
  FaultSimEngine engine(nl);
  engine.set_patterns(exhaustive_patterns(1));
  EXPECT_FALSE(engine.po_reachable(g));
  EXPECT_FALSE(test::detected(engine, Fault{g, StuckAt::Zero}));

  PatternSet zero(1, 1);  // the single pattern a = 0
  engine.set_patterns(zero);
  EXPECT_FALSE(engine.po_reachable(g));
  EXPECT_FALSE(test::detected(engine, Fault{o, StuckAt::Zero}));
  EXPECT_TRUE(test::detected(engine, Fault{o, StuckAt::One}));
}

TEST(FaultSimEngine, DropSimRejectsMismatchedFlags) {
  // drop_sim reads and sets detected[i] for every fault: a flag vector of
  // another length, or a non-empty first-detect vector of another length,
  // is refused, naming both sizes, before any flag is read.
  const Netlist nl = gen_c17();
  const std::vector<Fault> faults = fault_universe(nl);
  FaultSimEngine engine(nl);
  engine.set_patterns(exhaustive_patterns(nl.inputs().size()));
  for (const std::size_t n : {faults.size() / 2, faults.size() + 1}) {
    std::vector<bool> flags(n, false);
    try {
      engine.drop_sim(faults, flags);
      ADD_FAILURE() << "no throw for " << n << " flags";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("has " + std::to_string(n) + " flags"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("for " + std::to_string(faults.size()) + " faults"),
                std::string::npos)
          << msg;
    }
    EXPECT_EQ(flags, std::vector<bool>(n, false));

    std::vector<bool> good_flags(faults.size(), false);
    std::vector<std::size_t> first(n, 0);
    try {
      engine.drop_sim(faults, good_flags, first);
      ADD_FAILURE() << "no throw for " << n << " first-detect entries";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("has " + std::to_string(n) + " entries"),
                std::string::npos)
          << msg;
    }
    EXPECT_EQ(good_flags, std::vector<bool>(faults.size(), false));
  }
}

TEST(FaultSimEngine, WidePatternSetMatchesReference) {
  // A pattern set wider than one stripe: the good machine comes out of a
  // stripe-major run and is gathered into slot rows. The engine's first
  // detections must still equal independent reference fault injection.
  const Netlist nl = test::random_full_alphabet(29, 2000);
  const EvalPlan plan(nl);
  const std::size_t words = plan.block_words(1u << 20) * 2 + 3;
  ASSERT_LT(plan.block_words(words), words);
  const PatternSet ps =
      random_patterns(nl.inputs().size(), 64 * words - 5, 0x3F5);
  const std::vector<Fault> universe = fault_universe(nl);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < universe.size(); i += universe.size() / 16) {
    faults.push_back(universe[i]);
  }
  const std::vector<std::size_t> want =
      test::reference_first_detects(nl, ps, faults);
  EXPECT_NE(std::count(want.begin(), want.end(), test::kUndetected),
            static_cast<std::ptrdiff_t>(want.size()));
  EXPECT_EQ(test::first_detects(nl, faults, ps), want);
}

TEST(TestGen, AtpgMatchesReference) {
  // The full ATPG flow (bootstrap first detections, compaction, PODEM
  // dropping) against the reference evaluator: the golden responses are
  // what reference_simulate computes, and the coverage counter is the
  // number of collapsed faults reference fault injection detects with the
  // shipped patterns.
  const Netlist nl = make_benchmark("c880");
  TestGenOptions opt;
  opt.random_patterns = 64;
  opt.max_patterns = 64;
  const DefenderTestSet ts = generate_atpg_tests(nl, opt);
  EXPECT_TRUE(BitSimulator::responses_equal(
      ts.golden, reference_outputs(nl, ts.patterns)));
  const auto faults = collapse_faults(nl, fault_universe(nl));
  const auto first = test::reference_first_detects(nl, ts.patterns, faults);
  EXPECT_EQ(ts.coverage.detected,
            faults.size() - static_cast<std::size_t>(std::count(
                                first.begin(), first.end(), test::kUndetected)));
}

TEST(FaultSimEngine, DffBlocksPropagationLikeBitSimulator) {
  // A fault feeding only a DFF's d-input cannot reach a PO in one
  // combinational pass, matching BitSimulator's single-pass semantics.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  const NodeId q = nl.add_gate(GateType::Dff, "q", {g});
  const NodeId o = nl.add_gate(GateType::Buf, "o", {q});
  nl.mark_output(o);
  FaultSimEngine engine(nl);
  engine.set_patterns(exhaustive_patterns(1));
  EXPECT_FALSE(engine.po_reachable(g));
  EXPECT_FALSE(test::detected(engine, Fault{g, StuckAt::Zero}));
}

}  // namespace
}  // namespace tz
