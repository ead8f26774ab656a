// Tests for the stuck-at fault model, PODEM and fault simulation.
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "atpg/fault_sim_backend.hpp"
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

TEST(FaultSim, DetectionMatrixMatchesDropSimFlags) {
  const Netlist nl = gen_c17();
  const auto faults = fault_universe(nl);
  const PatternSet ps = random_patterns(nl.inputs().size(), 20, 5);
  const auto matrix = detection_matrix(nl, faults, ps);
  const auto det = test::detect_flags(nl, faults, ps);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    bool any = false;
    for (auto w : matrix[f]) any |= w != 0;
    EXPECT_EQ(any, det[f]);
  }
}

TEST(FaultSim, CompactionPreservesCoverage) {
  const Netlist nl = make_benchmark("c432");
  const auto faults = collapse_faults(nl, fault_universe(nl));
  const PatternSet ps = random_patterns(nl.inputs().size(), 128, 21);
  const auto matrix = detection_matrix(nl, faults, ps);
  const auto kept = compact_patterns(matrix, ps.num_patterns());
  EXPECT_LT(kept.size(), ps.num_patterns());  // compaction bites
  PatternSet compacted(nl.inputs().size(), kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    for (std::size_t s = 0; s < nl.inputs().size(); ++s) {
      compacted.set(k, s, ps.get(kept[k], s));
    }
  }
  EXPECT_EQ(grade_patterns(nl, faults, compacted).detected,
            grade_patterns(nl, faults, ps).detected);
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

/// Property: on random circuits the engine's per-fault detect bitmaps match
/// the reference evaluator's fault injection bit for bit, across a pattern
/// count that crosses the 64-pattern word boundary.
class FaultSimEquiv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimEquiv, EngineMatchesSerialReference) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 60;
  const Netlist nl = random_circuit(spec);
  const auto faults = fault_universe(nl);
  const PatternSet ps = random_patterns(nl.inputs().size(), 70, GetParam());
  const auto engine = make_fault_sim_backend(nl, FaultSimMode::Event);
  engine->set_patterns(ps);
  const std::vector<bool> det = test::detect_flags(*engine, faults);
  const auto matrix = engine->detection_matrix(faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto ref = test::reference_detection_bits(nl, ps, faults[i]);
    EXPECT_EQ(matrix[i], ref) << to_string(nl, faults[i]);
    bool ref_any = false;
    for (const std::uint64_t w : ref) ref_any |= w != 0;
    EXPECT_EQ(det[i], ref_any) << to_string(nl, faults[i]);
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
  const auto engine = make_fault_sim_backend(nl, FaultSimMode::Event);
  std::vector<bool> dropped(faults.size(), false);
  engine->set_patterns(first);
  std::size_t covered = engine->drop_sim(faults, dropped);
  engine->set_patterns(second);
  covered += engine->drop_sim(faults, dropped);
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
  const auto engine = make_fault_sim_backend(nl, FaultSimMode::Event);
  engine->set_patterns(exhaustive_patterns(1));
  EXPECT_FALSE(engine->context().po_reachable(dead));
  EXPECT_TRUE(engine->context().po_reachable(a));
  EXPECT_FALSE(test::detected(*engine, Fault{dead, StuckAt::One}));
  EXPECT_TRUE(test::detected(*engine, Fault{a, StuckAt::One}));
}

// ---- pluggable backend layer -----------------------------------------------

TEST(FaultBackend, ModeSelectionAndFactoryNames) {
  EXPECT_EQ(to_string(FaultSimMode::Auto), "auto");
  EXPECT_EQ(to_string(FaultSimMode::Event), "event");
  EXPECT_EQ(to_string(FaultSimMode::Packed), "packed");

  const Netlist nl = gen_c17();
  EXPECT_EQ(make_fault_sim_backend(nl, FaultSimMode::Event)->name(), "event");
  EXPECT_EQ(make_fault_sim_backend(nl, FaultSimMode::Packed)->name(),
            "packed");
  EXPECT_EQ(make_fault_sim_backend(nl, FaultSimMode::Auto)->name(), "auto");

  // The process-wide override: 0/1/2 force a mode (out-of-range clamps), -1
  // restores the Auto default.
  {
    const test::FaultModeGuard packed(2);
    EXPECT_EQ(fault_sim_mode(), FaultSimMode::Packed);
    EXPECT_EQ(make_fault_sim_backend(nl)->name(), "packed");
    set_fault_sim_mode(1);
    EXPECT_EQ(fault_sim_mode(), FaultSimMode::Event);
    set_fault_sim_mode(0);
    EXPECT_EQ(fault_sim_mode(), FaultSimMode::Auto);
    set_fault_sim_mode(99);
    EXPECT_EQ(fault_sim_mode(), FaultSimMode::Packed);
  }
  EXPECT_EQ(fault_sim_mode(), FaultSimMode::Auto);

  // Both engines bind to one shared context: the static analyses and the
  // good machine are computed once no matter how many backends consume them.
  const auto ctx = std::make_shared<FaultSimContext>(nl);
  const auto event = make_fault_sim_backend(ctx, FaultSimMode::Event);
  const auto packed = make_fault_sim_backend(ctx, FaultSimMode::Packed);
  EXPECT_EQ(&event->context(), &packed->context());
}

TEST(FaultBackend, PackedMatchesEventAndReference) {
  // The packed engine must be bit-identical to the event engine on every
  // query of the backend contract, and the shared detection matrix must
  // equal reference fault injection on a sample of faults.
  for (const char* name : {"c432", "c880"}) {
    const Netlist nl = make_benchmark(name);
    const auto faults = collapse_faults(nl, fault_universe(nl));
    const PatternSet ps = random_patterns(nl.inputs().size(), 150, 9);
    const std::string label = name;
    const auto event = make_fault_sim_backend(nl, FaultSimMode::Event);
    const auto packed = make_fault_sim_backend(nl, FaultSimMode::Packed);
    event->set_patterns(ps);
    packed->set_patterns(ps);

    const std::vector<bool> eflags = test::detect_flags(*event, faults);
    EXPECT_EQ(test::detect_flags(*packed, faults), eflags) << label;
    const auto matrix = event->detection_matrix(faults);
    EXPECT_EQ(packed->detection_matrix(faults), matrix) << label;
    for (std::size_t i = 0; i < faults.size(); i += 17) {
      EXPECT_EQ(test::detected(*packed, faults[i]),
                test::detected(*event, faults[i]))
          << label << " fault " << to_string(nl, faults[i]);
      EXPECT_EQ(matrix[i], test::reference_detection_bits(nl, ps, faults[i]))
          << label << " fault " << to_string(nl, faults[i]);
    }
    std::vector<bool> edrop(faults.size(), false);
    std::vector<bool> pdrop(faults.size(), false);
    EXPECT_EQ(packed->drop_sim(faults, pdrop), event->drop_sim(faults, edrop))
        << label;
    EXPECT_EQ(pdrop, edrop) << label;
  }
}

TEST(FaultBackend, DetectionMatrixWordBoundaries) {
  // The packed engine packs 64 faults per word and 64 patterns per block;
  // the event engine packs 64 patterns per word. Exercise every off-by-one
  // around both boundaries: fault counts and pattern counts one below, at,
  // and one above a full word.
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
      const auto event = make_fault_sim_backend(nl, FaultSimMode::Event);
      const auto packed = make_fault_sim_backend(nl, FaultSimMode::Packed);
      event->set_patterns(ps);
      packed->set_patterns(ps);
      const auto ematrix = event->detection_matrix(faults);
      const auto pmatrix = packed->detection_matrix(faults);
      EXPECT_EQ(pmatrix, ematrix) << label;
      // No detection bit may land beyond the pattern tail.
      const std::uint64_t tail = ps.tail_mask();
      for (const auto& row : pmatrix) {
        ASSERT_EQ(row.size(), ps.num_words()) << label;
        EXPECT_EQ(row.back() & ~tail, 0u) << label;
      }
      EXPECT_EQ(test::detect_flags(*packed, faults),
                test::detect_flags(*event, faults))
          << label;
    }
  }
}

TEST(FaultBackend, ZeroDetectRowsAndAllDroppedBatches) {
  // g = AND(a, b) under all-zero patterns: g stuck-at-0 is never excited
  // (zero detection row), g stuck-at-1 flips every pattern (full row up to
  // the tail). Both backends must agree on both extremes, and a drop_sim
  // where every fault is already dropped must touch nothing.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, "g", {a, b});
  const NodeId o = nl.add_gate(GateType::Buf, "o", {g});
  nl.mark_output(o);
  const PatternSet zeros(nl.inputs().size(), 70);  // all-zero, 2 words
  const std::vector<Fault> faults = {{g, StuckAt::Zero}, {g, StuckAt::One},
                                     {a, StuckAt::One}, {b, StuckAt::One}};
  for (const FaultSimMode mode : {FaultSimMode::Event, FaultSimMode::Packed}) {
    const auto backend = make_fault_sim_backend(nl, mode);
    backend->set_patterns(zeros);
    const auto matrix = backend->detection_matrix(faults);
    ASSERT_EQ(matrix.size(), faults.size());
    const std::vector<std::uint64_t> zero_row(zeros.num_words(), 0);
    const std::vector<std::uint64_t> full_row = {~std::uint64_t{0},
                                                 zeros.tail_mask()};
    EXPECT_EQ(matrix[0], zero_row) << backend->name();   // g sa0: unexcited
    EXPECT_EQ(matrix[1], full_row) << backend->name();   // g sa1: every TP
    // a/b sa1 are excited but masked by the other AND input staying 0.
    EXPECT_EQ(matrix[2], zero_row) << backend->name();
    EXPECT_EQ(matrix[3], zero_row) << backend->name();

    std::vector<bool> all_dropped(faults.size(), true);
    EXPECT_EQ(backend->drop_sim(faults, all_dropped), 0u) << backend->name();
    EXPECT_EQ(all_dropped, std::vector<bool>(faults.size(), true))
        << backend->name();
  }
}

TEST(FaultBackend, PatternSwapKeepsStaticAnalyses) {
  // PO reachability is computed once and cached across pattern swaps; each
  // swap advances the pattern epoch and re-runs the good machine.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  const NodeId o = nl.add_gate(GateType::Buf, "o", {a});
  nl.mark_output(o);
  for (const FaultSimMode mode : {FaultSimMode::Event, FaultSimMode::Packed}) {
    const auto backend = make_fault_sim_backend(nl, mode);
    backend->set_patterns(exhaustive_patterns(1));
    EXPECT_FALSE(backend->context().po_reachable(g)) << backend->name();
    EXPECT_FALSE(test::detected(*backend, Fault{g, StuckAt::Zero}))
        << backend->name();

    backend->set_patterns(exhaustive_patterns(1));
    EXPECT_GT(backend->context().pattern_epoch(), 1u) << backend->name();
    EXPECT_FALSE(backend->context().po_reachable(g)) << backend->name();
    EXPECT_TRUE(test::detected(*backend, Fault{o, StuckAt::Zero}))
        << backend->name();
  }
}

TEST(FaultBackend, DropSimRejectsMismatchedFlags) {
  // drop_sim reads and sets detected[i] for every fault: a flag vector of
  // another length is refused, naming both sizes, before any flag is read.
  const Netlist nl = gen_c17();
  const std::vector<Fault> faults = fault_universe(nl);
  for (const FaultSimMode mode :
       {FaultSimMode::Event, FaultSimMode::Packed, FaultSimMode::Auto}) {
    const auto backend = make_fault_sim_backend(nl, mode);
    backend->set_patterns(exhaustive_patterns(nl.inputs().size()));
    for (const std::size_t n : {faults.size() / 2, faults.size() + 1}) {
      std::vector<bool> flags(n, false);
      try {
        backend->drop_sim(faults, flags);
        ADD_FAILURE() << backend->name() << ": no throw for " << n
                      << " flags";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("has " + std::to_string(n) + " flags"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("for " + std::to_string(faults.size()) + " faults"),
                  std::string::npos)
            << msg;
      }
      EXPECT_EQ(flags, std::vector<bool>(n, false)) << backend->name();
    }
  }
}

TEST(FaultBackend, WidePatternSetMatchesReference) {
  // A pattern set wider than one stripe: the good machine comes out of a
  // stripe-major run and is gathered into slot rows. Both engines' detection
  // matrices must still equal independent reference fault injection.
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
  std::vector<std::vector<std::uint64_t>> want;
  std::size_t detected = 0;
  for (const Fault& f : faults) {
    want.push_back(test::reference_detection_bits(nl, ps, f));
    for (const std::uint64_t w : want.back()) {
      if (w) { ++detected; break; }
    }
  }
  EXPECT_GT(detected, 0u);
  const auto ctx = std::make_shared<FaultSimContext>(nl);
  ctx->set_patterns(ps);
  for (const FaultSimMode mode : {FaultSimMode::Event, FaultSimMode::Packed}) {
    const auto backend = make_fault_sim_backend(ctx, mode);
    const auto matrix = backend->detection_matrix(faults);
    ASSERT_EQ(matrix.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(matrix[i], want[i]) << backend->name() << " fault " << i;
    }
  }
}

TEST(TestGen, AtpgBitIdenticalAcrossBackends) {
  // The full ATPG flow (bootstrap grading, compaction, PODEM dropping) must
  // produce the same pattern set, golden responses and coverage counters no
  // matter which fault-simulation backend set_fault_sim_mode selects, and
  // its golden responses must be what the reference evaluator computes.
  const Netlist nl = make_benchmark("c880");
  TestGenOptions opt;
  opt.random_patterns = 64;
  opt.max_patterns = 64;

  const DefenderTestSet base = [&] {
    const test::FaultModeGuard event(static_cast<int>(FaultSimMode::Event));
    return generate_atpg_tests(nl, opt);
  }();
  EXPECT_TRUE(BitSimulator::responses_equal(
      base.golden, reference_outputs(nl, base.patterns)));
  for (const FaultSimMode mode : {FaultSimMode::Packed, FaultSimMode::Auto}) {
    const test::FaultModeGuard guard(static_cast<int>(mode));
    const DefenderTestSet ts = generate_atpg_tests(nl, opt);
    const std::string label = "mode=" + std::string(to_string(mode));
    EXPECT_EQ(ts.patterns.num_patterns(), base.patterns.num_patterns())
        << label;
    EXPECT_TRUE(BitSimulator::responses_equal(ts.patterns, base.patterns))
        << label;
    EXPECT_TRUE(BitSimulator::responses_equal(ts.golden, base.golden))
        << label;
    EXPECT_EQ(ts.coverage.detected, base.coverage.detected) << label;
    EXPECT_EQ(ts.untestable, base.untestable) << label;
    EXPECT_EQ(ts.aborted, base.aborted) << label;
  }
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
  const auto engine = make_fault_sim_backend(nl, FaultSimMode::Event);
  engine->set_patterns(exhaustive_patterns(1));
  EXPECT_FALSE(engine->context().po_reachable(g));
  EXPECT_FALSE(test::detected(*engine, Fault{g, StuckAt::Zero}));
}

}  // namespace
}  // namespace tz
