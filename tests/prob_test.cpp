// Tests for the signal-probability engine.
#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "atpg/test_set.hpp"
#include "core/ht_library.hpp"
#include "core/insertion.hpp"
#include "core/report.hpp"
#include "core/salvage.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "prob/signal_prob.hpp"
#include "tech/power_model.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace tz {
namespace {

using test::add_inputs;

TEST(SignalProb, InputsDefaultToHalf) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.mark_output(nl.add_gate(GateType::Buf, "b", {a}));
  const SignalProb sp(nl);
  EXPECT_DOUBLE_EQ(sp.p1(a), 0.5);
}

TEST(SignalProb, GateFormulas) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId and3 = nl.add_gate(GateType::And, "and3", {a, b, c});
  const NodeId nor2 = nl.add_gate(GateType::Nor, "nor2", {a, b});
  const NodeId xor3 = nl.add_gate(GateType::Xor, "xor3", {a, b, c});
  const NodeId mux = nl.add_gate(GateType::Mux, "mux", {a, and3, nor2});
  nl.mark_output(xor3);
  nl.mark_output(mux);
  const SignalProb sp(nl);
  EXPECT_NEAR(sp.p1(and3), 0.125, 1e-12);
  EXPECT_NEAR(sp.p1(nor2), 0.25, 1e-12);
  EXPECT_NEAR(sp.p1(xor3), 0.5, 1e-12);
  EXPECT_NEAR(sp.p1(mux), 0.5 * 0.125 + 0.5 * 0.25, 1e-12);
}

TEST(SignalProb, ConstantsArePinned) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c0 = nl.const_node(false);
  const NodeId c1 = nl.const_node(true);
  const NodeId g = nl.add_gate(GateType::Or, "g", {c0, c1});
  nl.mark_output(g);
  const SignalProb sp(nl);
  EXPECT_DOUBLE_EQ(sp.p1(c0), 0.0);
  EXPECT_DOUBLE_EQ(sp.p1(c1), 1.0);
  EXPECT_DOUBLE_EQ(sp.p1(g), 1.0);
}

TEST(SignalProb, ActivityPeaksAtHalf) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId rare = nl.add_gate(GateType::And, "rare", {a, b});
  nl.mark_output(rare);
  const SignalProb sp(nl);
  EXPECT_DOUBLE_EQ(sp.activity(a), 0.5);
  EXPECT_NEAR(sp.activity(rare), 2 * 0.25 * 0.75, 1e-12);
  EXPECT_GT(sp.activity(a), sp.activity(rare));
}

TEST(SignalProb, DffReadsItsResetState) {
  // q' = q XOR 1 toggles every cycle, but a DFF is a source at its reset
  // value: q reads 0 whatever its d-input does, and d reads 1.
  Netlist nl;
  nl.add_input("unused");
  const NodeId one = nl.const_node(true);
  const NodeId q = nl.add_gate(GateType::Dff, "q", {one});
  const NodeId d = nl.add_gate(GateType::Xor, "d", {q, one});
  nl.relink_fanin(q, 0, d);
  nl.mark_output(d);
  const SignalProb sp(nl);
  EXPECT_EQ(sp.p1(q), 0.0);
  EXPECT_EQ(sp.p1(d), 1.0);
  EXPECT_EQ(sp.all_p1(), test::reference_signal_prob(nl));
}

TEST(SignalProb, CounterHtLeavesNPrimeUnchanged) {
  // A counter HT built into N' changes no P1 of N': its DFFs and fire net
  // read 0, so the payload MUX passes the victim's P1 through exactly.
  const PowerModel pm(CellLibrary::tsmc65_like());
  for (const char* name : {"c432", "c880", "c1908"}) {
    SCOPED_TRACE(name);
    const Netlist original = make_benchmark(name);
    const DefenderSuite suite =
        make_defender_suite(original, FlowOptions::atpg_only_defender());
    const Netlist nprime =
        salvage_power_area(original, suite, pm, {.pth = spec_for(name).pth})
            .modified;
    const SignalProb before(nprime);
    const NodeId victim = payload_locations(nprime, 1).at(0);
    const std::vector<NodeId> pool =
        trigger_pool(nprime, rare_net_list(nprime, before, 0.05), victim);
    for (int bits = 2; bits <= 5; ++bits) {
      SCOPED_TRACE(bits);
      Netlist npp = nprime;
      const InsertedHT ht =
          build_trojan(npp, counter_trojan(bits), pool, victim);
      const SignalProb after(npp);
      for (NodeId id : nprime.live_nodes()) {
        ASSERT_EQ(after.p1(id), before.p1(id)) << nprime.node(id).name;
      }
      ASSERT_EQ(npp.dffs().size(), static_cast<std::size_t>(bits));
      for (NodeId q : npp.dffs()) EXPECT_EQ(after.p1(q), 0.0);
      EXPECT_EQ(after.p1(ht.fire), 0.0);
      EXPECT_EQ(after.all_p1(), test::reference_signal_prob(npp));
    }
  }
}

TEST(FindCandidates, ThresholdAndPolarity) {
  Netlist nl;
  const std::vector<NodeId> ins = add_inputs(nl, 8);
  const NodeId rare1 = nl.add_gate(GateType::And, "rare1", ins);   // P1=2^-8
  const NodeId rare0 = nl.add_gate(GateType::Or, "rare0", ins);    // P0=2^-8
  const NodeId mid = nl.add_gate(GateType::Xor, "mid", {ins[0], ins[1]});
  const NodeId sink =
      nl.add_gate(GateType::Xor, "sink", {rare1, rare0, mid});
  nl.mark_output(sink);
  const SignalProb sp(nl);
  const auto cands = find_candidates(nl, sp, 0.99);
  ASSERT_EQ(cands.size(), 2u);
  for (const Candidate& c : cands) {
    if (c.node == rare1) {
      EXPECT_FALSE(c.tie_value);  // ties to 0
    }
    if (c.node == rare0) {
      EXPECT_TRUE(c.tie_value);  // ties to 1
    }
    EXPECT_GE(c.probability, 0.99);
  }
}

TEST(FindCandidates, OutputsExcluded) {
  Netlist nl;
  const std::vector<NodeId> ins = add_inputs(nl, 8);
  const NodeId rare = nl.add_gate(GateType::And, "rare", ins);
  nl.mark_output(rare);
  const SignalProb sp(nl);
  EXPECT_TRUE(find_candidates(nl, sp, 0.99).empty());
}

TEST(FindCandidates, SortedByProbability) {
  const Netlist nl = make_benchmark("c3540");
  const SignalProb sp(nl);
  const auto cands = find_candidates(nl, sp, 0.99);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].probability, cands[i].probability);
  }
}

/// Property: analytic probabilities track Monte-Carlo within sampling noise
/// on shallow random circuits (reconvergent fanout makes the independence
/// model approximate, so the tolerance is loose but bounded).
class ProbVsMonteCarlo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProbVsMonteCarlo, WithinTolerance) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 40;
  spec.num_inputs = 10;
  const Netlist nl = random_circuit(spec);
  const SignalProb sp(nl);
  const auto mc = monte_carlo_p1(nl, 1 << 14, spec.seed);
  double sum = 0.0, worst = 0.0;
  std::size_t n = 0;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const double err = std::abs(sp.p1(id) - mc[id]);
    sum += err;
    worst = std::max(worst, err);
    ++n;
  }
  // Reconvergent fanout can push individual nodes far off (up to ~0.5),
  // but the model must be right on average and never out of range.
  EXPECT_LT(sum / static_cast<double>(n), 0.10);
  EXPECT_LE(worst, 0.5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbVsMonteCarlo,
                         ::testing::Values(3, 7, 12, 19, 42, 64, 91, 107));

TEST(ProbVsMonteCarlo, ExactOnFanoutFreeTrees) {
  // Without reconvergence the independence model is exact.
  Netlist nl;
  const std::vector<NodeId> ins = add_inputs(nl, 8, "x");
  const NodeId a = nl.add_gate(GateType::And, "a", {ins[0], ins[1]});
  const NodeId b = nl.add_gate(GateType::Or, "b", {ins[2], ins[3]});
  const NodeId c = nl.add_gate(GateType::Xor, "c", {ins[4], ins[5]});
  const NodeId d = nl.add_gate(GateType::Nand, "d", {ins[6], ins[7]});
  const NodeId e = nl.add_gate(GateType::Or, "e", {a, b});
  const NodeId f = nl.add_gate(GateType::And, "f", {c, d});
  const NodeId g = nl.add_gate(GateType::Xor, "g", {e, f});
  nl.mark_output(g);
  const SignalProb sp(nl);
  const auto mc = monte_carlo_p1(nl, 1 << 8, 5);  // exhaustive-equivalent
  // Compare against exhaustive simulation instead of sampling.
  const auto exact = simulated_one_probability(nl, exhaustive_patterns(8));
  for (NodeId id : {a, b, c, d, e, f, g}) {
    EXPECT_NEAR(sp.p1(id), exact[id], 1e-12) << nl.node(id).name;
  }
  (void)mc;
}

TEST(Benchmarks, RareNodesExistAtTableIPth) {
  // The mechanism the paper exploits must exist in every benchmark: at its
  // Table I threshold each circuit exposes a non-empty candidate set.
  for (const BenchmarkSpec& spec : iscas85_specs()) {
    const Netlist nl = make_benchmark(spec.name);
    const SignalProb sp(nl);
    EXPECT_FALSE(find_candidates(nl, sp, spec.pth).empty()) << spec.name;
  }
}

}  // namespace
}  // namespace tz
