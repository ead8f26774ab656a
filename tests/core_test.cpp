// Tests for Algorithm 1 (salvage), Algorithm 2 (insertion), the HT library
// and trigger-probability analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/insertion.hpp"
#include "core/ht_library.hpp"
#include "core/salvage.hpp"
#include "core/trigger_prob.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "prob/signal_prob.hpp"
#include "sat/equivalence.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace tz {
namespace {

using test::add_inputs;
using test::payload_testbed;

PowerModel model() { return PowerModel(CellLibrary::tsmc65_like()); }

TestGenOptions FlowOptions_test_defaults() {
  return FlowOptions::atpg_only_defender();
}

TEST(Salvage, RemovesRedundantGatesOnC432) {
  const Netlist nl = make_benchmark("c432");
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions_test_defaults());
  const PowerModel pm = model();
  SalvageOptions opt;
  opt.pth = spec_for("c432").pth;
  const SalvageResult r = salvage_power_area(nl, suite, pm, opt);
  EXPECT_GT(r.candidates, 0u);
  EXPECT_GT(r.expendable_gates, 0u);
  EXPECT_GT(r.delta_power_uw(), 0.0);
  EXPECT_GT(r.delta_area_ge(), 0.0);
  // N' still passes every defender algorithm.
  EXPECT_TRUE(functional_test(r.modified, suite));
  r.modified.check();
}

TEST(Salvage, InterfacePreserved) {
  const Netlist nl = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions_test_defaults());
  const SalvageResult r = salvage_power_area(nl, suite, model(),
                                             {.pth = 0.992});
  EXPECT_EQ(r.modified.inputs().size(), nl.inputs().size());
  EXPECT_EQ(r.modified.outputs().size(), nl.outputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    EXPECT_EQ(r.modified.node(r.modified.inputs()[i]).name,
              nl.node(nl.inputs()[i]).name);
  }
}

TEST(Salvage, StrongDefenderBlocksEverythingTestable) {
  // With an exhaustive-coverage defender only *redundant* gates survive
  // Algorithm 1 — the soundness boundary the paper leaves implicit.
  const Netlist nl = make_benchmark("c880");
  TestGenOptions tg;
  tg.coverage_target = 1.0;
  tg.max_patterns = 100000;
  tg.random_patterns = 512;
  tg.with_random_validation = true;
  tg.validation_patterns = 512;
  const DefenderSuite strong = make_defender_suite(nl, tg);
  const SalvageResult r =
      salvage_power_area(nl, strong, model(), {.pth = 0.992});
  // Every accepted removal under a full-coverage defender must be a
  // functional no-op (redundant logic).
  if (!r.accepted.empty()) {
    const auto eq = sat::check_equivalence(nl, r.modified);
    EXPECT_TRUE(eq.equivalent);
  }
}

TEST(Salvage, LeakageOrderAblationRuns) {
  const Netlist nl = make_benchmark("c432");
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions_test_defaults());
  SalvageOptions opt;
  opt.pth = 0.975;
  opt.order = SalvageOptions::Order::ByLeakage;
  const SalvageResult r = salvage_power_area(nl, suite, model(), opt);
  EXPECT_TRUE(functional_test(r.modified, suite));
}

TEST(HtLibrary, DefaultLibraryShapes) {
  const auto lib = default_ht_library();
  ASSERT_GE(lib.size(), 4u);
  EXPECT_EQ(lib.front().counter_bits, 0);  // comparator first (smallest)
  EXPECT_EQ(counter_trojan(3).counter_bits, 3);
  EXPECT_EQ(counter_trojan(0).name, "cmp-trigger");
}

TEST(BuildTrojan, CounterStructure) {
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist nl = payload_testbed(&victim, &rare);
  const std::size_t gates_before = nl.gate_count();
  const InsertedHT ht = build_trojan(nl, counter_trojan(3, 2), rare, victim);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_GT(nl.gate_count(), gates_before);
  EXPECT_NE(ht.payload_mux, kNoNode);
  EXPECT_NE(ht.fire, kNoNode);
  nl.check();
}

TEST(BuildTrojan, PayloadFlipsVictimWhenCounterSaturates) {
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist nl = payload_testbed(&victim, &rare);
  build_trojan(nl, counter_trojan(2, 2), rare, victim);
  CycleSimulator cs(nl);
  // Trigger = AND(r0, r1) = i0..i3 all 1. Output o = v XOR i6 with
  // v = i4 XOR i5. Drive i4=1 so clean o = 1.
  std::vector<bool> quiet(8, false);
  quiet[4] = true;
  std::vector<bool> trig(8, true);
  trig[4] = true;
  trig[5] = false;
  trig[6] = false;
  EXPECT_TRUE(cs.step(quiet)[0]);   // clean behaviour
  cs.step(trig);                    // counter 0 -> 1
  cs.step(trig);                    // counter 1 -> 2
  cs.step(trig);                    // counter 2 -> 3
  // Counter is at 3 (saturated) now: payload inverts v.
  EXPECT_FALSE(cs.step(quiet)[0]);  // corrupted output
}

TEST(BuildTrojan, DormantTrojanIsInvisibleFunctionally) {
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist clean = payload_testbed(&victim, &rare);
  Netlist infected = clean;
  build_trojan(infected, counter_trojan(3, 2), rare, victim);
  // At reset (counter zero) the infected circuit is I/O-equivalent.
  const auto eq = sat::check_equivalence(clean, infected);
  EXPECT_TRUE(eq.equivalent);
}

TEST(BuildTrojan, CounterActivityBoundedByPft) {
  // SignalProb reads every counter DFF at its reset value, 0. In cycle
  // simulation from reset, nothing in the counter moves until the trigger
  // fires, so over an L-cycle window each counter DFF's per-cycle P1 and
  // toggle rate, and fire's P1, are at most P(the trigger fired in the
  // window) = 1 - (1 - q)^L, the flow row's pft. Each window's figure is
  // at most its own fired indicator, so the mean over windows gets the
  // indicator's 3-sigma binomial margin. The trigger ANDs four PIs: q = 1/16.
  constexpr double q = 1.0 / 16;
  constexpr std::size_t kWindows = 4000;
  std::mt19937_64 rng(7);
  for (int bits = 2; bits <= 5; ++bits) {
    SCOPED_TRACE(bits);
    NodeId victim;
    std::vector<NodeId> rare;
    Netlist nl = payload_testbed(&victim, &rare);
    const InsertedHT ht =
        build_trojan(nl, counter_trojan(bits, 2), rare, victim);
    const std::size_t n = nl.dffs().size();
    ASSERT_EQ(n, static_cast<std::size_t>(bits));
    const SignalProb sp(nl);
    ASSERT_EQ(sp.p1(ht.trigger_in), q);
    for (NodeId d : nl.dffs()) ASSERT_EQ(sp.p1(d), 0.0);
    CycleSimulator cs(nl);
    std::vector<bool> in(nl.inputs().size());
    for (const std::size_t len : {std::size_t{1}, std::size_t{4},
                                  std::size_t{10}}) {
      SCOPED_TRACE(len);
      const double pft = analytic_pft(q, len, 0);
      ASSERT_LT(pft, 0.5);
      const double bound =
          pft + 3.0 * std::sqrt(pft * (1.0 - pft) / kWindows);
      std::vector<std::size_t> ones(n, 0), flips(n, 0);
      std::size_t fire_ones = 0;
      for (std::size_t w = 0; w < kWindows; ++w) {
        cs.reset();
        std::vector<bool> prev(n, false);  // reset state
        for (std::size_t t = 0; t < len; ++t) {
          for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
          cs.step(in);
          fire_ones += cs.value_of(ht.fire);
          const std::vector<bool> now = cs.state();
          for (std::size_t i = 0; i < n; ++i) {
            ones[i] += now[i];
            flips[i] += now[i] != prev[i];
          }
          prev = now;
        }
      }
      const double cycles = static_cast<double>(kWindows * len);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LE(ones[i] / cycles, bound) << "P1 of bit " << i;
        EXPECT_LE(flips[i] / cycles, bound) << "toggles of bit " << i;
      }
      EXPECT_LE(fire_ones / cycles, bound);
      EXPECT_GT(flips[0], 0u);  // the counter does count
    }
  }
}

TEST(BuildTrojan, RejectsBadVictims) {
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist nl = payload_testbed(&victim, &rare);
  // Victim = i0 with a *combinational* trigger tapping gates fed by i0:
  // the payload loops through its own trigger and the structural check
  // rejects it. (A counter trigger would be legal — DFFs break the loop.)
  EXPECT_ANY_THROW(build_trojan(nl, counter_trojan(0, 2), rare, nl.inputs()[0]));
  EXPECT_THROW(build_trojan(nl, counter_trojan(2, 5), rare, victim),
               std::invalid_argument);  // pool too small
}

TEST(BuildTrojan, LocalLoopCheckAgreesWithFullCheck) {
  // build_trojan rejects a loop by walking the payload's fanout cone; the
  // verdict must equal a whole-netlist Netlist::check() of the built HT.
  // Half the trigger taps are drawn from the victim's own fanout cone so
  // combinational triggers close real loops.
  for (const char* name : {"c880", "rand1k"}) {
    const Netlist base = make_benchmark(name);
    const std::vector<NodeId> locations = payload_locations(base, 64);
    std::vector<NodeId> gates;
    for (NodeId id : base.live_nodes()) {
      const GateType t = base.node(id).type;
      if (is_combinational(t) && !is_const(t)) gates.push_back(id);
    }
    std::mt19937_64 rng(17);
    int loops = 0, clean = 0;
    for (int trial = 0; trial < 120; ++trial) {
      const NodeId victim = locations[rng() % locations.size()];
      const int bits = trial % 3;  // 0 = combinational trigger
      const int width = 1 + static_cast<int>(rng() % 3);
      const std::vector<char> down = downstream_mask(base, victim);
      std::vector<NodeId> downstream;
      for (NodeId id : gates) {
        if (down[id] && id != victim) downstream.push_back(id);
      }
      std::vector<NodeId> taps;
      for (int k = 0; k < width; ++k) {
        const bool inside = !downstream.empty() && (rng() & 1) != 0;
        taps.push_back(inside ? downstream[rng() % downstream.size()]
                              : gates[rng() % gates.size()]);
      }
      Netlist nl = base;
      bool rejected = false;
      try {
        build_trojan(nl, counter_trojan(bits, width), taps, victim);
      } catch (const std::runtime_error&) {
        rejected = true;
      }
      bool cyclic = false;
      try {
        nl.check();
      } catch (const std::runtime_error&) {
        cyclic = true;
      }
      EXPECT_EQ(rejected, cyclic) << name << " trial " << trial;
      if (bits > 0) {
        EXPECT_FALSE(rejected) << name << " trial " << trial;
      }
      ++(rejected ? loops : clean);
    }
    EXPECT_GT(loops, 0) << name;
    EXPECT_GT(clean, 0) << name;
  }
}

TEST(AddDummyGate, UnconnectedOutput) {
  Netlist nl = make_benchmark("c17");
  const std::size_t before = nl.gate_count();
  const NodeId d = add_dummy_gate(nl, nl.inputs()[0], GateType::Xor, "dmy");
  EXPECT_EQ(nl.gate_count(), before + 1);
  EXPECT_TRUE(nl.node(d).fanout.empty());
  nl.check();
}

TEST(Insertion, EndToEndOnC880) {
  const Netlist nl = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions_test_defaults());
  const PowerModel pm = model();
  const SalvageResult sal =
      salvage_power_area(nl, suite, pm, {.pth = 0.992});
  InsertionOptions opt;
  opt.library = {counter_trojan(3), counter_trojan(2)};
  const InsertionResult ins = insert_trojan(nl, sal, suite, pm, opt);
  ASSERT_TRUE(ins.success);
  // The infected circuit passes the defender suite...
  EXPECT_TRUE(functional_test(ins.infected, suite));
  // ...and honours the power/area caps of the HT-free circuit.
  EXPECT_LE(ins.power.total_uw(), ins.threshold.total_uw() + 1e-9);
  EXPECT_LE(ins.power.area_ge, ins.threshold.area_ge + 1e-9);
  // But it is NOT the original circuit: SAT finds no reset-state difference
  // (counter at zero), which is exactly why power-based detection is the
  // paper's last line of defence.
  ins.infected.check();
}

TEST(Insertion, TriggerProbabilityIsRare) {
  const Netlist nl = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions_test_defaults());
  const PowerModel pm = model();
  const SalvageResult sal =
      salvage_power_area(nl, suite, pm, {.pth = 0.992});
  InsertionOptions opt;
  opt.library = {counter_trojan(3)};
  const InsertionResult ins = insert_trojan(nl, sal, suite, pm, opt);
  ASSERT_TRUE(ins.success);
  EXPECT_GT(ins.trigger_p1, 0.0);
  EXPECT_LT(ins.trigger_p1, 1e-3);  // paper: < 1e-4 class rarity
}

TEST(PayloadLocations, DeepNetsFirstAndValid) {
  const Netlist nl = make_benchmark("c499");
  const auto locs = payload_locations(nl, 6);
  ASSERT_FALSE(locs.empty());
  const auto depth = nl.depths();
  for (std::size_t i = 1; i < locs.size(); ++i) {
    EXPECT_GE(depth[locs[i - 1]], depth[locs[i]]);
  }
  for (NodeId v : locs) {
    EXPECT_FALSE(nl.node(v).fanout.empty());
    EXPECT_FALSE(nl.is_output(v));
  }
}

TEST(TriggerPool, ExcludesVictimFanout) {
  const Netlist nl = make_benchmark("c499");
  const SignalProb sp(nl);
  const auto locs = payload_locations(nl, 1);
  ASSERT_FALSE(locs.empty());
  const auto pool = trigger_pool(nl, rare_net_list(nl, sp, 0.05), locs[0]);
  // No pool member may be reachable from the victim.
  std::vector<char> down(nl.raw_size(), 0);
  std::vector<NodeId> stack{locs[0]};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (down[id]) continue;
    down[id] = 1;
    for (NodeId r : nl.node(id).fanout) stack.push_back(r);
  }
  for (NodeId p : pool) EXPECT_FALSE(down[p]);
}

TEST(AnalyticPft, ClosedFormEdgeCases) {
  EXPECT_DOUBLE_EQ(analytic_pft(0.0, 100, 3), 0.0);
  EXPECT_DOUBLE_EQ(analytic_pft(1.0, 100, 3), 1.0);
  EXPECT_DOUBLE_EQ(analytic_pft(0.5, 2, 3), 0.0);  // needs 7 hits, only 2 cycles
  // Combinational trigger: 1 - (1-q)^L.
  EXPECT_NEAR(analytic_pft(0.01, 100, 0), 1 - std::pow(0.99, 100), 1e-12);
  // Monotone in q and L.
  EXPECT_LT(analytic_pft(1e-4, 100, 2), analytic_pft(1e-3, 100, 2));
  EXPECT_LT(analytic_pft(1e-3, 100, 2), analytic_pft(1e-3, 1000, 2));
  // Larger counters are strictly harder to fill.
  EXPECT_GT(analytic_pft(0.05, 200, 2), analytic_pft(0.05, 200, 4));
}

TEST(AnalyticPft, WideCountersAreWellDefined) {
  // `(1 << counter_bits) - 1` in int was UB from 31 bits up; the saturation
  // count is now computed in 64 bits, so any wide counter simply needs more
  // hits than the test stream has cycles.
  EXPECT_DOUBLE_EQ(analytic_pft(0.5, 1000, 31), 0.0);
  EXPECT_DOUBLE_EQ(analytic_pft(0.5, 1000, 32), 0.0);
  EXPECT_DOUBLE_EQ(analytic_pft(0.5, 1000, 63), 0.0);
  // Out-of-range counter widths fail loudly instead of shifting into UB.
  EXPECT_THROW(analytic_pft(0.5, 1000, -1), std::invalid_argument);
  EXPECT_THROW(analytic_pft(0.5, 1000, 64), std::invalid_argument);
}

TEST(AnalyticPft, MatchesMonteCarloOnTestbed) {
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist nl = payload_testbed(&victim, &rare);
  const InsertedHT ht = build_trojan(nl, counter_trojan(2, 2), rare, victim);
  // Trigger fires when i0..i3 all 1: q = 1/16 per random cycle.
  const double analytic = analytic_pft(1.0 / 16.0, 64, 2);
  const double mc = monte_carlo_pft(nl, ht.fire, 64, 600, 11);
  EXPECT_NEAR(mc, analytic, 0.08);
}

TEST(UntargetedProbability, ExactAndSampledAgree) {
  // Modified circuit that differs on exactly one input combination.
  Netlist a;
  {
    const std::vector<NodeId> ins = add_inputs(a, 6);
    const NodeId wide = a.add_gate(GateType::And, "wide", ins);
    const NodeId o = a.add_gate(GateType::Or, "o", {wide, ins[0]});
    a.mark_output(o);
  }
  Netlist b;
  {
    const std::vector<NodeId> ins = add_inputs(b, 6);
    const NodeId o = b.add_gate(GateType::Buf, "o", {ins[0]});
    b.mark_output(o);
  }
  // a differs from b only on the all-ones vector... which is absorbed:
  // wide=1 implies ins[0]=1 so OR is identical. Pu = 0.
  EXPECT_DOUBLE_EQ(exact_untargeted_probability(a, b), 0.0);
  // Now make a real difference: wide excludes i1, so OR(wide, i1) deviates
  // from BUF(i1) exactly when i0,i2..i5 = 1 and i1 = 0 (one minterm).
  Netlist c;
  {
    const std::vector<NodeId> ins = add_inputs(c, 6);
    const std::vector<NodeId> others{ins[0], ins[2], ins[3], ins[4], ins[5]};
    const NodeId wide = c.add_gate(GateType::And, "wide", others);
    const NodeId o = c.add_gate(GateType::Or, "o", {wide, ins[1]});
    c.mark_output(o);
  }
  Netlist d;
  {
    const std::vector<NodeId> ins = add_inputs(d, 6);
    const NodeId o = d.add_gate(GateType::Buf, "o", {ins[1]});
    d.mark_output(o);
  }
  // Differs exactly when wide=1 and i1=0: one minterm of 64 -> Pu = 1/64.
  EXPECT_NEAR(exact_untargeted_probability(c, d), 1.0 / 64.0, 1e-12);
  const double sampled = sampled_untargeted_probability(c, d, 1 << 14, 5);
  EXPECT_NEAR(sampled, 1.0 / 64.0, 0.01);
}

TEST(TriggerProb, ZeroTrialsThrowsInsteadOfNaN) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, "g", {a});
  nl.mark_output(g);
  EXPECT_THROW(monte_carlo_pft(nl, g, 16, /*trials=*/0, 1),
               std::invalid_argument);
}

TEST(TriggerProb, ZeroSamplesThrowsInsteadOfNaN) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, "g", {a});
  nl.mark_output(g);
  EXPECT_THROW(sampled_untargeted_probability(nl, nl, /*samples=*/0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace tz
