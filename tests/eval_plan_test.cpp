// Tests for the compiled evaluation plan (sim/eval_plan.hpp): structural
// compile invariants, randomized bit-parity of the plan kernels against the
// Node-walking reference_simulate across the full gate alphabet and arity
// range, the event fault-sim engine against reference fault injection, and
// the incremental plan patch applied by SuiteOracle::try_tie after
// committed ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim_backend.hpp"
#include "atpg/test_set.hpp"
#include "core/flow_engine.hpp"
#include "core/ht_library.hpp"
#include "core/insertion.hpp"
#include "core/report.hpp"
#include "core/salvage.hpp"
#include "gen/iscas.hpp"
#include "netlist/rewrite.hpp"
#include "prob/signal_prob.hpp"
#include "sim/eval_plan.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace tz {
namespace {

TEST(EvalPlan, CompileInvariants) {
  const Netlist nl = test::random_full_alphabet(3, 80);
  const EvalPlan plan(nl);
  ASSERT_EQ(plan.num_slots(), nl.live_count());
  for (SlotId s = 0; s < plan.num_slots(); ++s) {
    const NodeId id = plan.node_of(s);
    ASSERT_TRUE(nl.is_alive(id));
    EXPECT_EQ(plan.slot_of(id), s);
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) {
      EXPECT_EQ(plan.op(s), EvalOp::Source);
      EXPECT_TRUE(plan.fanins(s).empty());
      continue;
    }
    // Fanin CSR preserves order and respects topological slot numbering.
    const auto fanins = plan.fanins(s);
    ASSERT_EQ(fanins.size(), n.fanin.size());
    for (std::size_t k = 0; k < fanins.size(); ++k) {
      EXPECT_EQ(fanins[k], plan.slot_of(n.fanin[k]));
      EXPECT_LT(fanins[k], s);  // slot order is the topo order
    }
    // Fanout CSR is the transpose of the fanin CSR.
    for (SlotId f : fanins) {
      const auto fo = plan.fanout(f);
      EXPECT_NE(std::find(fo.begin(), fo.end(), s), fo.end());
    }
  }
  // Arity-2 specialization picked for every 2-input gate.
  for (SlotId s = 0; s < plan.num_slots(); ++s) {
    const Node& n = nl.node(plan.node_of(s));
    if (n.type == GateType::And) {
      EXPECT_EQ(plan.op(s),
                n.fanin.size() == 2 ? EvalOp::And2 : EvalOp::AndN);
    }
  }
}

TEST(EvalPlan, RandomizedParityWithReference) {
  // The compiled walk must be bit-identical to the Node-walking reference
  // evaluator on every node row — including the 1-word register fast path
  // and the tail-mask boundaries at 63/64/65 patterns.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Netlist nl = test::random_full_alphabet(seed, 120);
    for (std::size_t patterns : {1u, 63u, 64u, 65u, 200u}) {
      const PatternSet ps =
          random_patterns(nl.inputs().size(), patterns, seed * 97 + patterns);
      const std::vector<std::uint64_t> ref = reference_simulate(nl, ps);
      const NodeValues plan = BitSimulator(nl).run(ps);
      for (NodeId id = 0; id < nl.raw_size(); ++id) {
        if (!nl.is_alive(id)) continue;
        const std::uint64_t* a = ref.data() + std::size_t{id} * ps.num_words();
        const std::uint64_t* b = plan.row(id);
        for (std::size_t w = 0; w < ps.num_words(); ++w) {
          ASSERT_EQ(a[w], b[w])
              << "seed " << seed << " patterns " << patterns << " node "
              << nl.node(id).name << " word " << w;
        }
      }
    }
  }
}

TEST(EvalPlan, DffStateRowsMatchReference) {
  // DFF outputs are plan sources; both the explicit-state and the
  // reset-to-zero fills must match the reference evaluator bit for bit.
  Netlist nl("seq");
  const NodeId a = nl.add_input("a");
  const NodeId q0 = nl.add_gate(GateType::Dff, "q0", {a});
  const NodeId x = nl.add_gate(GateType::Xor, "x", {a, q0});
  const NodeId q1 = nl.add_gate(GateType::Dff, "q1", {x});
  const NodeId o = nl.add_gate(GateType::Nand, "o", {x, q1});
  nl.mark_output(o);
  const PatternSet ps = random_patterns(1, 130, 9);
  const std::vector<std::uint64_t> state = {~std::uint64_t{0}, 0};
  for (const std::vector<std::uint64_t>* st :
       {static_cast<const std::vector<std::uint64_t>*>(nullptr), &state}) {
    const std::vector<std::uint64_t> ref = reference_simulate(nl, ps, st);
    const NodeValues plan = BitSimulator(nl).run(ps, st);
    for (NodeId id : {a, q0, x, q1, o}) {
      for (std::size_t w = 0; w < ps.num_words(); ++w) {
        ASSERT_EQ(ref[std::size_t{id} * ps.num_words() + w], plan.row(id)[w]);
      }
    }
  }
}

TEST(EvalPlan, FaultSimEngineMatchesReference) {
  // The engines' walks over plan slots against reference fault injection:
  // every collapsed fault's first detecting pattern (and so its flag) must
  // equal the lowest set bit of the reference evaluator's response diff.
  const Netlist nl = make_benchmark("c880");
  const auto faults = collapse_faults(nl, fault_universe(nl));
  for (std::size_t patterns : {63u, 64u, 65u, 128u}) {
    const PatternSet ps = random_patterns(nl.inputs().size(), patterns, 5);
    const auto by_mode = test::first_detects_by_mode(nl, faults, ps);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::size_t want = test::reference_first_detect(nl, ps, faults[i]);
      for (const auto& first : by_mode) {
        ASSERT_EQ(first[i], want)
            << patterns << " patterns, " << to_string(nl, faults[i]);
      }
    }
  }
}

TEST(EvalPlan, PlanPatchAfterCommitMatchesRecompile) {
  // Committing ties patches the plan in place (tie cell appended as a
  // source, reader fanin CSR rewritten, swept cone tombstoned). After every
  // commit the patched oracle must judge exactly like a from-scratch oracle
  // compiled on the mutated netlist — and like the reference functional
  // test.
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(original, FlowOptions::atpg_only_defender());
  Netlist work = original.compact();
  const SignalProb sp(work);
  const auto cands = find_candidates(work, sp, 0.992);
  ASSERT_GE(cands.size(), 5u);
  SuiteOracle oracle(work, suite);
  std::size_t committed = 0;
  for (const Candidate& c : cands) {
    if (!work.is_alive(c.node)) continue;
    const std::string name = work.node(c.node).name;
    const bool recompiled_visible =
        SuiteOracle(work, suite).tie_visible(c.node, c.tie_value);
    Netlist reference = work;
    tie_to_constant(reference, c.node, c.tie_value);
    const bool reference_visible =
        !test::reference_functional_test(reference, suite);
    const bool visible = !oracle.try_tie(work, c.node, c.tie_value);
    EXPECT_EQ(recompiled_visible, visible)
        << "patched plan diverged from recompile at " << name;
    EXPECT_EQ(visible, reference_visible) << name;
    if (!visible) ++committed;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_TRUE(test::reference_functional_test(work, suite));
  // HT judging on the patched plan agrees with a recompile too.
  const std::vector<NodeId> rare =
      rare_net_list(work, SignalProb(work), 0.05);
  SuiteOracle recompiled(work, suite);
  int checked = 0;
  for (NodeId victim : payload_locations(work, 6)) {
    const auto pool = trigger_pool(work, rare, victim);
    if (pool.size() < 2) continue;
    const std::span<const NodeId> trig(pool.data(), 2);
    EXPECT_EQ(oracle.ht_visible(trig, 3, victim),
              recompiled.ht_visible(trig, 3, victim));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(EvalPlan, ToggleAndProbabilityOverloadsReuseRuns) {
  const Netlist nl = make_benchmark("c432");
  const PatternSet ps = random_patterns(nl.inputs().size(), 130, 21);
  // One simulator + one run feeding both reductions must equal the
  // construct-and-rerun convenience forms.
  BitSimulator sim(nl);
  const NodeValues vals = sim.run(ps);
  EXPECT_EQ(count_toggles(nl, vals, ps.num_patterns()), count_toggles(nl, ps));
  EXPECT_EQ(simulated_one_probability(nl, vals, ps.num_patterns()),
            simulated_one_probability(nl, ps));
}

TEST(StripeLayout, StripedRunMatchesReference) {
  // A netlist large enough that block_words splits the row width, so the
  // run goes stripe-major. Every accessor the engines use (bit, segment,
  // copy_row) must read the values reference_simulate computes, tail lanes
  // masked; row() must refuse to hand out a pointer into a split row.
  const Netlist nl = test::random_full_alphabet(11, 2000);
  BitSimulator sim(nl);
  const std::size_t words = sim.plan()->block_words(1u << 20) * 2 + 3;
  const PatternSet ps =
      random_patterns(nl.inputs().size(), 64 * words - 17, 0x57717E);
  const NodeValues striped = sim.run(ps);
  ASSERT_TRUE(striped.striped());
  EXPECT_EQ(striped.stripe_words(), sim.plan()->block_words(ps.num_words()));
  EXPECT_THROW(striped.row(nl.outputs()[0]), std::logic_error);
  const std::vector<std::uint64_t> ref = reference_simulate(nl, ps);
  const auto masked = [&](std::size_t w, std::uint64_t v) {
    return w + 1 == ps.num_words() ? v & ps.tail_mask() : v;
  };
  std::vector<std::uint64_t> gathered(ps.num_words());
  for (NodeId id : nl.live_nodes()) {
    const std::uint64_t* want = ref.data() + std::size_t{id} * ps.num_words();
    striped.copy_row(id, gathered.data());
    for (std::size_t w = 0; w < ps.num_words(); ++w) {
      ASSERT_EQ(masked(w, gathered[w]), masked(w, want[w]))
          << nl.node(id).name << " word " << w;
    }
    // segment() walk covers the row exactly once.
    std::size_t covered = 0;
    for (std::size_t w = 0; w < ps.num_words();) {
      const auto seg = striped.segment(id, w);
      ASSERT_GT(seg.size(), 0u);
      for (std::size_t k = 0; k < seg.size(); ++k) {
        ASSERT_EQ(masked(w + k, seg[k]), masked(w + k, want[w + k]));
      }
      covered += seg.size();
      w += seg.size();
    }
    ASSERT_EQ(covered, ps.num_words());
  }
  // bit() spot checks across stripe boundaries.
  for (std::size_t p : {std::size_t{0}, 64 * striped.stripe_words() - 1,
                        64 * striped.stripe_words(), ps.num_patterns() - 1}) {
    for (NodeId po : nl.outputs()) {
      const std::uint64_t word = ref[std::size_t{po} * ps.num_words() + p / 64];
      ASSERT_EQ(striped.bit(po, p), ((word >> (p % 64)) & 1) != 0) << p;
    }
  }
}

TEST(StripeLayout, GenericKernelMatchesDispatched) {
  // Re-evaluating a striped matrix in place with the portable 4x64 kernel
  // must reproduce what the dispatched kernel (AVX2 where available) wrote:
  // the evaluation only reads source rows, so running it twice is idempotent
  // and any SIMD-vs-scalar divergence shows as a diff.
  const Netlist nl = test::random_full_alphabet(23, 1500);
  BitSimulator sim(nl);
  const EvalPlan& plan = *sim.plan();
  const std::size_t words = plan.block_words(1u << 20) * 2 + 9;
  const PatternSet ps = random_patterns(nl.inputs().size(), 64 * words, 0xD1);
  NodeValues vals = sim.run(ps);
  ASSERT_TRUE(vals.striped());
  const std::size_t total = plan.num_slots() * words;
  const std::vector<std::uint64_t> dispatched(vals.data(),
                                              vals.data() + total);
  const std::size_t bw = plan.block_words(words);
  for (std::size_t w0 = 0; w0 < words; w0 += bw) {
    detail::eval_plan_stripe_generic(
        plan, vals.data() + plan.num_slots() * w0, std::min(bw, words - w0), 0,
        static_cast<std::uint32_t>(plan.num_slots()));
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(vals.data()[i], dispatched[i]) << "flat index " << i;
  }
}

TEST(StripeLayout, RunIntoReusesStorageAndMatchesRun) {
  const Netlist nl = make_benchmark("c3540");
  BitSimulator sim(nl);
  const PatternSet a = random_patterns(nl.inputs().size(), 640, 1);
  const PatternSet b = random_patterns(nl.inputs().size(), 640, 2);
  NodeValues vals;
  sim.run_into(vals, a);
  const std::uint64_t* storage = vals.data();
  const NodeValues fresh_b = sim.run(b);
  sim.run_into(vals, b);
  EXPECT_EQ(vals.data(), storage);  // same-shape rerun reuses the buffer
  for (NodeId po : nl.outputs()) {
    for (std::size_t w = 0; w < b.num_words(); ++w) {
      ASSERT_EQ(vals.row(po)[w], fresh_b.row(po)[w]);
    }
  }
  // Shape changes reallocate instead of reinterpreting the old buffer.
  const PatternSet wide = random_patterns(nl.inputs().size(), 1280, 3);
  sim.run_into(vals, wide);
  EXPECT_EQ(vals.num_words(), wide.num_words());
  const NodeValues fresh_wide = sim.run(wide);
  for (NodeId po : nl.outputs()) {
    ASSERT_EQ(vals.row(po)[wide.num_words() - 1],
              fresh_wide.row(po)[wide.num_words() - 1]);
  }
}

TEST(StripeLayout, RunIntoReseedsDffRows) {
  // A reused matrix must not leak the previous run's DFF state into a
  // reset-state run: the no-state DFF fill is explicit, never left to a
  // fresh matrix being zeroed.
  Netlist nl("seq");
  const NodeId in = nl.add_input("in");
  const NodeId q = nl.add_gate(GateType::Dff, "q", {in});
  const NodeId o = nl.add_gate(GateType::Or, "o", {in, q});
  nl.mark_output(o);
  BitSimulator sim(nl);
  PatternSet ps(1, 64);  // all-zero inputs: output == DFF state
  const std::vector<std::uint64_t> ones = {~std::uint64_t{0}};
  NodeValues vals;
  sim.run_into(vals, ps, &ones);
  ASSERT_EQ(vals.row(o)[0], ~std::uint64_t{0});
  sim.run_into(vals, ps);  // reset state: must read 0, not stale ones
  EXPECT_EQ(vals.row(o)[0], 0u);
}

TEST(EvalPlan, CycleSimulatorStepScratchKeepsSemantics) {
  // step() now returns a reference into member scratch; consecutive calls
  // must keep producing the per-cycle outputs (regression for the hoisted
  // next_state/out buffers).
  Netlist nl("cnt");
  const NodeId en = nl.add_input("en");
  const NodeId q = nl.add_gate(GateType::Dff, "q", {en});
  const NodeId o = nl.add_gate(GateType::Xor, "o", {en, q});
  nl.mark_output(o);
  CycleSimulator cs(nl);
  EXPECT_TRUE(cs.step({true})[0]);    // q=0, en=1
  EXPECT_FALSE(cs.step({true})[0]);   // q=1, en=1
  EXPECT_TRUE(cs.step({false})[0]);   // q=1, en=0
  EXPECT_FALSE(cs.step({false})[0]);  // q=0, en=0
  EXPECT_EQ(cs.cycles(), 4u);
}

}  // namespace
}  // namespace tz
