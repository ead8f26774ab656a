// Tests for the rewrite passes (constant tying / folding).
#include <cstdint>
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/rewrite.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {
namespace {

TEST(TieToConstant, RemovesDeadCone) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId inner = nl.add_gate(GateType::And, "inner", {a, b});
  const NodeId mid = nl.add_gate(GateType::Or, "mid", {inner, a});
  const NodeId out = nl.add_gate(GateType::Xor, "out", {mid, b});
  nl.mark_output(out);
  const TieResult r = tie_to_constant(nl, mid, true);
  // mid itself plus inner (now unread) are gone.
  EXPECT_EQ(r.gates_removed, 2u);
  EXPECT_EQ(nl.find("mid"), kNoNode);
  EXPECT_EQ(nl.find("inner"), kNoNode);
  EXPECT_EQ(nl.node(out).fanin[0], r.tie);
  nl.check();
}

TEST(TieToConstant, SharedFaninSurvives) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId shared = nl.add_gate(GateType::Not, "shared", {a});
  const NodeId victim = nl.add_gate(GateType::Buf, "victim", {shared});
  const NodeId keeper = nl.add_gate(GateType::Buf, "keeper", {shared});
  nl.mark_output(victim);
  nl.mark_output(keeper);
  // victim is an output: tying it retargets the output to the tie cell.
  tie_to_constant(nl, victim, false);
  EXPECT_NE(nl.find("shared"), kNoNode);  // still read by keeper
  EXPECT_NE(nl.find("keeper"), kNoNode);
  nl.check();
}

// ---- cone sweep vs full sweep ----------------------------------------------

/// The reference sweep: scan every id in order, removing unread nodes, and
/// repeat until a scan removes nothing. Appends removed ids in order.
void scan_sweep(Netlist& nl, std::vector<NodeId>& removed) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < nl.raw_size(); ++id) {
      if (!nl.is_alive(id) || !nl.node(id).fanout.empty()) continue;
      if (nl.node(id).type == GateType::Input || nl.is_output(id)) continue;
      nl.remove_node(id);
      removed.push_back(id);
      changed = true;
    }
  }
}

/// A tie swept by the reference scan. Returns the removed ids in removal
/// order, target first.
std::vector<NodeId> tie_with_full_sweep(Netlist& nl, NodeId target,
                                        bool value) {
  std::vector<NodeId> removed{target};
  nl.rewire_and_remove(target, nl.const_node(value));
  scan_sweep(nl, removed);
  return removed;
}

/// Id-for-id structure: liveness, names, types, fanin and fanout order, and
/// the output list.
void expect_same_structure(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.raw_size(), b.raw_size());
  for (NodeId id = 0; id < a.raw_size(); ++id) {
    ASSERT_EQ(a.is_alive(id), b.is_alive(id)) << "node " << id;
    if (!a.is_alive(id)) continue;
    EXPECT_EQ(a.node(id).name, b.node(id).name);
    EXPECT_EQ(a.node(id).type, b.node(id).type);
    EXPECT_EQ(a.node(id).fanin, b.node(id).fanin);
    EXPECT_EQ(a.node(id).fanout, b.node(id).fanout);
  }
  EXPECT_EQ(a.outputs(), b.outputs());
}

/// Live cells by name with their fanin names, in id order: equal after a
/// revert even though the reverted netlist keeps tombstones.
std::vector<std::string> live_signature(const Netlist& nl) {
  std::vector<std::string> sig;
  for (NodeId id : nl.live_nodes()) {
    std::string s = std::string(to_string(nl.node(id).type)) + " " +
                    nl.node(id).name + " <-";
    for (NodeId f : nl.node(id).fanin) s += " " + nl.node(f).name;
    sig.push_back(std::move(s));
  }
  for (NodeId o : nl.outputs()) sig.push_back("out " + nl.node(o).name);
  return sig;
}

TEST(TieToConstant, ConeSweepMatchesFullSweepOnTieSequences) {
  for (const char* name : {"rand1k", "wallace8", "aluecc8x2", "c6288"}) {
    Netlist cone = make_benchmark(name);
    Netlist full = cone;
    std::mt19937_64 rng(0x5eedu);
    std::size_t removed_total = 0;
    for (int step = 0; step < 48; ++step) {
      NodeId target = kNoNode;
      while (target == kNoNode) {
        const NodeId id = static_cast<NodeId>(rng() % cone.raw_size());
        const bool gate = cone.is_alive(id) &&
                          is_combinational(cone.node(id).type) &&
                          !is_const(cone.node(id).type);
        if (gate) target = id;
      }
      const bool value = (rng() & 1) != 0;

      // The revert restores the pre-tie netlist cell for cell.
      Netlist probe = cone;
      TieUndo probe_undo;
      tie_to_constant(probe, target, value, &probe_undo);
      undo_tie(probe, probe_undo);
      EXPECT_EQ(live_signature(probe), live_signature(cone))
          << name << " step " << step;

      TieUndo undo;
      const TieResult r = tie_to_constant(cone, target, value, &undo);
      const std::vector<NodeId> want = tie_with_full_sweep(full, target, value);
      ASSERT_EQ(undo.removed, want) << name << " step " << step;
      EXPECT_EQ(r.gates_removed, want.size());
      expect_same_structure(cone, full);
      removed_total += want.size();
    }
    EXPECT_GT(removed_total, 48u) << name << ": no tie freed a cone";
  }
}

TEST(TieToConstant, ConeSweepRemovesOrphanedTieCellAndTiedOutput) {
  // Tie g to 0, then tie the output that reads the new tie0 to 1: the second
  // dead cone reaches tie0 (its last reader goes) and the output moves to
  // tie1.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, "g", {a, b});
  const NodeId h = nl.add_gate(GateType::Not, "h", {g});
  const NodeId o = nl.add_gate(GateType::Or, "o", {h, b});
  const NodeId keep = nl.add_gate(GateType::Xor, "keep", {a, b});
  nl.mark_output(o);
  nl.mark_output(keep);
  const std::vector<std::string> original = live_signature(nl);

  Netlist full = nl;
  TieUndo first, second;
  tie_to_constant(nl, g, false, &first);
  tie_with_full_sweep(full, g, false);
  const NodeId tie0 = first.tie;
  ASSERT_TRUE(nl.is_alive(tie0));
  const TieResult r = tie_to_constant(nl, o, true, &second);
  const std::vector<NodeId> want = tie_with_full_sweep(full, o, true);
  EXPECT_EQ(second.removed, want);
  EXPECT_EQ(r.gates_removed, 3u);  // o, h, tie0
  EXPECT_FALSE(nl.is_alive(tie0));
  EXPECT_EQ(nl.outputs()[0], second.tie);
  expect_same_structure(nl, full);
  nl.check();

  // Reverting both ties, newest first, restores the original netlist.
  undo_tie(nl, second);
  undo_tie(nl, first);
  nl.check();
  EXPECT_EQ(live_signature(nl), original);
}

TEST(SweepDeadGates, MatchesReferenceScanOnRandomUnreadGates) {
  // Relinking fanins leaves unread gates scattered through random netlists;
  // the full sweep must remove what the reference scan removes, in order.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_gates = 120;
    Netlist nl = random_circuit(spec);
    std::mt19937_64 rng(seed);
    for (int k = 0; k < 8; ++k) {
      // Every node reads lower ids, so relinking to one keeps the DAG.
      const NodeId id = static_cast<NodeId>(1 + rng() % (nl.raw_size() - 1));
      if (!is_combinational(nl.node(id).type)) continue;
      nl.relink_fanin(id, 0, static_cast<NodeId>(rng() % id));
    }
    Netlist reference = nl;
    std::vector<NodeId> want, got;
    scan_sweep(reference, want);
    EXPECT_EQ(nl.sweep_dead_gates(&got), want.size());
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_GT(want.size(), 0u) << "seed " << seed;
  }
}

TEST(TieToConstant, RejectsNonGates) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  nl.mark_output(g);
  EXPECT_THROW(tie_to_constant(nl, a, false), std::runtime_error);
}

TEST(PropagateConstants, FoldsBasicIdentities) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId zero = nl.const_node(false);
  const NodeId one = nl.const_node(true);
  const NodeId and0 = nl.add_gate(GateType::And, "and0", {a, zero});
  const NodeId or1 = nl.add_gate(GateType::Or, "or1", {a, one});
  const NodeId xor1 = nl.add_gate(GateType::Xor, "xor1", {a, one});
  const NodeId res = nl.add_gate(GateType::Or, "res", {and0, or1});
  nl.mark_output(res);
  nl.mark_output(xor1);
  propagate_constants(nl);
  // and0 -> 0, or1 -> 1, so res -> 1; xor1 -> NOT a.
  const NodeId res_now = nl.outputs()[0];
  EXPECT_EQ(nl.node(res_now).type, GateType::Const1);
  const NodeId x_now = nl.outputs()[1];
  EXPECT_EQ(nl.node(x_now).type, GateType::Not);
  nl.check();
}

TEST(PropagateConstants, MuxSelectFolds) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId one = nl.const_node(true);
  const NodeId m = nl.add_gate(GateType::Mux, "m", {one, a, b});
  nl.mark_output(m);
  propagate_constants(nl);
  EXPECT_EQ(nl.outputs()[0], b);  // sel=1 selects the second data input
  nl.check();
}

/// Folding never changes functional behaviour.
class FoldEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FoldEquivalence, RandomCircuitWithInjectedConstants) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 80;
  Netlist nl = random_circuit(spec);
  // Inject ties into a few gate fanins to give the folder work.
  const NodeId zero = nl.const_node(false);
  const NodeId one = nl.const_node(true);
  int injected = 0;
  for (NodeId id = 0; id < nl.raw_size() && injected < 6; ++id) {
    if (!nl.is_alive(id) || !is_combinational(nl.node(id).type)) continue;
    if (is_const(nl.node(id).type) || nl.node(id).fanin.size() < 2) continue;
    nl.relink_fanin(id, 0, injected % 2 ? one : zero);
    ++injected;
  }
  nl.sweep_dead_gates();
  const Netlist before = nl.compact();
  propagate_constants(nl);
  nl.check();
  const PatternSet ps = random_patterns(nl.inputs().size(), 256, spec.seed);
  const PatternSet a = BitSimulator(before).outputs(ps);
  const PatternSet b = BitSimulator(nl).outputs(ps);
  EXPECT_TRUE(BitSimulator::responses_equal(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(TieCellCount, CountsLiveTies) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_EQ(tie_cell_count(nl), 0u);
  nl.const_node(false);
  nl.const_node(true);
  EXPECT_EQ(tie_cell_count(nl), 2u);
}

}  // namespace
}  // namespace tz
