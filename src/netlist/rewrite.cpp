#include "netlist/rewrite.hpp"

#include <stdexcept>

namespace tz {

TieResult tie_to_constant(Netlist& nl, NodeId target, bool value) {
  if (!nl.is_alive(target)) {
    throw std::runtime_error("tie_to_constant: dead target");
  }
  const Node& t = nl.node(target);
  if (!is_combinational(t.type)) {
    throw std::runtime_error("tie_to_constant: target '" + t.name +
                             "' is not a combinational gate");
  }
  TieResult res;
  // A tied primary output keeps its tie cell as the new driver.
  res.tie = nl.const_node(value);
  nl.rewire_and_remove(target, res.tie);
  // The tombstone keeps its fanin: exactly the nodes the tie may orphan.
  res.gates_removed = 1 + nl.sweep_dead_cone(nl.node(target).fanin);
  return res;
}

namespace {

/// One constant-folding step on `id`. Returns true if the netlist changed.
bool fold_gate(Netlist& nl, NodeId id) {
  if (!nl.is_alive(id)) return false;
  const Node& n = nl.node(id);
  if (!is_combinational(n.type)) return false;

  auto value_of = [&](NodeId f) -> int {
    const GateType t = nl.node(f).type;
    if (t == GateType::Const0) return 0;
    if (t == GateType::Const1) return 1;
    return -1;
  };

  // Gather constant / non-constant fanin split.
  std::vector<NodeId> live_fanin;
  int zeros = 0, ones = 0;
  for (NodeId f : n.fanin) {
    const int v = value_of(f);
    if (v == 0) ++zeros;
    else if (v == 1) ++ones;
    else live_fanin.push_back(f);
  }
  if (zeros == 0 && ones == 0) return false;

  auto tie_away = [&](bool v) {
    nl.rewire_and_remove(id, nl.const_node(v));
    nl.sweep_dead_gates();
  };
  auto forward = [&](NodeId src, bool invert) {
    if (!invert) {
      nl.rewire_and_remove(id, src);
      nl.sweep_dead_gates();
      return;
    }
    const std::string inv_name = nl.unique_name(nl.node(id).name + "_inv");
    const NodeId inv = nl.add_gate(GateType::Not, inv_name, {src});
    nl.rewire_and_remove(id, inv);
    nl.sweep_dead_gates();
  };

  switch (n.type) {
    case GateType::Buf:
      tie_away(ones > 0);
      return true;
    case GateType::Not:
      tie_away(zeros > 0);
      return true;
    case GateType::And:
    case GateType::Nand: {
      const bool is_nand = n.type == GateType::Nand;
      if (zeros > 0) { tie_away(is_nand); return true; }
      // All remaining constants are 1s: drop them.
      if (live_fanin.empty()) { tie_away(!is_nand); return true; }
      if (live_fanin.size() == 1) { forward(live_fanin[0], is_nand); return true; }
      // Rebuild with trimmed fanin.
      const std::string nm = nl.unique_name(n.name + "_f");
      const NodeId g = nl.add_gate(n.type, nm, live_fanin);
      nl.rewire_and_remove(id, g);
      nl.sweep_dead_gates();
      return true;
    }
    case GateType::Or:
    case GateType::Nor: {
      const bool is_nor = n.type == GateType::Nor;
      if (ones > 0) { tie_away(!is_nor); return true; }
      if (live_fanin.empty()) { tie_away(is_nor); return true; }
      if (live_fanin.size() == 1) { forward(live_fanin[0], is_nor); return true; }
      const std::string nm = nl.unique_name(n.name + "_f");
      const NodeId g = nl.add_gate(n.type, nm, live_fanin);
      nl.rewire_and_remove(id, g);
      nl.sweep_dead_gates();
      return true;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool invert = (ones % 2) == 1;
      if (n.type == GateType::Xnor) invert = !invert;
      if (live_fanin.empty()) { tie_away(invert); return true; }
      if (live_fanin.size() == 1) { forward(live_fanin[0], invert); return true; }
      const GateType t = invert ? GateType::Xnor : GateType::Xor;
      const std::string nm = nl.unique_name(n.name + "_f");
      const NodeId g = nl.add_gate(t, nm, live_fanin);
      nl.rewire_and_remove(id, g);
      nl.sweep_dead_gates();
      return true;
    }
    case GateType::Mux: {
      const int sel = value_of(n.fanin[0]);
      if (sel == 0) { forward(n.fanin[1], false); return true; }
      if (sel == 1) { forward(n.fanin[2], false); return true; }
      const int a = value_of(n.fanin[1]);
      const int b = value_of(n.fanin[2]);
      if (a >= 0 && b >= 0 && a == b) { tie_away(a == 1); return true; }
      return false;
    }
    default:
      return false;
  }
}

}  // namespace

std::size_t propagate_constants(Netlist& nl) {
  std::size_t folded = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < nl.raw_size(); ++id) {
      if (fold_gate(nl, id)) {
        ++folded;
        changed = true;
      }
    }
  }
  return folded;
}

}  // namespace tz
