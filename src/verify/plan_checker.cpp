// PlanChecker: validates a compiled (and possibly incrementally patched)
// EvalPlan against its source netlist.
//
// The ordering matters: CSR bounds are proven first, and every later sweep
// that walks CSR edges is gated on that proof, so a corrupt offset array is
// reported instead of dereferenced. Patched plans are legal inputs — the
// checks encode exactly the shapes SuiteOracle::resync_structure produces:
//
//  - tie cells appended after compilation are EvalOp::Source slots with no
//    fanin/fanout CSR rows, placed after their readers (so the topo rule is
//    "fanin precedes reader OR fanin is a source");
//  - swept-cone slots are EvalOp::Dead: excluded from the node<->slot
//    bijection and from mutual-consistency sweeps, but their (stale) CSR
//    rows must still be in bounds;
//  - the equivalence diff canonicalises a Source slot of a const-typed node
//    to Const0/Const1, which is what a fresh recompile emits for it.
#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "verify/verify.hpp"

namespace tz {

namespace {

std::string node_label(const Netlist& nl, NodeId id) {
  if (id >= nl.raw_size()) return "<out-of-range>";
  return "'" + nl.node(id).name + "'";
}

bool is_dead_slot(const EvalPlan& p, SlotId s) {
  return p.op(s) == EvalOp::Dead;
}

/// The opcode compile() emits for a gate of this type/arity. Appended tie
/// cells legally carry Source instead of Const0/Const1 (canonicalised in the
/// equivalence diff); callers accept either.
EvalOp expected_op(GateType t, std::size_t arity) {
  switch (t) {
    case GateType::Input:
    case GateType::Dff: return EvalOp::Source;
    case GateType::Const0: return EvalOp::Const0;
    case GateType::Const1: return EvalOp::Const1;
    case GateType::Buf: return EvalOp::Buf;
    case GateType::Not: return EvalOp::Not;
    case GateType::Mux: return EvalOp::Mux;
    case GateType::And: return arity == 2 ? EvalOp::And2 : EvalOp::AndN;
    case GateType::Nand: return arity == 2 ? EvalOp::Nand2 : EvalOp::NandN;
    case GateType::Or: return arity == 2 ? EvalOp::Or2 : EvalOp::OrN;
    case GateType::Nor: return arity == 2 ? EvalOp::Nor2 : EvalOp::NorN;
    case GateType::Xor: return arity == 2 ? EvalOp::Xor2 : EvalOp::XorN;
    case GateType::Xnor: return arity == 2 ? EvalOp::Xnor2 : EvalOp::XnorN;
  }
  return EvalOp::Dead;
}

/// True when the slot is evaluated through its fanin CSR row (everything
/// except sources, constants and tombstones).
bool has_fanin_row(EvalOp op) {
  return op != EvalOp::Source && op != EvalOp::Const0 &&
         op != EvalOp::Const1 && op != EvalOp::Dead;
}

/// Bounds proof for one CSR (offsets monotonic, sized num_slots+1, closing
/// at the slots array size, every edge target a valid slot id). Returns
/// false when the arrays cannot be safely dereferenced.
bool check_csr(std::size_t n, VerifyReport& r, const char* what,
               const std::vector<std::uint32_t>& offset,
               const std::vector<SlotId>& slots) {
  if (offset.size() != n + 1) {
    r.add(CheckId::PlanCsrBounds,
          std::string(what) + " offset array has " +
              std::to_string(offset.size()) + " entries for " +
              std::to_string(n) + " slots");
    return false;
  }
  bool ok = true;
  for (std::size_t s = 0; s < n; ++s) {
    if (offset[s] > offset[s + 1]) {
      r.add(CheckId::PlanCsrBounds,
            std::string(what) + " offsets decrease at slot " +
                std::to_string(s),
            kNoNode, static_cast<SlotId>(s));
      ok = false;
    }
  }
  if (offset[n] != slots.size()) {
    r.add(CheckId::PlanCsrBounds,
          std::string(what) + " offsets close at " +
              std::to_string(offset[n]) + " but the edge array has " +
              std::to_string(slots.size()) + " entries");
    ok = false;
  }
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (slots[k] >= n) {
      r.add(CheckId::PlanCsrBounds,
            std::string(what) + " edge " + std::to_string(k) +
                " targets invalid slot " + std::to_string(slots[k]));
      ok = false;
    }
  }
  return ok;
}

void check_bijection(const EvalPlan& p, const Netlist& nl, VerifyReport& r) {
  const std::size_t n = p.num_slots();
  // Live node -> live slot.
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const SlotId s = p.slot_of(id);
    if (s == kNoSlot || s >= n) {
      r.add(CheckId::PlanSlotBijection,
            "live node " + node_label(nl, id) + " has no plan slot", id);
      continue;
    }
    if (p.node_of(s) != id) {
      r.add(CheckId::PlanSlotBijection,
            "slot_of(" + node_label(nl, id) + ") = " + std::to_string(s) +
                " but node_of maps that slot to node " +
                std::to_string(p.node_of(s)),
            id, s);
    } else if (is_dead_slot(p, s)) {
      r.add(CheckId::PlanSlotBijection,
            "live node " + node_label(nl, id) + " maps to tombstoned slot",
            id, s);
    }
  }
  // Live slot -> live node.
  for (SlotId s = 0; s < n; ++s) {
    if (is_dead_slot(p, s)) continue;
    const NodeId id = p.node_of(s);
    if (!nl.is_alive(id)) {
      r.add(CheckId::PlanSlotBijection,
            "live slot maps to dead/invalid node " + std::to_string(id) +
                " (missing tombstone)",
            id < nl.raw_size() ? id : kNoNode, s);
    } else if (p.slot_of(id) != s) {
      r.add(CheckId::PlanSlotBijection,
            "node_of maps slot to " + node_label(nl, id) +
                " but slot_of points elsewhere (duplicate slot)",
            id, s);
    }
  }
}

void check_opcodes(const EvalPlan& p, const Netlist& nl, VerifyReport& r,
                   bool csr_ok) {
  for (SlotId s = 0; s < p.num_slots(); ++s) {
    if (is_dead_slot(p, s)) continue;
    const NodeId id = p.node_of(s);
    if (!nl.is_alive(id)) continue;  // reported by check_bijection
    const Node& node = nl.node(id);
    const EvalOp want = expected_op(node.type, node.fanin.size());
    const EvalOp got = p.op(s);
    // Appended tie cells keep EvalOp::Source; a fresh compile emits ConstX.
    const bool tie_as_source = got == EvalOp::Source && is_const(node.type);
    if (got != want && !tie_as_source) {
      r.add(CheckId::PlanOpcode,
            "slot for " + node_label(nl, id) + " (" +
                std::string(to_string(node.type)) + "/" +
                std::to_string(node.fanin.size()) + " fanins) has opcode " +
                std::to_string(static_cast<int>(got)),
            id, s);
    }
    if (!csr_ok) continue;
    const std::size_t row = p.fanins(s).size();
    const std::size_t want_row = has_fanin_row(got) ? node.fanin.size() : 0;
    if (row != want_row) {
      r.add(CheckId::PlanOpcode,
            "slot for " + node_label(nl, id) + " has a " +
                std::to_string(row) + "-entry fanin row, expected " +
                std::to_string(want_row),
            id, s);
    }
  }
}

void check_edges(const EvalPlan& p, const Netlist& nl, VerifyReport& r) {
  const std::size_t n = p.num_slots();
  for (SlotId s = 0; s < n; ++s) {
    if (is_dead_slot(p, s) || !has_fanin_row(p.op(s))) continue;
    const NodeId id = p.node_of(s);
    if (!nl.is_alive(id)) continue;  // reported by check_bijection
    const Node& node = nl.node(id);
    const auto fanins = p.fanins(s);
    if (fanins.size() != node.fanin.size()) continue;  // PlanOpcode reported
    for (std::size_t k = 0; k < fanins.size(); ++k) {
      const SlotId f = fanins[k];
      // Pointwise: the CSR entry must be the slot of the k-th netlist fanin
      // (fanin order is semantic for MUX), and that slot must be live.
      if (p.node_of(f) != node.fanin[k] || p.slot_of(node.fanin[k]) != f) {
        r.add(CheckId::PlanCsrStale,
              "fanin " + std::to_string(k) + " of " + node_label(nl, id) +
                  " reads slot " + std::to_string(f) + " (node " +
                  std::to_string(p.node_of(f)) + "), netlist reads node " +
                  std::to_string(node.fanin[k]),
              id, s);
        continue;
      }
      if (is_dead_slot(p, f)) {
        r.add(CheckId::PlanCsrStale,
              node_label(nl, id) + " reads tombstoned slot " +
                  std::to_string(f),
              id, s);
      }
      // Topological legality: the value must exist before the read. Source
      // rows are pre-filled by the owner, so appended tie slots (ids after
      // their readers) are legal fanins anywhere.
      if (f >= s && p.op(f) != EvalOp::Source) {
        r.add(CheckId::PlanTopoOrder,
              "fanin slot " + std::to_string(f) + " of " +
                  node_label(nl, id) + " does not precede it",
              id, s);
      }
      // Mutual consistency: the fanin's fanout row must schedule this
      // reader. Const-typed fanins are exempt: an appended tie source has no
      // fanout row at all, and a tie onto an already-compiled const cell
      // relinks readers the compiled CSR cannot grow to record. Both are
      // sound — fanout rows only drive event scheduling, and a constant
      // never produces an event.
      const bool const_fanin = nl.is_alive(p.node_of(f)) &&
                               is_const(nl.node(p.node_of(f)).type);
      if (!is_dead_slot(p, f) && !const_fanin) {
        const auto fo = p.fanout(f);
        if (std::count(fo.begin(), fo.end(), s) <
            std::count(fanins.begin(), fanins.end(), f)) {
          r.add(CheckId::PlanFanoutSync,
                "fanout row of slot " + std::to_string(f) +
                    " is missing reader " + node_label(nl, id),
                id, f);
        }
      }
    }
  }
  // Reverse direction: every fanout edge between live slots must be read
  // back. Edges from/to Dead slots are the stale rows resync_structure
  // leaves in place — excluded by design.
  for (SlotId s = 0; s < n; ++s) {
    if (is_dead_slot(p, s)) continue;
    for (SlotId reader : p.fanout(s)) {
      if (is_dead_slot(p, reader)) continue;
      const auto fi = p.fanins(reader);
      if (std::find(fi.begin(), fi.end(), s) == fi.end()) {
        r.add(CheckId::PlanFanoutSync,
              "fanout row of slot " + std::to_string(s) +
                  " schedules slot " + std::to_string(reader) +
                  " which does not read it",
              p.node_of(s), s);
      }
    }
  }
}

void check_io_lists(const EvalPlan& p, const Netlist& nl, VerifyReport& r) {
  const auto check_list = [&](const char* what,
                              const std::vector<SlotId>& slots,
                              const std::vector<NodeId>& nodes) {
    if (slots.size() != nodes.size()) {
      r.add(CheckId::PlanIoLists,
            std::string(what) + " slot list has " +
                std::to_string(slots.size()) + " entries, netlist has " +
                std::to_string(nodes.size()));
      return;
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (slots[k] != p.slot_of(nodes[k])) {
        r.add(CheckId::PlanIoLists,
              std::string(what) + " slot list entry " + std::to_string(k) +
                  " is " + std::to_string(slots[k]) + ", expected slot of " +
                  node_label(nl, nodes[k]),
              nodes[k], slots[k]);
      }
    }
  };
  check_list("input", p.input_slots(), nl.inputs());
  check_list("dff", p.dff_slots(), nl.dffs());
  check_list("output", p.output_slots(), nl.outputs());
}

void check_block_layout(const EvalPlan& p, VerifyReport& r) {
  // block_words() contract: 1 <= stripe <= words, and the stripe count it
  // implies covers the row exactly (NodeValues' stripe-major indexing and
  // evaluate both trust this).
  for (const std::size_t w :
       {std::size_t{1}, std::size_t{2}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{1024}, std::size_t{65536}}) {
    const std::size_t bw = p.block_words(w);
    if (bw < 1 || bw > w) {
      r.add(CheckId::PlanBlockLayout,
            "block_words(" + std::to_string(w) + ") = " + std::to_string(bw) +
                " outside [1, words]");
    }
  }
}

/// Canonical per-node view for the equivalence diff: opcode with tie-source
/// folded to its constant, plus the fanin node-id sequence.
struct CanonSlot {
  EvalOp op = EvalOp::Dead;
  std::vector<NodeId> fanin;
};

CanonSlot canonicalize(const EvalPlan& p, const Netlist& nl, SlotId s) {
  CanonSlot c;
  c.op = p.op(s);
  const NodeId id = p.node_of(s);
  if (c.op == EvalOp::Source && nl.is_alive(id)) {
    const GateType t = nl.node(id).type;
    if (t == GateType::Const0) c.op = EvalOp::Const0;
    if (t == GateType::Const1) c.op = EvalOp::Const1;
  }
  if (has_fanin_row(c.op)) {
    const auto fanins = p.fanins(s);
    c.fanin.reserve(fanins.size());
    for (SlotId f : fanins) c.fanin.push_back(p.node_of(f));
  }
  return c;
}

/// Structural-equivalence diff: the patched plan, restricted to live slots
/// and canonicalised, must be isomorphic (keyed by node id — both plans
/// share the netlist's ids) to a fresh recompile of the netlist.
void check_equivalence(const EvalPlan& p, const Netlist& nl,
                       VerifyReport& r) {
  std::vector<CanonSlot> patched(nl.raw_size());
  std::vector<std::uint8_t> in_patched(nl.raw_size(), 0);
  for (SlotId s = 0; s < p.num_slots(); ++s) {
    if (is_dead_slot(p, s)) continue;
    const NodeId id = p.node_of(s);
    if (id >= nl.raw_size()) continue;  // reported by check_bijection
    patched[id] = canonicalize(p, nl, s);
    in_patched[id] = 1;
  }

  const EvalPlan fresh(nl);  // throws only on a cyclic netlist
  for (SlotId s = 0; s < fresh.num_slots(); ++s) {
    const NodeId id = fresh.node_of(s);
    if (id >= nl.raw_size()) continue;
    if (!in_patched[id]) {
      r.add(CheckId::PlanEquivalence,
            "fresh recompile has a slot for " + node_label(nl, id) +
                ", patched plan does not",
            id);
      continue;
    }
    in_patched[id] = 2;
    const CanonSlot want = canonicalize(fresh, nl, s);
    const CanonSlot& got = patched[id];
    if (got.op != want.op) {
      r.add(CheckId::PlanEquivalence,
            "canonical opcode of " + node_label(nl, id) + " is " +
                std::to_string(static_cast<int>(got.op)) +
                " patched vs " + std::to_string(static_cast<int>(want.op)) +
                " recompiled",
            id);
    } else if (got.fanin != want.fanin) {
      r.add(CheckId::PlanEquivalence,
            "fanin sequence of " + node_label(nl, id) +
                " differs between patched plan and recompile",
            id);
    }
  }
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (in_patched[id] == 1) {
      r.add(CheckId::PlanEquivalence,
            "patched plan has a live slot for " + node_label(nl, id) +
                ", fresh recompile does not",
            id);
    }
  }
}

}  // namespace

VerifyReport PlanChecker::run(const EvalPlan& p, const Netlist& nl,
                              const PlanCheckOptions& opt) {
  VerifyReport r;
  if (p.node_of_.size() != p.num_slots()) {
    r.add(CheckId::PlanCsrBounds,
          "node_of array has " + std::to_string(p.node_of_.size()) +
              " entries for " + std::to_string(p.num_slots()) + " slots");
    return r;  // nothing below is safe to walk
  }
  const bool fanin_ok =
      check_csr(p.num_slots(), r, "fanin", p.fanin_offset_, p.fanin_slots_);
  const bool fanout_ok = check_csr(p.num_slots(), r, "fanout",
                                   p.fanout_offset_, p.fanout_slots_);
  check_bijection(p, nl, r);
  check_opcodes(p, nl, r, fanin_ok);
  if (fanin_ok && fanout_ok) check_edges(p, nl, r);
  check_io_lists(p, nl, r);
  check_block_layout(p, r);
  if (opt.equivalence && fanin_ok) {  // canonicalize walks the fanin CSR
    try {
      check_equivalence(p, nl, r);
    } catch (const std::exception& e) {
      r.add(CheckId::PlanEquivalence,
            std::string("fresh recompile failed: ") + e.what());
    }
  }
  return r;
}

VerifyReport check_values_layout(const NodeValues& vals) {
  VerifyReport r;
  const EvalPlan* plan = vals.plan();
  if (plan == nullptr) return r;  // default-constructed: no rows at all
  if (vals.num_rows() != plan->num_slots()) {
    r.add(CheckId::PlanBlockLayout,
          "value matrix has " + std::to_string(vals.num_rows()) +
              " rows for a " + std::to_string(plan->num_slots()) +
              "-slot plan");
  }
  if (vals.stripe_words() != plan->block_words(vals.num_words())) {
    r.add(CheckId::PlanBlockLayout,
          "stripe width " + std::to_string(vals.stripe_words()) +
              " disagrees with block_words(" +
              std::to_string(vals.num_words()) + ") = " +
              std::to_string(plan->block_words(vals.num_words())));
  }
  return r;
}

}  // namespace tz
