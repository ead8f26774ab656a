// Compiled flat evaluation plan shared by the bit-parallel engines.
//
// An EvalPlan flattens the alive nodes of a netlist into dense topo-ordered
// slots: a per-slot opcode stream with arity-specialized entries (dedicated
// 2-input AND/NAND/OR/NOR/XOR/XNOR, NOT/BUF/MUX, generic N-ary fallback) and
// CSR fanin/fanout slot arrays in single contiguous allocations. Evaluating a
// netlist becomes a straight walk of the opcode stream over a stripe-major
// value matrix — no Node dereferences, no per-node std::vector fanin heaps on
// the hottest loop — and wide pattern sets are processed in word stripes
// sized so the streaming working set stays inside the fast cache levels.
//
// The slot order IS the topological order, so slot ids double as topological
// ranks for sim/cone_pass.hpp, the event-driven pass behind fault simulation
// and the suite oracle: its rank worklist pops plan slots and evaluates
// through eval_plan_slot instead of walking Node objects. sim/gate_eval.hpp
// stays as the reference kernel; the parity tests check the plan against it
// bit for bit.
//
// Plans support incremental patching (SuiteOracle::try_tie): an
// accepted tie appends the tie cell as a source slot, rewrites the readers'
// fanin CSR entries in place and tombstones the swept cone's slots, so
// per-candidate judging never recompiles the plan.
//
// The plan is the only evaluator the engines use. The Node-walking
// reference_simulate (sim/simulator.hpp) exists for the parity checks alone.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/debug.hpp"

namespace tz {

/// Dense topo-ordered slot index of a compiled plan.
using SlotId = std::uint32_t;
inline constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

/// Opcode stream entries. Arity-2 gates get dedicated opcodes (the dominant
/// case in ISCAS-class netlists); wider gates fall back to the N-ary loops.
enum class EvalOp : std::uint8_t {
  Source,  ///< PI, DFF output or patched-in tie cell: row filled by caller.
  Const0,
  Const1,
  Buf,
  Not,
  And2,
  Nand2,
  Or2,
  Nor2,
  Xor2,
  Xnor2,
  Mux,  ///< fanin = {sel, a, b}; out = sel ? b : a.
  AndN,
  NandN,
  OrN,
  NorN,
  XorN,
  XnorN,
  Dead,  ///< Patched-out slot (swept cone): never evaluated or scheduled.
};

/// Always true: the compiled plan is the only evaluator. Kept because the
/// FlowMeta::eval_plan wire field is stamped from it.
constexpr bool eval_plan_enabled() { return true; }

class EvalPlan {
 public:
  /// Compile from the netlist's topological order (computed internally).
  explicit EvalPlan(const Netlist& nl);

  std::size_t num_slots() const { return ops_.size(); }
  SlotId slot_of(NodeId id) const {
    return id < slot_of_.size() ? slot_of_[id] : kNoSlot;
  }
  NodeId node_of(SlotId s) const {
    TZ_DBG_ASSERT(s < node_of_.size(), "EvalPlan::node_of slot index");
    return node_of_[s];
  }
  EvalOp op(SlotId s) const {
    TZ_DBG_ASSERT(s < ops_.size(), "EvalPlan::op slot index");
    return ops_[s];
  }

  std::span<const SlotId> fanins(SlotId s) const {
    TZ_DBG_ASSERT(s < num_slots(), "EvalPlan::fanins slot index");
    return {fanin_slots_.data() + fanin_offset_[s],
            fanin_offset_[s + 1] - fanin_offset_[s]};
  }
  /// Combinational readers only: Input/DFF readers are compiled out, exactly
  /// matching the engines' scheduling skip.
  std::span<const SlotId> fanout(SlotId s) const {
    TZ_DBG_ASSERT(s < num_slots(), "EvalPlan::fanout slot index");
    return {fanout_slots_.data() + fanout_offset_[s],
            fanout_offset_[s + 1] - fanout_offset_[s]};
  }

  const std::vector<SlotId>& input_slots() const { return input_slots_; }
  const std::vector<SlotId>& dff_slots() const { return dff_slots_; }
  const std::vector<SlotId>& output_slots() const { return output_slots_; }

  /// Raw accessors for the hot loops (avoid span re-construction per gate).
  const EvalOp* ops_data() const { return ops_.data(); }
  const std::uint32_t* fanin_offsets_data() const {
    return fanin_offset_.data();
  }
  const SlotId* fanin_slots_data() const { return fanin_slots_.data(); }

  /// Full evaluation: walk the opcode stream over the stripe-major matrix
  /// `values`, which holds ceil(words / block_words(words)) stripe blocks,
  /// stripe b covering words [b*bw, ...) with row r at
  /// `values + num_slots*b*bw + r*stripe_width` (a single stripe is plain
  /// slot-major rows of `words` words). Source slot rows must be pre-filled
  /// by the caller (see BitSimulator::run); Const slots are filled by the
  /// walk. Every non-source slot row is fully written before any reader
  /// reads it, so the matrix may be allocated uninitialized. One word runs
  /// eval_plan_slot's register path; wider rows run each stripe through the
  /// runtime-dispatched SIMD kernel (sim/simd.hpp), whose whole working set
  /// is one contiguous cache-sized block.
  void evaluate(std::uint64_t* values, std::size_t words) const;

  /// Stripe width used by evaluate() for a given row width: the widest
  /// stripe whose slot-major working set stays cache-resident, floored so
  /// the per-stripe opcode/CSR walk amortizes over enough words. NodeValues
  /// sizes its stripes with the same function, which is what keeps the two
  /// in lockstep.
  std::size_t block_words(std::size_t words) const;

  // ---- incremental patching (SuiteOracle::try_tie) ----

  /// Grow slot_of() coverage to `raw_size` node ids (new ids map to kNoSlot).
  void ensure_node_capacity(std::size_t raw_size);

  /// Append a source slot for a node added after compilation (tie cells).
  /// The slot has no fanin/fanout; its row is filled by the owner.
  SlotId append_source(NodeId id);

  /// Tombstone a slot whose node was removed. Fanin/fanout CSR entries are
  /// left in place; evaluation and scheduling skip Dead opcodes.
  void kill(SlotId s);

  /// Re-read `s`'s fanin list from the netlist after readers were relinked
  /// (arity is unchanged by relink_fanin, so the CSR row is rewritten in
  /// place). Every fanin must already have a slot.
  void refresh_fanins(SlotId s, const Netlist& nl);

  /// Rebuild output_slots() from the netlist's current outputs(). A tie that
  /// retargets a primary output leaves the compiled list pointing at the old
  /// driver's slot; try_tie calls this after patching.
  void refresh_outputs(const Netlist& nl);

 private:
  void compile(const Netlist& nl, const std::vector<NodeId>& topo);
  void evaluate_scalar(std::uint64_t* values) const;

  std::vector<EvalOp> ops_;
  std::vector<NodeId> node_of_;
  std::vector<SlotId> slot_of_;
  std::vector<std::uint32_t> fanin_offset_;   ///< num_slots + 1 entries
  std::vector<SlotId> fanin_slots_;           ///< one contiguous allocation
  std::vector<std::uint32_t> fanout_offset_;  ///< num_slots + 1 entries
  std::vector<SlotId> fanout_slots_;
  std::vector<SlotId> input_slots_, dff_slots_, output_slots_;

  /// tz::verify audits the CSR arrays and slot maps directly; the test peer
  /// corrupts them to prove each check fires.
  friend class PlanChecker;
  friend struct PlanTestPeer;
};

/// Evaluate one plan slot over a row of `words` packed words — the cone
/// pass's kernel. `get` maps SlotId -> const row pointer;
/// `out` must not alias any fanin row. Bit-identical to eval_gate_row on the
/// corresponding Node (the parity tests enforce this). Always inlined: the
/// cone pass calls it once per popped slot, and an out-of-line call per gate
/// made one-word event fault simulation ~10% slower (BM_FaultSimulation).
template <typename GetRow>
[[gnu::always_inline]] inline void eval_plan_slot(
    const EvalPlan& p, SlotId s, std::size_t words, GetRow&& get,
    std::uint64_t* __restrict out) {
  const EvalOp op = p.op(s);
  const std::uint32_t* offs = p.fanin_offsets_data();
  const SlotId* f = p.fanin_slots_data() + offs[s];
  const std::size_t arity = offs[s + 1] - offs[s];
  if (words == 1) {
    // Register accumulation beats the vectorized row loops at one word.
    std::uint64_t v;
    switch (op) {
      case EvalOp::Const0: v = 0; break;
      case EvalOp::Const1: v = ~std::uint64_t{0}; break;
      case EvalOp::Buf: v = *get(f[0]); break;
      case EvalOp::Not: v = ~*get(f[0]); break;
      case EvalOp::And2: v = *get(f[0]) & *get(f[1]); break;
      case EvalOp::Nand2: v = ~(*get(f[0]) & *get(f[1])); break;
      case EvalOp::Or2: v = *get(f[0]) | *get(f[1]); break;
      case EvalOp::Nor2: v = ~(*get(f[0]) | *get(f[1])); break;
      case EvalOp::Xor2: v = *get(f[0]) ^ *get(f[1]); break;
      case EvalOp::Xnor2: v = ~(*get(f[0]) ^ *get(f[1])); break;
      case EvalOp::Mux: {
        const std::uint64_t sel = *get(f[0]);
        v = (~sel & *get(f[1])) | (sel & *get(f[2]));
        break;
      }
      case EvalOp::AndN:
      case EvalOp::NandN: {
        v = *get(f[0]);
        for (std::size_t i = 1; i < arity; ++i) v &= *get(f[i]);
        if (op == EvalOp::NandN) v = ~v;
        break;
      }
      case EvalOp::OrN:
      case EvalOp::NorN: {
        v = *get(f[0]);
        for (std::size_t i = 1; i < arity; ++i) v |= *get(f[i]);
        if (op == EvalOp::NorN) v = ~v;
        break;
      }
      case EvalOp::XorN:
      case EvalOp::XnorN: {
        v = *get(f[0]);
        for (std::size_t i = 1; i < arity; ++i) v ^= *get(f[i]);
        if (op == EvalOp::XnorN) v = ~v;
        break;
      }
      default:
        throw std::logic_error("eval_plan_slot: source/dead slot");
    }
    *out = v;
    return;
  }
  switch (op) {
    case EvalOp::Const0:
      for (std::size_t w = 0; w < words; ++w) out[w] = 0;
      break;
    case EvalOp::Const1:
      for (std::size_t w = 0; w < words; ++w) out[w] = ~std::uint64_t{0};
      break;
    case EvalOp::Buf: {
      const std::uint64_t* a = get(f[0]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w];
      break;
    }
    case EvalOp::Not: {
      const std::uint64_t* a = get(f[0]);
      for (std::size_t w = 0; w < words; ++w) out[w] = ~a[w];
      break;
    }
    case EvalOp::And2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w] & b[w];
      break;
    }
    case EvalOp::Nand2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = ~(a[w] & b[w]);
      break;
    }
    case EvalOp::Or2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w] | b[w];
      break;
    }
    case EvalOp::Nor2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = ~(a[w] | b[w]);
      break;
    }
    case EvalOp::Xor2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w] ^ b[w];
      break;
    }
    case EvalOp::Xnor2: {
      const std::uint64_t* a = get(f[0]);
      const std::uint64_t* b = get(f[1]);
      for (std::size_t w = 0; w < words; ++w) out[w] = ~(a[w] ^ b[w]);
      break;
    }
    case EvalOp::Mux: {
      const std::uint64_t* sel = get(f[0]);
      const std::uint64_t* a = get(f[1]);
      const std::uint64_t* b = get(f[2]);
      for (std::size_t w = 0; w < words; ++w) {
        out[w] = (~sel[w] & a[w]) | (sel[w] & b[w]);
      }
      break;
    }
    case EvalOp::AndN:
    case EvalOp::NandN: {
      const std::uint64_t* a = get(f[0]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < arity; ++i) {
        const std::uint64_t* b = get(f[i]);
        for (std::size_t w = 0; w < words; ++w) out[w] &= b[w];
      }
      if (op == EvalOp::NandN) {
        for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
      }
      break;
    }
    case EvalOp::OrN:
    case EvalOp::NorN: {
      const std::uint64_t* a = get(f[0]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < arity; ++i) {
        const std::uint64_t* b = get(f[i]);
        for (std::size_t w = 0; w < words; ++w) out[w] |= b[w];
      }
      if (op == EvalOp::NorN) {
        for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
      }
      break;
    }
    case EvalOp::XorN:
    case EvalOp::XnorN: {
      const std::uint64_t* a = get(f[0]);
      for (std::size_t w = 0; w < words; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < arity; ++i) {
        const std::uint64_t* b = get(f[i]);
        for (std::size_t w = 0; w < words; ++w) out[w] ^= b[w];
      }
      if (op == EvalOp::XnorN) {
        for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
      }
      break;
    }
    default:
      throw std::logic_error("eval_plan_slot: source/dead slot");
  }
}

}  // namespace tz
