#include "sim/eval_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "sim/simd.hpp"

namespace tz {

namespace {

/// Env switch helper: "0", "false" and "off" disable, anything else keeps
/// the default (a typo cannot silently flip an A/B run the other way).
bool env_disabled(const char* name) {
  if (const char* env = std::getenv(name)) {
    const std::string_view v(env);
    return v == "0" || v == "false" || v == "FALSE" || v == "off" ||
           v == "OFF";
  }
  return false;
}

}  // namespace

EvalPlan::EvalPlan(const Netlist& nl) { compile(nl, nl.topo_order()); }

void EvalPlan::compile(const Netlist& nl, const std::vector<NodeId>& topo) {
  const std::size_t n = topo.size();
  ops_.resize(n);
  node_of_.assign(topo.begin(), topo.end());
  slot_of_.assign(nl.raw_size(), kNoSlot);
  for (SlotId s = 0; s < n; ++s) slot_of_[topo[s]] = s;

  // One pass over the (cache-hostile) Node objects builds both the opcode
  // stream and the fanin CSR. Arity-2 gets the dedicated two-operand kernels
  // (the dominant shape), everything wider the generic accumulating loops.
  fanin_offset_.resize(n + 1);
  fanin_slots_.clear();
  fanin_slots_.reserve(3 * n);
  for (SlotId s = 0; s < n; ++s) {
    fanin_offset_[s] = static_cast<std::uint32_t>(fanin_slots_.size());
    const Node& node = nl.node(node_of_[s]);
    switch (node.type) {
      case GateType::Input:
      case GateType::Dff:
        ops_[s] = EvalOp::Source;
        break;
      case GateType::Const0: ops_[s] = EvalOp::Const0; break;
      case GateType::Const1: ops_[s] = EvalOp::Const1; break;
      case GateType::Buf: ops_[s] = EvalOp::Buf; break;
      case GateType::Not: ops_[s] = EvalOp::Not; break;
      case GateType::Mux: ops_[s] = EvalOp::Mux; break;
      case GateType::And:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::And2 : EvalOp::AndN;
        break;
      case GateType::Nand:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::Nand2 : EvalOp::NandN;
        break;
      case GateType::Or:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::Or2 : EvalOp::OrN;
        break;
      case GateType::Nor:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::Nor2 : EvalOp::NorN;
        break;
      case GateType::Xor:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::Xor2 : EvalOp::XorN;
        break;
      case GateType::Xnor:
        ops_[s] = node.fanin.size() == 2 ? EvalOp::Xnor2 : EvalOp::XnorN;
        break;
    }
    // Source slots carry no fanin edges (a DFF's d-input is a cycle-breaking
    // edge, not a combinational dependency — same as BitSimulator::run).
    if (ops_[s] != EvalOp::Source) {
      for (NodeId f : node.fanin) fanin_slots_.push_back(slot_of_[f]);
    }
  }
  fanin_offset_[n] = static_cast<std::uint32_t>(fanin_slots_.size());

  // CSR fanout restricted to combinational readers: exactly the set the
  // event-driven engines schedule (Input readers cannot exist; DFF readers
  // block propagation across the cycle boundary).
  fanout_offset_.assign(n + 1, 0);
  for (std::size_t k = 0; k < fanin_slots_.size(); ++k) {
    ++fanout_offset_[fanin_slots_[k] + 1];
  }
  for (std::size_t s = 0; s < n; ++s) {
    fanout_offset_[s + 1] += fanout_offset_[s];
  }
  fanout_slots_.resize(fanin_slots_.size());
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                    fanout_offset_.end() - 1);
  for (SlotId s = 0; s < n; ++s) {
    for (SlotId f : fanins(s)) fanout_slots_[cursor[f]++] = s;
  }

  input_slots_.reserve(nl.inputs().size());
  for (NodeId id : nl.inputs()) input_slots_.push_back(slot_of_[id]);
  dff_slots_.reserve(nl.dffs().size());
  for (NodeId id : nl.dffs()) dff_slots_.push_back(slot_of_[id]);
  output_slots_.reserve(nl.outputs().size());
  for (NodeId id : nl.outputs()) output_slots_.push_back(slot_of_[id]);
}

std::size_t EvalPlan::block_words(std::size_t words) const {
  // Two forces pick the stripe. Wider is better for dispatch: every stripe
  // re-walks the opcode/CSR stream and re-dispatches the per-gate switch, so
  // below ~64 words the walk overhead dominates (measured: 16-word stripes
  // are 2x slower than unblocked on c3540 x 8192 patterns). Narrower is
  // better for cache once the slot-major matrix outgrows the cache
  // hierarchy: then a stripe bounds the working set so fanin reads hit cache
  // instead of streaming from memory. ISCAS-class matrices (a few MB) stay
  // cache-resident, so the budget only kicks in for large netlists.
  constexpr std::size_t kMinStripeWords = 64;
  constexpr std::size_t kCacheBudgetBytes = 4u << 20;
  const std::size_t slots = std::max<std::size_t>(1, ops_.size());
  const std::size_t stripe =
      std::max(kMinStripeWords, kCacheBudgetBytes / (8 * slots));
  // Balance the stripes: splitting into round(words/stripe) near-equal
  // pieces never leaves a ragged near-empty tail stripe whose opcode/CSR
  // walk would be pure overhead, and bounds the overshoot past the cache
  // budget to ~1.5x (a floor division could return almost 2x the budget).
  const std::size_t stripes =
      std::max<std::size_t>(1, (words + stripe / 2) / stripe);
  return (words + stripes - 1) / stripes;
}

void EvalPlan::evaluate(std::uint64_t* values, std::size_t words) const {
  if (words == 0) return;
  if (words == 1) {
    evaluate_scalar(values);
    return;
  }
  const std::size_t block = block_words(words);
  for (std::size_t w0 = 0; w0 < words; w0 += block) {
    evaluate_block(values, words, w0, std::min(block, words - w0));
  }
}

void EvalPlan::evaluate_striped(std::uint64_t* values,
                                std::size_t words) const {
  if (words == 0) return;
  const std::size_t bw = block_words(words);
  const detail::StripeKernelFn kern = detail::stripe_kernel();
  const auto n = static_cast<std::uint32_t>(num_slots());
  for (std::size_t w0 = 0; w0 < words; w0 += bw) {
    kern(*this, values + num_slots() * w0, std::min(bw, words - w0), 0, n);
  }
}

namespace detail {
namespace {

StripeKernelFn pick_stripe_kernel() {
  // TZ_SIMD=0 forces the portable kernel (the SIMD-vs-scalar A/B switch and
  // the escape hatch if an ISA-specific miscompile ever needs ruling out).
  if (env_disabled("TZ_SIMD")) return eval_plan_stripe_generic;
#if defined(TZ_AVX2_KERNELS) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return eval_plan_stripe_avx2;
#endif
  return eval_plan_stripe_generic;
}

}  // namespace

StripeKernelFn stripe_kernel() {
  static const StripeKernelFn fn = pick_stripe_kernel();
  return fn;
}

}  // namespace detail

void EvalPlan::evaluate_scalar(std::uint64_t* values) const {
  // One word per row: the row index IS the value index, and eval_plan_slot's
  // register fast path does the work. Keeping the dispatch here (instead of
  // a third hand-written switch) preserves the single-kernel guarantee the
  // cross-mode bit-parity contract rests on.
  const std::size_t n = ops_.size();
  const auto get = [&](SlotId f) { return values + f; };
  for (SlotId s = 0; s < n; ++s) {
    const EvalOp op = ops_[s];
    if (op == EvalOp::Source || op == EvalOp::Dead) continue;
    eval_plan_slot(*this, s, 1, get, values + s);
  }
}

void EvalPlan::evaluate_block(std::uint64_t* values, std::size_t words,
                              std::size_t w0, std::size_t bw) const {
  // Row pointers stride by the full row width while the kernels run over
  // the stripe's bw words; eval_plan_slot inlines to the same straight-line
  // bitwise loops a hand-specialized switch would produce.
  const std::size_t n = ops_.size();
  const auto row = [&](SlotId f) {
    return values + std::size_t{f} * words + w0;
  };
  for (SlotId s = 0; s < n; ++s) {
    const EvalOp op = ops_[s];
    if (op == EvalOp::Source || op == EvalOp::Dead) continue;
    eval_plan_slot(*this, s, bw, row, row(s));
  }
}

void EvalPlan::ensure_node_capacity(std::size_t raw_size) {
  if (slot_of_.size() < raw_size) slot_of_.resize(raw_size, kNoSlot);
}

SlotId EvalPlan::append_source(NodeId id) {
  ensure_node_capacity(id + 1);
  const SlotId s = static_cast<SlotId>(ops_.size());
  ops_.push_back(EvalOp::Source);
  node_of_.push_back(id);
  slot_of_[id] = s;
  fanin_offset_.push_back(fanin_offset_.back());
  fanout_offset_.push_back(fanout_offset_.back());
  return s;
}

void EvalPlan::kill(SlotId s) { ops_[s] = EvalOp::Dead; }

void EvalPlan::refresh_outputs(const Netlist& nl) {
  output_slots_.clear();
  output_slots_.reserve(nl.outputs().size());
  for (NodeId id : nl.outputs()) output_slots_.push_back(slot_of(id));
}

void EvalPlan::refresh_fanins(SlotId s, const Netlist& nl) {
  const IdList& fanin = nl.node(node_of_[s]).fanin;
  const std::uint32_t off = fanin_offset_[s];
  if (fanin.size() != fanin_offset_[s + 1] - off) {
    throw std::logic_error("EvalPlan::refresh_fanins: arity changed");
  }
  for (std::size_t k = 0; k < fanin.size(); ++k) {
    fanin_slots_[off + k] = slot_of_[fanin[k]];
  }
}

}  // namespace tz
