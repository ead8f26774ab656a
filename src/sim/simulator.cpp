#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "sim/gate_eval.hpp"

namespace tz {

BitSimulator::BitSimulator(const Netlist& nl)
    : nl_(&nl), plan_(std::make_shared<EvalPlan>(nl)) {}

BitSimulator::BitSimulator(const Netlist& nl,
                           std::shared_ptr<const EvalPlan> plan)
    : nl_(&nl), plan_(std::move(plan)) {}

NodeValues BitSimulator::run(const PatternSet& inputs,
                             const std::vector<std::uint64_t>* dff_state,
                             ValueLayout layout) const {
  NodeValues vals;
  run_into(vals, inputs, dff_state, layout);
  return vals;
}

void BitSimulator::run_into(NodeValues& vals, const PatternSet& inputs,
                            const std::vector<std::uint64_t>* dff_state,
                            ValueLayout layout) const {
  const auto& nl = *nl_;
  if (inputs.num_signals() != nl.inputs().size()) {
    throw std::invalid_argument("BitSimulator: pattern width != #inputs");
  }
  if (dff_state && dff_state->size() != nl.dffs().size()) {
    throw std::invalid_argument("BitSimulator: dff state size");
  }
  const std::size_t words = inputs.num_words();

  // Reuse is shape-equality: same plan, same width, and the same stripe
  // decision the requested layout would make on a fresh matrix. Every slot
  // row is rewritten by the scatter + evaluate below, so stale values
  // cannot leak.
  const bool want_striped = layout != ValueLayout::Contiguous && words > 1 &&
                            plan_->block_words(words) < words;
  if (vals.plan() != plan_.get() || vals.num_words() != words ||
      vals.striped() != want_striped) {
    vals = NodeValues(plan_, words, layout);
  }
  // Scatter the source rows into the slot-major matrix and walk the opcode
  // stream once (blocked over word stripes inside).
  std::uint64_t* base = vals.data();
  const std::vector<SlotId>& in_slots = plan_->input_slots();
  const std::vector<SlotId>& dff_slots = plan_->dff_slots();
  if (vals.striped()) {
    // Stripe-major: source row r of stripe [w0, w0+wb) lives at
    // stripe_base + r * wb. One pass per stripe keeps the writes as
    // sequential as the evaluation that follows.
    const std::size_t sw = vals.stripe_words();
    const std::size_t slots = plan_->num_slots();
    for (std::size_t w0 = 0; w0 < words; w0 += sw) {
      const std::size_t wb = std::min(sw, words - w0);
      std::uint64_t* sb = base + slots * w0;
      for (std::size_t i = 0; i < in_slots.size(); ++i) {
        auto src = inputs.words(i);
        std::copy_n(src.data() + w0, wb, sb + std::size_t{in_slots[i]} * wb);
      }
      for (std::size_t i = 0; i < dff_slots.size(); ++i) {
        std::fill_n(sb + std::size_t{dff_slots[i]} * wb, wb,
                    dff_state ? (*dff_state)[i] : 0);
      }
    }
    plan_->evaluate_striped(base, words);
    return;
  }
  for (std::size_t i = 0; i < in_slots.size(); ++i) {
    auto src = inputs.words(i);
    std::copy(src.begin(), src.end(),
              base + std::size_t{in_slots[i]} * words);
  }
  for (std::size_t i = 0; i < dff_slots.size(); ++i) {
    // The matrix is allocated uninitialized; DFF source rows must be
    // seeded either way (reset state is all-zero).
    std::fill_n(base + std::size_t{dff_slots[i]} * words, words,
                dff_state ? (*dff_state)[i] : 0);
  }
  plan_->evaluate(base, words);
}

PatternSet BitSimulator::outputs(const PatternSet& inputs) const {
  const NodeValues vals = run(inputs);
  PatternSet out(nl_->outputs().size(), inputs.num_patterns());
  for (std::size_t o = 0; o < nl_->outputs().size(); ++o) {
    auto dst = out.words(o);
    // copy_row gathers across stripes when the run came out stripe-major.
    vals.copy_row(nl_->outputs()[o], dst.data());
    if (!dst.empty()) dst.back() &= out.tail_mask();
  }
  return out;
}

bool BitSimulator::responses_equal(const PatternSet& a, const PatternSet& b) {
  if (a.num_signals() != b.num_signals() ||
      a.num_patterns() != b.num_patterns()) {
    return false;
  }
  for (std::size_t s = 0; s < a.num_signals(); ++s) {
    auto wa = a.words(s);
    auto wb = b.words(s);
    for (std::size_t w = 0; w + 1 < wa.size(); ++w) {
      if (wa[w] != wb[w]) return false;
    }
    if (!wa.empty() && ((wa.back() ^ wb.back()) & a.tail_mask()) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> count_toggles(const Netlist& nl,
                                         const NodeValues& vals,
                                         std::size_t num_patterns) {
  std::vector<std::uint64_t> toggles(nl.raw_size(), 0);
  const std::size_t words = vals.num_words();
  // The pair counting needs word w and w+1 together; a stripe-major matrix
  // splits rows, so gather each row once (the copy is the same O(words) the
  // count itself costs).
  std::vector<std::uint64_t> scratch(vals.striped() ? words : 0);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const std::uint64_t* row;
    if (vals.striped()) {
      vals.copy_row(id, scratch.data());
      row = scratch.data();
    } else {
      row = vals.row(id);
    }
    // Transitions between consecutive patterns: XOR the bit stream with a
    // one-position shift of itself and popcount. Bit i of word w pairs
    // pattern 64w+i with 64w+i+1; the shift carries the next word's lowest
    // bit into position 63 so the cross-word pair is counted too.
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t base = 64 * w;
      if (base + 1 >= num_patterns) break;  // no pair starts in this word
      const std::uint64_t x = row[w];
      const std::uint64_t carry = w + 1 < words ? row[w + 1] << 63 : 0;
      const std::uint64_t shifted = (x >> 1) | carry;
      // Pair i is valid while its second pattern 64w+i+1 < num_patterns.
      const std::size_t pairs =
          std::min<std::size_t>(64, num_patterns - 1 - base);
      const std::uint64_t mask =
          pairs >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << pairs) - 1;
      total += static_cast<std::uint64_t>(std::popcount((x ^ shifted) & mask));
    }
    toggles[id] = total;
  }
  return toggles;
}

std::vector<std::uint64_t> count_toggles(const Netlist& nl,
                                         const PatternSet& inputs) {
  BitSimulator sim(nl);
  return count_toggles(nl, sim.run(inputs), inputs.num_patterns());
}

std::vector<double> simulated_one_probability(const Netlist& nl,
                                              const NodeValues& vals,
                                              std::size_t num_patterns) {
  std::vector<double> prob(nl.raw_size(), 0.0);
  const std::size_t words = vals.num_words();
  const std::uint64_t tail = tail_mask_for(num_patterns);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    std::uint64_t ones = 0;
    // Popcount has no cross-word coupling: walk the row's contiguous
    // segments in place (one whole-row segment on contiguous layouts).
    for (std::size_t w = 0; w < words;) {
      const auto seg = vals.segment(id, w);
      for (std::size_t k = 0; k < seg.size(); ++k) {
        std::uint64_t v = seg[k];
        if (w + k + 1 == words) v &= tail;
        ones += static_cast<std::uint64_t>(std::popcount(v));
      }
      w += seg.size();
    }
    prob[id] = num_patterns == 0
                   ? 0.0
                   : static_cast<double>(ones) /
                         static_cast<double>(num_patterns);
  }
  return prob;
}

std::vector<double> simulated_one_probability(const Netlist& nl,
                                              const PatternSet& inputs) {
  BitSimulator sim(nl);
  return simulated_one_probability(nl, sim.run(inputs),
                                   inputs.num_patterns());
}

std::vector<std::uint64_t> reference_simulate(
    const Netlist& nl, const PatternSet& inputs,
    const std::vector<std::uint64_t>* dff_state) {
  if (inputs.num_signals() != nl.inputs().size()) {
    throw std::invalid_argument("reference_simulate: pattern width != #inputs");
  }
  if (dff_state && dff_state->size() != nl.dffs().size()) {
    throw std::invalid_argument("reference_simulate: dff state size");
  }
  const std::size_t words = inputs.num_words();
  std::vector<std::uint64_t> vals(nl.raw_size() * words, 0);
  const auto row = [&](NodeId id) { return vals.data() + id * words; };
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    auto src = inputs.words(i);
    std::copy(src.begin(), src.end(), row(nl.inputs()[i]));
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    std::fill_n(row(nl.dffs()[i]), words, dff_state ? (*dff_state)[i] : 0);
  }
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    eval_gate_row(
        n, words, [&](NodeId f) -> const std::uint64_t* { return row(f); },
        row(id));
  }
  return vals;
}

PatternSet reference_outputs(const Netlist& nl, const PatternSet& inputs) {
  const std::vector<std::uint64_t> rows = reference_simulate(nl, inputs);
  PatternSet out(nl.outputs().size(), inputs.num_patterns());
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    auto dst = out.words(o);
    std::copy_n(rows.data() + std::size_t{nl.outputs()[o]} * inputs.num_words(),
                dst.size(), dst.data());
    if (!dst.empty()) dst.back() &= out.tail_mask();
  }
  return out;
}

CycleSimulator::CycleSimulator(const Netlist& nl)
    : nl_(&nl),
      order_(nl.topo_order()),
      value_(nl.raw_size(), 0),
      prev_(nl.raw_size(), 0),
      toggles_(nl.raw_size(), 0),
      next_state_(nl.dffs().size(), 0),
      out_(nl.outputs().size(), false) {}

void CycleSimulator::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(prev_.begin(), prev_.end(), 0);
  std::fill(toggles_.begin(), toggles_.end(), 0);
  cycles_ = 0;
  has_prev_ = false;
}

const std::vector<bool>& CycleSimulator::step(
    const std::vector<bool>& input_bits) {
  const auto& nl = *nl_;
  if (input_bits.size() != nl.inputs().size()) {
    throw std::invalid_argument("CycleSimulator: input width");
  }
  for (std::size_t i = 0; i < input_bits.size(); ++i) {
    value_[nl.inputs()[i]] = input_bits[i] ? ~std::uint64_t{0} : 0;
  }
  // DFF outputs hold state from the previous update; evaluate combinational.
  for (NodeId id : order_) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    value_[id] = eval_gate_word(n, [&](NodeId f) { return value_[f]; });
  }
  // Toggle accounting against the previous settled cycle.
  if (has_prev_) {
    for (NodeId id = 0; id < nl.raw_size(); ++id) {
      if (nl.is_alive(id) && ((value_[id] ^ prev_[id]) & 1)) ++toggles_[id];
    }
  }
  prev_ = value_;
  has_prev_ = true;
  // Clock edge: DFFs capture d.
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    next_state_[i] = value_[nl.node(nl.dffs()[i]).fanin[0]];
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    value_[nl.dffs()[i]] = next_state_[i];
  }
  ++cycles_;
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    out_[o] = prev_[nl.outputs()[o]] & 1;
  }
  return out_;
}

std::vector<bool> CycleSimulator::state() const {
  std::vector<bool> s(nl_->dffs().size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = value_[nl_->dffs()[i]] & 1;
  }
  return s;
}

}  // namespace tz
