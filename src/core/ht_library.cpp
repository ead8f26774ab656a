#include "core/ht_library.hpp"

#include <span>
#include <stdexcept>

namespace tz {

std::vector<TrojanDesc> default_ht_library() {
  return {
      {"cmp-trigger", 0, 4},
      {"counter-2bit", 2, 2},
      {"counter-3bit", 3, 2},
      {"counter-4bit", 4, 2},
      {"counter-5bit", 5, 2},
  };
}

TrojanDesc counter_trojan(int bits, int trigger_width) {
  if (bits == 0) return {"cmp-trigger", 0, trigger_width};
  return {"counter-" + std::to_string(bits) + "bit", bits, trigger_width};
}

namespace {

/// True when a path of combinational edges leads from `from` to `to`. DFF
/// inputs end the search: a DFF output is a source within one cycle.
bool drives_combinationally(const Netlist& nl, NodeId from, NodeId to) {
  std::vector<char> seen(nl.raw_size(), 0);
  std::vector<NodeId> stack{from};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id == to) return true;
    for (NodeId r : nl.node(id).fanout) {
      if (seen[r] || is_sequential(nl.node(r).type)) continue;
      seen[r] = 1;
      stack.push_back(r);
    }
  }
  return false;
}

}  // namespace

InsertedHT build_trojan(Netlist& nl, const TrojanDesc& desc,
                        std::span<const NodeId> rare_nets, NodeId victim) {
  if (!nl.is_alive(victim) || nl.node(victim).fanout.empty()) {
    throw std::invalid_argument("build_trojan: victim must drive logic");
  }
  if (rare_nets.size() < static_cast<std::size_t>(desc.trigger_width)) {
    throw std::invalid_argument("build_trojan: not enough rare nets");
  }
  InsertedHT ht;
  ht.name = desc.name;
  ht.victim = victim;
  auto add = [&](GateType t, const std::string& base,
                 std::initializer_list<NodeId> fanin) {
    const NodeId id = nl.add_gate(t, nl.unique_name(base), fanin);
    ht.added_nodes.push_back(id);
    return id;
  };

  // Trigger: AND over the chosen rare nets (pairwise tree).
  std::vector<NodeId> layer(rare_nets.begin(),
                            rare_nets.begin() + desc.trigger_width);
  int t = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(add(GateType::And, "ht_trig" + std::to_string(t++),
                         {layer[i], layer[i + 1]}));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  ht.trigger_in = layer[0];

  if (desc.counter_bits == 0) {
    ht.fire = ht.trigger_in;
  } else {
    // Synchronous counter with enable: increments whenever the trigger is 1
    //   carry_0 = trigger;  d_i = q_i XOR carry_i;  carry_{i+1} = q_i AND c_i
    // The d-logic reads the DFF outputs, so the DFFs are created first with
    // a tie-cell placeholder d-input and relinked once the logic exists.
    std::vector<NodeId> q(desc.counter_bits);
    std::vector<NodeId> d(desc.counter_bits);
    const NodeId tie0 = nl.const_node(false);
    for (int i = 0; i < desc.counter_bits; ++i) {
      q[i] = add(GateType::Dff, "ht_q" + std::to_string(i), {tie0});
    }
    NodeId carry = ht.trigger_in;
    for (int i = 0; i < desc.counter_bits; ++i) {
      d[i] = add(GateType::Xor, "ht_d" + std::to_string(i), {q[i], carry});
      if (i + 1 < desc.counter_bits) {
        carry = add(GateType::And, "ht_c" + std::to_string(i), {q[i], carry});
      }
    }
    // Relink each DFF's d-input from the tie to the real next-state logic.
    for (int i = 0; i < desc.counter_bits; ++i) {
      nl.relink_fanin(q[i], 0, d[i]);
    }
    // Fire when the counter is saturated (all ones).
    NodeId full = q[0];
    for (int i = 1; i < desc.counter_bits; ++i) {
      full = add(GateType::And, "ht_full" + std::to_string(i), {full, q[i]});
    }
    ht.fire = full;
  }

  // Payload: S' = MUX(fire, S, ~S); rewire S's original readers to S'.
  const IdList readers = nl.node(victim).fanout;
  const NodeId inv = add(GateType::Not, "ht_inv", {victim});
  const NodeId mux = add(GateType::Mux, "ht_payload", {ht.fire, victim, inv});
  for (NodeId r : readers) {
    for (std::size_t slot = 0; slot < nl.node(r).fanin.size(); ++slot) {
      if (nl.node(r).fanin[slot] == victim) nl.relink_fanin(r, slot, mux);
    }
  }
  // Transfer a primary-output marking of the victim to the payload.
  if (nl.is_output(victim)) nl.swap_output(victim, mux);
  ht.payload_mux = mux;
  // Every new gate was arity-checked by add_gate, so the one defect the
  // build can introduce is a combinational loop. A loop must run through
  // the MUX's fire input, and with a counter that input comes from DFFs,
  // which cut it; a combinational trigger closes one exactly when the MUX
  // reaches trigger_in.
  if (desc.counter_bits == 0 && drives_combinationally(nl, mux, ht.trigger_in)) {
    throw std::runtime_error("build_trojan: payload '" + nl.node(victim).name +
                             "' feeds its own trigger (combinational loop)");
  }
  return ht;
}

NodeId add_dummy_gate(Netlist& nl, NodeId primary_input, GateType type,
                      const std::string& name_hint) {
  if (!nl.is_alive(primary_input)) {
    throw std::invalid_argument("add_dummy_gate: dead input");
  }
  if (type == GateType::Not || type == GateType::Buf) {
    return nl.add_gate(type, nl.unique_name(name_hint), {primary_input});
  }
  return nl.add_gate(type, nl.unique_name(name_hint),
                     {primary_input, primary_input});
}

}  // namespace tz
