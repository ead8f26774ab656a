// Tseitin encoding of netlist gates into CNF.
//
// Header-only templates so the same gate semantics drive the arena solver
// (sat/solver.hpp) and the incremental miter's per-cone lazy encoder
// (sat/miter.hpp). A solver type only needs new_var / add_unit / add_binary
// / add_ternary / add_clause.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sat/types.hpp"

namespace tz::sat {

namespace detail {

/// out <-> AND(ins): (~out | in_i) for all i; (out | ~in_1 | ... | ~in_k).
template <class S>
void encode_and(S& s, Lit out, const std::vector<Lit>& ins) {
  std::vector<Lit> big{out};
  for (const Lit in : ins) {
    s.add_binary(~out, in);
    big.push_back(~in);
  }
  s.add_clause(big);
}

template <class S>
void encode_or(S& s, Lit out, const std::vector<Lit>& ins) {
  std::vector<Lit> big{~out};
  for (const Lit in : ins) {
    s.add_binary(out, ~in);
    big.push_back(in);
  }
  s.add_clause(big);
}

/// out <-> a XOR b.
template <class S>
void encode_xor2(S& s, Lit out, Lit a, Lit b) {
  s.add_ternary(~out, a, b);
  s.add_ternary(~out, ~a, ~b);
  s.add_ternary(out, ~a, b);
  s.add_ternary(out, a, ~b);
}

}  // namespace detail

/// Clauses for one gate: out <-> type(ins). Input/Dff emit nothing (free
/// frame variables); Xor/Xnor chains and inverted forms may allocate fresh
/// auxiliary variables on `s`.
template <class S>
void encode_node(S& s, GateType type, Lit out, const std::vector<Lit>& ins) {
  switch (type) {
    case GateType::Input:
    case GateType::Dff:
      break;  // free variables
    case GateType::Const0:
      s.add_unit(~out);
      break;
    case GateType::Const1:
      s.add_unit(out);
      break;
    case GateType::Buf:
      s.add_binary(~out, ins[0]);
      s.add_binary(out, ~ins[0]);
      break;
    case GateType::Not:
      s.add_binary(~out, ~ins[0]);
      s.add_binary(out, ins[0]);
      break;
    case GateType::And:
      detail::encode_and(s, out, ins);
      break;
    case GateType::Nand: {
      const Lit t = Lit::make(s.new_var());
      detail::encode_and(s, t, ins);
      s.add_binary(~out, ~t);
      s.add_binary(out, t);
      break;
    }
    case GateType::Or:
      detail::encode_or(s, out, ins);
      break;
    case GateType::Nor: {
      const Lit t = Lit::make(s.new_var());
      detail::encode_or(s, t, ins);
      s.add_binary(~out, ~t);
      s.add_binary(out, t);
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Chain XOR2 through fresh temporaries.
      Lit acc = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) {
        const Lit t = (i + 1 == ins.size() && type == GateType::Xor)
                          ? out
                          : Lit::make(s.new_var());
        detail::encode_xor2(s, t, acc, ins[i]);
        acc = t;
      }
      if (type == GateType::Xnor) {
        s.add_binary(~out, ~acc);
        s.add_binary(out, acc);
      } else if (ins.size() == 1) {
        s.add_binary(~out, ins[0]);
        s.add_binary(out, ~ins[0]);
      }
      break;
    }
    case GateType::Mux: {
      // out <-> (sel ? b : a)
      const Lit sel = ins[0];
      const Lit a = ins[1];
      const Lit b = ins[2];
      s.add_ternary(~out, sel, a);
      s.add_ternary(out, sel, ~a);
      s.add_ternary(~out, ~sel, b);
      s.add_ternary(out, ~sel, ~b);
      break;
    }
  }
}

/// Encodes every live node of `nl` as one solver variable with the gate
/// semantics as clauses. DFF outputs are encoded as free variables (one
/// combinational frame). Returns the NodeId -> Var map.
template <class S>
std::vector<Var> encode_netlist(S& solver, const Netlist& nl) {
  std::vector<Var> var(nl.raw_size(), -1);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (nl.is_alive(id)) var[id] = solver.new_var();
  }
  std::vector<Lit> ins;
  for (const NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    ins.clear();
    ins.reserve(n.fanin.size());
    for (const NodeId f : n.fanin) ins.push_back(Lit::make(var[f]));
    encode_node(solver, n.type, Lit::make(var[id]), ins);
  }
  return var;
}

}  // namespace tz::sat
