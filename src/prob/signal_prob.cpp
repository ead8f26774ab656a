#include "prob/signal_prob.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {

double gate_p1(const Node& n, const std::vector<double>& p) {
  switch (n.type) {
    case GateType::Const0: return 0.0;
    case GateType::Const1: return 1.0;
    case GateType::Buf: return p[n.fanin[0]];
    case GateType::Not: return 1.0 - p[n.fanin[0]];
    case GateType::And: {
      double v = 1.0;
      for (NodeId f : n.fanin) v *= p[f];
      return v;
    }
    case GateType::Nand: {
      double v = 1.0;
      for (NodeId f : n.fanin) v *= p[f];
      return 1.0 - v;
    }
    case GateType::Or: {
      double v = 1.0;
      for (NodeId f : n.fanin) v *= 1.0 - p[f];
      return 1.0 - v;
    }
    case GateType::Nor: {
      double v = 1.0;
      for (NodeId f : n.fanin) v *= 1.0 - p[f];
      return v;
    }
    case GateType::Xor: {
      double v = 0.0;  // probability accumulated parity is 1
      for (NodeId f : n.fanin) v = v * (1.0 - p[f]) + (1.0 - v) * p[f];
      return v;
    }
    case GateType::Xnor: {
      double v = 0.0;
      for (NodeId f : n.fanin) v = v * (1.0 - p[f]) + (1.0 - v) * p[f];
      return 1.0 - v;
    }
    case GateType::Mux: {
      const double s = p[n.fanin[0]];
      return (1.0 - s) * p[n.fanin[1]] + s * p[n.fanin[2]];
    }
    case GateType::Input:
    case GateType::Dff:
      // Sources are seeded by the caller, never evaluated here.
      throw std::logic_error("gate_p1: source node");
  }
  return 0.0;
}

namespace {

// The DFF fixpoint stops after kDffMaxIters damped rounds, or once no DFF
// probability moves by kDffEpsilon.
constexpr int kDffMaxIters = 64;
constexpr double kDffEpsilon = 1e-9;

}  // namespace

std::vector<NodeId> dff_domain(const Netlist& nl) {
  std::vector<char> in(nl.raw_size(), 0);
  std::vector<NodeId> domain;
  std::vector<NodeId> stack(nl.dffs().begin(), nl.dffs().end());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId reader : nl.node(id).fanout) {
      if (in[reader] || !nl.is_alive(reader)) continue;
      const GateType t = nl.node(reader).type;
      if (t == GateType::Dff || t == GateType::Input) continue;
      in[reader] = 1;
      domain.push_back(reader);
      stack.push_back(reader);
    }
  }
  // Kahn order over the domain's internal edges: every in-domain fanin is
  // final before its reader runs, which is all a propagation pass needs.
  std::vector<std::uint32_t> indeg(nl.raw_size(), 0);
  std::vector<NodeId> ready;
  for (NodeId id : domain) {
    for (NodeId f : nl.node(id).fanin) {
      if (in[f]) ++indeg[id];
    }
    if (indeg[id] == 0) ready.push_back(id);
  }
  std::vector<NodeId> order;
  order.reserve(domain.size());
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NodeId reader : nl.node(id).fanout) {
      if (in[reader] && --indeg[reader] == 0) ready.push_back(reader);
    }
  }
  return order;
}

bool settle_dffs(const Netlist& nl, std::span<const NodeId> domain,
                 std::vector<double>& p1) {
  auto propagate = [&] {
    for (NodeId id : domain) p1[id] = gate_p1(nl.node(id), p1);
  };
  // DFF q starts at 0 (reset state) and is iterated to a fixpoint.
  for (NodeId q : nl.dffs()) p1[q] = 0.0;
  propagate();
  for (int it = 0; it < kDffMaxIters; ++it) {
    double delta = 0.0;
    for (NodeId q : nl.dffs()) {
      // Damped update: plain iteration oscillates on toggle loops
      // (q' = NOT q); averaging converges to the steady-state mean.
      const double next = 0.5 * (p1[q] + p1[nl.node(q).fanin[0]]);
      delta = std::max(delta, std::abs(next - p1[q]));
      p1[q] = next;
    }
    propagate();
    if (delta < kDffEpsilon) return true;
  }
  return false;
}

SignalProb::SignalProb(const Netlist& nl) : p1_(nl.raw_size(), 0.0) {
  for (NodeId id : nl.inputs()) p1_[id] = 0.5;
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    p1_[id] = gate_p1(n, p1_);
  }
  if (!nl.dffs().empty()) {
    dff_converged_ = settle_dffs(nl, dff_domain(nl), p1_);
  }
}

std::vector<Candidate> find_candidates(const Netlist& nl, const SignalProb& sp,
                                       double pth) {
  std::vector<Candidate> cands;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const Node& n = nl.node(id);
    if (!is_combinational(n.type) || is_const(n.type)) continue;
    if (nl.is_output(id)) continue;
    const double p1 = sp.p1(id);
    if (p1 >= pth) {
      cands.push_back({id, true, p1});
    } else if (1.0 - p1 >= pth) {
      cands.push_back({id, false, 1.0 - p1});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.probability > b.probability;
                   });
  return cands;
}

std::vector<double> monte_carlo_p1(const Netlist& nl, std::size_t patterns,
                                   std::uint64_t seed) {
  const PatternSet ps = random_patterns(nl.inputs().size(), patterns, seed);
  return simulated_one_probability(nl, ps);
}

}  // namespace tz
