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

SignalProb::SignalProb(const Netlist& nl, SignalProbOptions opt)
    : p1_(nl.raw_size(), 0.0) {
  for (NodeId id : nl.inputs()) p1_[id] = opt.input_p1;
  // DFF q starts at 0 (reset state) and is iterated to a fixpoint.
  const std::vector<NodeId> order = nl.topo_order();
  auto propagate = [&] {
    for (NodeId id : order) {
      const Node& n = nl.node(id);
      if (n.type == GateType::Input || n.type == GateType::Dff) continue;
      p1_[id] = gate_p1(n, p1_);
    }
  };
  propagate();
  if (!nl.dffs().empty()) {
    dff_converged_ = false;
    for (int it = 0; it < kDffMaxIters; ++it) {
      double delta = 0.0;
      for (NodeId q : nl.dffs()) {
        // Damped update: plain iteration oscillates on toggle loops
        // (q' = NOT q); averaging converges to the steady-state mean.
        const double next = 0.5 * (p1_[q] + p1_[nl.node(q).fanin[0]]);
        delta = std::max(delta, std::abs(next - p1_[q]));
        p1_[q] = next;
      }
      propagate();
      if (delta < kDffEpsilon) {
        dff_converged_ = true;
        break;
      }
    }
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
