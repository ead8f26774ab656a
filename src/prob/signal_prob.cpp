#include "prob/signal_prob.hpp"

#include <algorithm>
#include <cstdint>

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
    case GateType::Input: return 0.5;
    case GateType::Dff: return 0.0;  // reset state
  }
  return 0.0;
}

SignalProb::SignalProb(const Netlist& nl) : p1_(nl.raw_size(), 0.0) {
  for (NodeId id : nl.topo_order()) p1_[id] = gate_p1(nl.node(id), p1_);
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
