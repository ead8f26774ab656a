#include "core/insertion.hpp"

#include <algorithm>

#include "core/flow_engine.hpp"

namespace tz {

std::vector<NodeId> payload_locations(const Netlist& nl, std::size_t limit) {
  const std::vector<int> depth = nl.depths();
  std::vector<NodeId> cands;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const Node& n = nl.node(id);
    if (!is_combinational(n.type) || is_const(n.type)) continue;
    if (n.fanout.empty() || nl.is_output(id)) continue;
    cands.push_back(id);
  }
  // Deep nets first: their fanout cone is small, which leaves most of the
  // circuit available as trigger sources (the payload must not loop through
  // its own trigger), yet a fired payload still corrupts primary outputs.
  std::stable_sort(cands.begin(), cands.end(), [&](NodeId a, NodeId b) {
    if (depth[a] != depth[b]) return depth[a] > depth[b];
    return nl.node(a).fanout.size() > nl.node(b).fanout.size();
  });
  if (cands.size() > limit) cands.resize(limit);
  return cands;
}

std::vector<NodeId> rare_net_list(const Netlist& nl, const SignalProb& sp,
                                  double rare_p1) {
  std::vector<NodeId> pool;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const Node& n = nl.node(id);
    if (!is_combinational(n.type) || is_const(n.type)) continue;
    if (sp.p1(id) <= rare_p1) pool.push_back(id);
  }
  std::stable_sort(pool.begin(), pool.end(), [&](NodeId a, NodeId b) {
    return sp.p1(a) < sp.p1(b);
  });
  return pool;
}

std::vector<char> downstream_mask(const Netlist& nl, NodeId victim) {
  std::vector<char> downstream(nl.raw_size(), 0);
  std::vector<NodeId> stack{victim};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (downstream[id]) continue;
    downstream[id] = 1;
    for (NodeId r : nl.node(id).fanout) stack.push_back(r);
  }
  return downstream;
}

std::vector<NodeId> trigger_pool(const Netlist& nl,
                                 std::span<const NodeId> rare, NodeId victim) {
  const std::vector<char> down = downstream_mask(nl, victim);
  std::vector<NodeId> pool;
  for (NodeId id : rare) {
    if (!down[id]) pool.push_back(id);
  }
  return pool;
}

InsertionResult insert_trojan(const Netlist& original,
                              const SalvageResult& salvaged,
                              const DefenderSuite& suite,
                              const PowerModel& pm,
                              const InsertionOptions& opt) {
  return FlowEngine(original, suite, pm).insert(salvaged, opt);
}

}  // namespace tz
