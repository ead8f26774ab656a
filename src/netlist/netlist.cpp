#include "netlist/netlist.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>

namespace tz {

std::string_view to_string(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux: return "MUX";
    case GateType::Dff: return "DFF";
  }
  return "?";
}

std::optional<GateType> gate_type_from_string(std::string_view s) {
  std::string up(s.size(), '\0');
  std::transform(s.begin(), s.end(), up.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  static const std::array<std::pair<std::string_view, GateType>, 14> table{{
      {"INPUT", GateType::Input},
      {"CONST0", GateType::Const0},
      {"CONST1", GateType::Const1},
      {"BUF", GateType::Buf},
      {"BUFF", GateType::Buf},
      {"NOT", GateType::Not},
      {"AND", GateType::And},
      {"NAND", GateType::Nand},
      {"OR", GateType::Or},
      {"NOR", GateType::Nor},
      {"XOR", GateType::Xor},
      {"XNOR", GateType::Xnor},
      {"MUX", GateType::Mux},
      {"DFF", GateType::Dff},
  }};
  for (const auto& [name, type] : table) {
    if (up == name) return type;
  }
  return std::nullopt;
}

Arity arity_of(GateType t) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return {0, 0};
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff:
      return {1, 1};
    case GateType::Mux:
      return {3, 3};
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Xor:
    case GateType::Xnor:
      return {2, -1};
  }
  return {0, 0};
}

namespace {

std::size_t name_hash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

std::size_t Netlist::name_slot(std::string_view name) const {
  const std::size_t mask = by_name_.size() - 1;
  std::size_t s = name_hash(name) & mask;
  for (std::size_t probes = 0; probes < by_name_.size(); ++probes) {
    const NodeId id = by_name_[s];
    if (id == kNoNode || (id < nodes_.size() && nodes_[id].name == name)) {
      return s;
    }
    s = (s + 1) & mask;
  }
  return by_name_.size();
}

void Netlist::reserve_names(std::size_t nodes) {
  std::size_t slots = by_name_.empty() ? 16 : by_name_.size();
  while (slots < 2 * nodes) slots *= 2;
  if (slots == by_name_.size()) return;
  std::vector<NodeId> old(slots, kNoNode);
  old.swap(by_name_);
  for (const NodeId id : old) {
    if (id != kNoNode) by_name_[name_slot(nodes_[id].name)] = id;
  }
}

void Netlist::index_name(NodeId id) {
  reserve_names(live_count_ + 1);
  by_name_[name_slot(nodes_[id].name)] = id;
}

void Netlist::unindex_name(NodeId id) {
  const std::size_t mask = by_name_.size() - 1;
  std::size_t hole = name_slot(nodes_[id].name);
  // Backward shift: pull each later entry of the cluster into the hole
  // unless the hole lies before its home slot, so every remaining name
  // stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask; by_name_[j] != kNoNode;
       j = (j + 1) & mask) {
    const NodeId moved = by_name_[j];
    const std::size_t home = name_hash(nodes_[moved].name) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      by_name_[hole] = moved;
      hole = j;
    }
  }
  by_name_[hole] = kNoNode;
}

NodeId Netlist::new_node(GateType type, const std::string& name) {
  if (name.empty()) throw std::runtime_error("netlist: empty node name");
  if (find(name) != kNoNode) {
    throw std::runtime_error("netlist: duplicate node name '" + name + "'");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node& n = nodes_.emplace_back();
  n.name = name;
  n.type = type;
  index_name(id);
  ++live_count_;
  return id;
}

void Netlist::link_fanin(NodeId id, std::span<const NodeId> fanin) {
  Node& n = nodes_[id];
  n.fanin.assign(fanin.begin(), fanin.end());
  for (NodeId f : n.fanin) {
    if (!is_alive(f)) {
      throw std::runtime_error("netlist: fanin of '" + n.name +
                               "' references a dead or invalid node");
    }
    nodes_[f].fanout.push_back(id);
  }
}

NodeId Netlist::add_input(const std::string& name) {
  const NodeId id = new_node(GateType::Input, name);
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_gate(GateType type, const std::string& name,
                         std::span<const NodeId> fanin) {
  if (type == GateType::Input) {
    throw std::runtime_error("netlist: use add_input for primary inputs");
  }
  const Arity a = arity_of(type);
  const int n = static_cast<int>(fanin.size());
  if (n < a.min || (a.max >= 0 && n > a.max)) {
    throw std::runtime_error(std::string("netlist: bad arity for ") +
                             std::string(to_string(type)) + " gate '" + name +
                             "'");
  }
  const NodeId id = new_node(type, name);
  link_fanin(id, fanin);
  if (type == GateType::Dff) dffs_.push_back(id);
  if (type == GateType::Const0 && const0_ == kNoNode) const0_ = id;
  if (type == GateType::Const1 && const1_ == kNoNode) const1_ = id;
  return id;
}

NodeId Netlist::add_gate(GateType type, const std::string& name,
                         std::initializer_list<NodeId> fanin) {
  return add_gate(type, name, std::span<const NodeId>(fanin.begin(), fanin.size()));
}

void Netlist::mark_output(NodeId id) {
  if (!is_alive(id)) throw std::runtime_error("netlist: mark_output on dead node");
  if (!is_output(id)) outputs_.push_back(id);
}

std::vector<NodeId> Netlist::live_nodes() const {
  std::vector<NodeId> out;
  out.reserve(live_count_);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].dead) out.push_back(i);
  }
  return out;
}

std::size_t Netlist::gate_count() const {
  std::size_t n = 0;
  for (const Node& nd : nodes_) {
    if (!nd.dead && is_combinational(nd.type)) ++n;
  }
  return n;
}

NodeId Netlist::find(const std::string& name) const {
  if (by_name_.empty()) return kNoNode;
  const std::size_t s = name_slot(name);
  if (s == by_name_.size()) return kNoNode;
  const NodeId id = by_name_[s];
  if (id == kNoNode || nodes_[id].dead) return kNoNode;
  return id;
}

std::string Netlist::unique_name(const std::string& base) const {
  if (find(base) == kNoNode) return base;
  int k = 1;
  std::string name = base + "_1";
  while (find(name) != kNoNode) name = base + "_" + std::to_string(++k);
  return name;
}

bool Netlist::is_output(NodeId id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

void Netlist::replace_uses(NodeId old_id, NodeId new_id) {
  if (!is_alive(old_id) || !is_alive(new_id)) {
    throw std::runtime_error("netlist: replace_uses on dead node");
  }
  if (old_id == new_id) return;
  Node& old_node = nodes_[old_id];
  for (NodeId reader : old_node.fanout) {
    for (NodeId& f : nodes_[reader].fanin) {
      if (f == old_id) f = new_id;
    }
    nodes_[new_id].fanout.push_back(reader);
  }
  old_node.fanout.clear();
  for (NodeId& o : outputs_) {
    if (o == old_id) o = new_id;
  }
}

void Netlist::remove_node(NodeId id) {
  if (!is_alive(id)) throw std::runtime_error("netlist: double remove");
  Node& n = nodes_[id];
  if (!n.fanout.empty()) {
    throw std::runtime_error("netlist: removing node '" + n.name +
                             "' that still has readers");
  }
  if (is_output(id)) {
    throw std::runtime_error("netlist: removing primary output '" + n.name + "'");
  }
  for (NodeId f : n.fanin) {
    auto& fo = nodes_[f].fanout;
    fo.erase(std::remove(fo.begin(), fo.end(), id), fo.end());
  }
  // The fanin list stays in the tombstone: sweep_dead_cone and
  // tie_to_constant read it to find the fanins the removal may orphan, and
  // every traversal already skips dead nodes.
  unindex_name(id);
  n.dead = true;
  --live_count_;
  if (n.type == GateType::Dff) {
    dffs_.erase(std::remove(dffs_.begin(), dffs_.end(), id), dffs_.end());
  }
  if (n.type == GateType::Input) {
    inputs_.erase(std::remove(inputs_.begin(), inputs_.end(), id), inputs_.end());
  }
  if (id == const0_) const0_ = kNoNode;
  if (id == const1_) const1_ = kNoNode;
}

void Netlist::rewire_and_remove(NodeId id, NodeId replacement) {
  replace_uses(id, replacement);
  remove_node(id);
}

std::size_t Netlist::sweep_dead_gates(std::vector<NodeId>* removed_log) {
  std::vector<NodeId> all(nodes_.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  return sweep_dead_cone(all, removed_log);
}

std::size_t Netlist::sweep_dead_cone(std::span<const NodeId> seeds,
                                     std::vector<NodeId>* removed_log) {
  // Each pass visits its candidates in ascending id order, like one pass of
  // a scan over every node. A fanin that loses its last reader lies ahead of
  // the cursor (visited later in this pass) or behind it (next pass);
  // queueing it accordingly reproduces the scan's removal set and order
  // while touching only the dead cone.
  std::vector<NodeId> pass(seeds.begin(), seeds.end());
  std::vector<NodeId> next_pass;
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ahead;
  std::size_t removed = 0;
  while (!pass.empty()) {
    if (!std::is_sorted(pass.begin(), pass.end())) {
      std::sort(pass.begin(), pass.end());
    }
    std::size_t i = 0;
    while (i < pass.size() || !ahead.empty()) {
      NodeId id;
      if (!ahead.empty() && (i == pass.size() || ahead.top() < pass[i])) {
        id = ahead.top();
        ahead.pop();
      } else {
        id = pass[i++];
      }
      const Node& n = nodes_[id];
      if (n.dead || !n.fanout.empty()) continue;
      if (n.type == GateType::Input || is_output(id)) continue;
      remove_node(id);
      if (removed_log) removed_log->push_back(id);
      ++removed;
      for (NodeId f : n.fanin) {
        if (!nodes_[f].fanout.empty()) continue;
        if (f > id) {
          ahead.push(f);
        } else {
          next_pass.push_back(f);
        }
      }
    }
    pass.swap(next_pass);
    next_pass.clear();
  }
  return removed;
}

NodeId Netlist::const_node(bool value) {
  NodeId& slot = value ? const1_ : const0_;
  if (slot != kNoNode && is_alive(slot)) return slot;
  const GateType t = value ? GateType::Const1 : GateType::Const0;
  slot = add_gate(t, unique_name(value ? "tie1" : "tie0"), {});
  return slot;
}

void Netlist::retype(NodeId id, GateType t) {
  if (!is_alive(id)) throw std::runtime_error("netlist: retype on dead node");
  const Arity a = arity_of(t);
  const int n = static_cast<int>(nodes_[id].fanin.size());
  if (n < a.min || (a.max >= 0 && n > a.max)) {
    throw std::runtime_error("netlist: retype arity mismatch");
  }
  if (is_sequential(nodes_[id].type) != is_sequential(t)) {
    throw std::runtime_error("netlist: retype cannot change sequential class");
  }
  nodes_[id].type = t;
}

void Netlist::relink_fanin(NodeId id, std::size_t slot, NodeId new_src) {
  if (!is_alive(id) || !is_alive(new_src) || slot >= nodes_[id].fanin.size()) {
    throw std::runtime_error("netlist: bad relink_fanin");
  }
  const NodeId old_src = nodes_[id].fanin[slot];
  auto& fo = nodes_[old_src].fanout;
  fo.erase(std::find(fo.begin(), fo.end(), id));
  nodes_[id].fanin[slot] = new_src;
  nodes_[new_src].fanout.push_back(id);
}

void Netlist::swap_output(NodeId old_id, NodeId new_id) {
  if (!is_alive(new_id)) throw std::runtime_error("netlist: bad swap_output");
  for (NodeId& o : outputs_) {
    if (o == old_id) o = new_id;
  }
}

std::vector<NodeId> Netlist::topo_order() const {
  std::vector<NodeId> order;
  order.reserve(live_count_);
  // In-degree counts only combinational edges: a DFF consumes its d-input but
  // its own output is available at cycle start, so it contributes no edge.
  std::vector<std::uint32_t> indeg(nodes_.size(), 0);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead || is_source(n.type) || is_sequential(n.type)) continue;
    indeg[i] = static_cast<std::uint32_t>(n.fanin.size());
  }
  std::vector<NodeId> ready;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].dead && indeg[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NodeId reader : nodes_[id].fanout) {
      const Node& r = nodes_[reader];
      if (r.dead || is_sequential(r.type) || is_source(r.type)) continue;
      if (--indeg[reader] == 0) ready.push_back(reader);
    }
  }
  if (order.size() != live_count_) {
    throw std::runtime_error("netlist: combinational cycle detected in '" +
                             name_ + "'");
  }
  return order;
}

std::vector<int> Netlist::depths() const {
  std::vector<int> d(nodes_.size(), 0);
  for (NodeId id : topo_order()) {
    const Node& n = nodes_[id];
    if (is_source(n.type) || is_sequential(n.type)) continue;
    int best = 0;
    for (NodeId f : n.fanin) best = std::max(best, d[f]);
    d[id] = best + 1;
  }
  return d;
}

std::vector<NodeId> Netlist::fanin_cone(std::span<const NodeId> roots) const {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeId> stack(roots.begin(), roots.end());
  std::vector<NodeId> cone;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id >= nodes_.size() || nodes_[id].dead || seen[id]) continue;
    seen[id] = 1;
    cone.push_back(id);
    for (NodeId f : nodes_[id].fanin) stack.push_back(f);
  }
  return cone;
}

Netlist Netlist::compact() const {
  Netlist out(name_);
  out.nodes_.reserve(live_count_);
  out.reserve_names(live_count_);
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  // Insertion order respects construction order, and fanin nodes always have
  // smaller ids than their readers except through DFF q-edges; add sources
  // first, then the rest in topological order to be safe.
  for (NodeId id : inputs_) remap[id] = out.add_input(nodes_[id].name);
  // DFFs must exist before their readers; create placeholders first.
  std::vector<NodeId> order = topo_order();
  // DFF nodes are not in "ready set until their d is placed" — topo_order
  // treats them as sinks. Create DFFs after combinational pass; readers of a
  // DFF need its id first, so create DFF shells now with temporary Buf type.
  for (NodeId id : dffs_) {
    // Shell with no fanin yet; fixed up below.
    remap[id] = out.new_node(GateType::Dff, nodes_[id].name);
    out.dffs_.push_back(remap[id]);
  }
  std::vector<NodeId> fi;
  for (NodeId id : order) {
    const Node& n = nodes_[id];
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    fi.clear();
    for (NodeId f : n.fanin) fi.push_back(remap[f]);
    remap[id] = out.add_gate(n.type, n.name, fi);
  }
  for (NodeId id : dffs_) {
    const NodeId d_new = remap[nodes_[id].fanin[0]];
    out.link_fanin(remap[id], std::span<const NodeId>(&d_new, 1));
  }
  for (NodeId id : outputs_) out.mark_output(remap[id]);
  return out;
}

void Netlist::check() const {
  std::size_t live = 0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead) continue;
    ++live;
    const Arity a = arity_of(n.type);
    const int nf = static_cast<int>(n.fanin.size());
    if (nf < a.min || (a.max >= 0 && nf > a.max)) {
      throw std::runtime_error("check: arity violation at '" + n.name + "'");
    }
    for (NodeId f : n.fanin) {
      if (f >= nodes_.size() || nodes_[f].dead) {
        throw std::runtime_error("check: dangling fanin at '" + n.name + "'");
      }
      const auto& fo = nodes_[f].fanout;
      if (std::count(fo.begin(), fo.end(), i) <
          std::count(n.fanin.begin(), n.fanin.end(), f)) {
        throw std::runtime_error("check: fanout set out of sync at '" +
                                 nodes_[f].name + "'");
      }
    }
    for (NodeId r : n.fanout) {
      if (r >= nodes_.size() || nodes_[r].dead) {
        throw std::runtime_error("check: dead reader recorded at '" + n.name + "'");
      }
      const auto& fi = nodes_[r].fanin;
      if (std::find(fi.begin(), fi.end(), i) == fi.end()) {
        throw std::runtime_error("check: phantom fanout at '" + n.name + "'");
      }
    }
  }
  if (live != live_count_) throw std::runtime_error("check: live count drift");
  for (NodeId o : outputs_) {
    if (!is_alive(o)) throw std::runtime_error("check: dead primary output");
  }
  (void)topo_order();  // throws on combinational cycles
}

std::vector<std::size_t> Netlist::type_histogram() const {
  std::vector<std::size_t> h(kGateTypeCount, 0);
  for (const Node& n : nodes_) {
    if (!n.dead) ++h[static_cast<std::size_t>(n.type)];
  }
  return h;
}

}  // namespace tz
