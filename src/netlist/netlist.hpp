// Gate-level netlist IR.
//
// A Netlist is a named DAG of gates (plus DFF cells which break combinational
// cycles). Node storage is index-stable: removing a gate tombstones its slot
// so NodeIds held by analyses stay valid; compact() produces a dense copy.
//
// This is the common substrate for simulation, signal-probability analysis,
// ATPG, SAT encoding, power/area models and the TrojanZero transformations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate_type.hpp"

namespace tz {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// One cell instance. `fanin` is ordered (matters for MUX); `fanout` is the
/// set of nodes that read this node's output, maintained by Netlist.
struct Node {
  GateType type = GateType::Input;
  std::string name;
  std::vector<NodeId> fanin;
  std::vector<NodeId> fanout;
  bool dead = false;  ///< Tombstone; slot is ignored by all traversals.
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction ----

  /// Add a primary input. Name must be unique.
  NodeId add_input(const std::string& name);

  /// Add a gate with the given fanin. Name must be unique; arity is checked.
  NodeId add_gate(GateType type, const std::string& name,
                  std::span<const NodeId> fanin);
  NodeId add_gate(GateType type, const std::string& name,
                  std::initializer_list<NodeId> fanin);

  /// Mark an existing node as a primary output (idempotent).
  void mark_output(NodeId id);

  // ---- access ----

  std::size_t raw_size() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  bool is_alive(NodeId id) const {
    return id < nodes_.size() && !nodes_[id].dead;
  }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }

  /// Live node ids in insertion order.
  std::vector<NodeId> live_nodes() const;

  /// Number of live nodes of any type.
  std::size_t live_count() const { return live_count_; }

  /// Number of live combinational gates (excludes PIs, ties and DFFs).
  std::size_t gate_count() const;

  /// Look up a node by name. Returns kNoNode if absent or dead.
  NodeId find(const std::string& name) const;

  /// Derive a node name from `base` that is not yet taken: `base` itself when
  /// free, else `base_1`, `base_2`, ... The single collision-avoidance scheme
  /// shared by every rewrite that materialises new cells.
  std::string unique_name(const std::string& base) const;

  /// Replace the driver recorded at `outputs()[index]` (undo helper for
  /// rewrites that retargeted a primary output). `id` must be alive.
  void restore_output(std::size_t index, NodeId id);

  /// True if `id` is a primary output.
  bool is_output(NodeId id) const;

  // ---- mutation (used by Algorithm 1/2 rewrites) ----

  /// Replace every read of `old_id` with `new_id` and fix fanout sets.
  /// Output markings on `old_id` transfer to `new_id`.
  void replace_uses(NodeId old_id, NodeId new_id);

  /// Tombstone a node. Precondition: fanout empty and not a primary output.
  void remove_node(NodeId id);

  /// Detach and tombstone a node even if it still has readers: every reader's
  /// fanin entry is rewired to `replacement`. Used for constant tying.
  void rewire_and_remove(NodeId id, NodeId replacement);

  /// Resurrect a tombstoned node (undo of remove_node). The tombstone keeps
  /// its fanin list, which must reference live nodes — when undoing a batch
  /// of removals, restore in reverse removal order.
  void restore_node(NodeId id);

  /// Remove nodes with no live readers that are not outputs, transitively.
  /// Returns the number of nodes removed. PIs are never removed (they are
  /// part of the interface); orphaned tie cells and DFFs are. When `removed`
  /// is given, the ids are appended in removal order (the order restore_node
  /// undoes when walked backwards). One O(V) scan plus O(log V) per removal.
  std::size_t sweep_dead_gates(std::vector<NodeId>* removed = nullptr);

  /// sweep_dead_gates restricted to `seeds` and the fanin cone they free:
  /// only seeds and nodes whose last reader the sweep removes are examined,
  /// at O(cone log cone). The removal set and order equal sweep_dead_gates'
  /// when the seeds cover every node the last edit left unread and the
  /// netlist had no other unread node (PIs and outputs aside).
  std::size_t sweep_dead_cone(std::span<const NodeId> seeds,
                              std::vector<NodeId>* removed = nullptr);

  /// Get-or-create a tie cell of the given constant value.
  NodeId const_node(bool value);

  /// Change the type of a gate in place (arity of new type must accept the
  /// current fanin count).
  void retype(NodeId id, GateType t);

  /// Repoint one fanin slot of `id` to `new_src`, fixing both fanout sets.
  void relink_fanin(NodeId id, std::size_t slot, NodeId new_src);

  /// Replace primary-output marking of `old_id` with `new_id`.
  void swap_output(NodeId old_id, NodeId new_id);

  // ---- analysis helpers ----

  /// Topological order over live nodes. DFF outputs are treated as sources
  /// (their d-input edge is ignored), so the order is valid for one
  /// combinational evaluation pass. Throws std::runtime_error on a
  /// combinational cycle.
  std::vector<NodeId> topo_order() const;

  /// Logic depth (max gate count on any PI/DFF -> node path) per node.
  std::vector<int> depths() const;

  /// Transitive fanin cone of `roots` (live ids, includes roots).
  std::vector<NodeId> fanin_cone(std::span<const NodeId> roots) const;

  /// Deep copy with tombstones dropped and ids renumbered densely.
  /// Name->id mapping is preserved; fanin order is preserved.
  Netlist compact() const;

  /// Structural sanity check; throws std::runtime_error with a description
  /// of the first violation found (dangling ids, fanout mismatches, bad
  /// arity, dead references).
  void check() const;

  /// Per-type histogram of live nodes.
  std::vector<std::size_t> type_histogram() const;

 private:
  NodeId new_node(GateType type, const std::string& name);
  void link_fanin(NodeId id, std::span<const NodeId> fanin);

  /// tz::verify needs the raw containers (by_name_, role lists) to audit the
  /// bookkeeping the public API maintains; the test peer corrupts them.
  friend class NetlistChecker;
  friend struct NetlistTestPeer;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::size_t live_count_ = 0;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
};

}  // namespace tz
