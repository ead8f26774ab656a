// Gate-level netlist IR.
//
// A Netlist is a named DAG of gates (plus DFF cells which break combinational
// cycles). Node storage is index-stable: removing a gate tombstones its slot
// so NodeIds held by analyses stay valid; compact() produces a dense copy.
//
// This is the common substrate for simulation, signal-probability analysis,
// ATPG, SAT encoding, power/area models and the TrojanZero transformations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate_type.hpp"

namespace tz {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Ordered NodeId list in 16 bytes: up to two ids inline, a heap buffer
/// beyond. Most gates read one or two nets and most nets have one or two
/// readers, so a netlist copy allocates nothing for them. Contiguous, with
/// pointer iterators, so it reads like the std::vector it replaces and
/// converts to std::span<const NodeId>.
class IdList {
 public:
  using value_type = NodeId;
  using size_type = std::size_t;
  using iterator = NodeId*;
  using const_iterator = const NodeId*;

  IdList() = default;
  IdList(std::initializer_list<NodeId> ids) { assign(ids.begin(), ids.end()); }
  IdList(const IdList& o) { assign(o.begin(), o.end()); }
  IdList(IdList&& o) noexcept { take(o); }
  IdList& operator=(const IdList& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  IdList& operator=(IdList&& o) noexcept {
    if (this != &o) {
      free_heap();
      take(o);
    }
    return *this;
  }
  ~IdList() { free_heap(); }

  NodeId* data() { return on_heap() ? heap_ : inline_; }
  const NodeId* data() const { return on_heap() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Ids storable without reallocating: kInline until the first spill.
  size_type capacity() const { return cap_; }
  NodeId& operator[](size_type i) { return data()[i]; }
  const NodeId& operator[](size_type i) const { return data()[i]; }
  const NodeId& front() const { return data()[0]; }
  const NodeId& back() const { return data()[size_ - 1]; }

  void reserve(size_type n) {
    if (n > cap_) regrow(n);
  }
  void push_back(NodeId id) {
    if (size_ == cap_) regrow(2 * static_cast<size_type>(cap_));
    data()[size_++] = id;
  }
  void pop_back() { --size_; }
  /// Keeps the capacity, like std::vector::clear.
  void clear() { size_ = 0; }
  void resize(size_type n, NodeId fill = 0) {
    reserve(n);
    if (n > size_) std::fill(data() + size_, data() + n, fill);
    size_ = static_cast<std::uint32_t>(n);
  }
  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }
  iterator insert(const_iterator pos, NodeId id) {
    const size_type at = static_cast<size_type>(pos - begin());
    push_back(id);
    std::rotate(begin() + at, end() - 1, end());
    return begin() + at;
  }
  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) {
    NodeId* f = begin() + (first - begin());
    NodeId* tail = std::copy(begin() + (last - begin()), end(), f);
    size_ = static_cast<std::uint32_t>(tail - begin());
    return f;
  }

  friend bool operator==(const IdList& a, const IdList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  static constexpr size_type kInline = 2;

 private:
  bool on_heap() const { return cap_ > kInline; }
  void free_heap() {
    if (on_heap()) delete[] heap_;
  }
  void take(IdList& o) {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
    o.size_ = 0;
    o.cap_ = kInline;
  }
  /// Move the ids into a heap buffer of max(n, 4) slots.
  void regrow(size_type n) {
    n = std::max<size_type>(n, 4);
    NodeId* buf = new NodeId[n];
    std::copy(begin(), end(), buf);
    free_heap();
    heap_ = buf;
    cap_ = static_cast<std::uint32_t>(n);
  }

  union {
    NodeId inline_[kInline] = {kNoNode, kNoNode};
    NodeId* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

static_assert(sizeof(IdList) == 16);

/// One cell instance. `fanin` is ordered (matters for MUX); `fanout` is the
/// set of nodes that read this node's output, maintained by Netlist.
struct Node {
  std::string name;
  IdList fanin;
  IdList fanout;
  GateType type = GateType::Input;
  bool dead = false;  ///< Tombstone; slot is ignored by all traversals.
};

// Netlists hold one Node per cell ever created; a copy of a 20k-gate
// netlist is dominated by this array.
static_assert(sizeof(Node) <= 80, "Node layout regressed");

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

  /// Remove nodes with no live readers that are not outputs, transitively.
  /// Returns the number of nodes removed. PIs are never removed (they are
  /// part of the interface); orphaned tie cells and DFFs are. When `removed`
  /// is given, the ids are appended in removal order. One O(V) scan plus
  /// O(log V) per removal.
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


  // Name index: open addressing with linear probing over a power-of-two
  // slot array of NodeIds (kNoNode = empty), keyed by each node's own
  // `name`, at most half full. Invariant: it holds exactly the live nodes,
  // each reachable by probing from its name's hash; removal backward-shifts
  // the rest of the cluster, so there are no tombstones.

  /// The slot holding `name`, else the empty slot that ends its probe;
  /// by_name_.size() when neither exists (only in a corrupted table).
  std::size_t name_slot(std::string_view name) const;
  /// Grow the table, if needed, to hold `nodes` live names.
  void reserve_names(std::size_t nodes);
  /// Index the live node `id` (its name must be absent).
  void index_name(NodeId id);
  /// Drop node `id`'s entry and backward-shift its cluster.
  void unindex_name(NodeId id);

  /// tz::verify needs the raw containers (by_name_, role lists) to audit the
  /// bookkeeping the public API maintains; the test peer corrupts them.
  friend class NetlistChecker;
  friend struct NetlistTestPeer;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::vector<NodeId> by_name_;  ///< Name index slots; see name_slot.
  std::size_t live_count_ = 0;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
};

}  // namespace tz
