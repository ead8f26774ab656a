// Min-heap worklist over topological ranks, shared by the event-driven
// engines (the cone pass behind fault simulation and the suite oracle, the
// power tracker, PODEM implication). Pops the lowest-rank node first so a DAG cone is evaluated
// fanin-before-reader; the queued flag makes push idempotent between pops.
//
// The rank vector is owned by the caller (it may grow as nodes are added);
// the worklist reads it by index on every comparison, so appending ranks
// between operations is safe as long as ranks for queued ids stay valid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

class RankWorklist {
 public:
  explicit RankWorklist(const std::vector<std::uint32_t>& rank)
      : rank_(&rank) {}

  /// Grow the queued-flag array to cover `n` node ids.
  void resize(std::size_t n) { queued_.resize(n, 0); }

  bool empty() const { return heap_.empty(); }

  /// Idempotent between pops: a node already queued is not pushed twice.
  void push(NodeId id) {
    if (queued_[id]) return;
    queued_[id] = 1;
    heap_.push_back(id);
    std::push_heap(heap_.begin(), heap_.end(), Cmp{rank_});
  }

  /// Pops the queued node with the lowest topological rank.
  NodeId pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Cmp{rank_});
    const NodeId id = heap_.back();
    heap_.pop_back();
    queued_[id] = 0;
    return id;
  }

 private:
  struct Cmp {
    const std::vector<std::uint32_t>* rank;
    bool operator()(NodeId a, NodeId b) const {
      return (*rank)[a] > (*rank)[b];  // min-heap on rank
    }
  };
  const std::vector<std::uint32_t>* rank_;
  std::vector<char> queued_;
  std::vector<NodeId> heap_;
};

}  // namespace tz
