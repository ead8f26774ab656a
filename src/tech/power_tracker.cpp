#include "tech/power_tracker.hpp"

#include <stdexcept>

#include "prob/signal_prob.hpp"

namespace tz {

PowerTracker::PowerTracker(const Netlist& nl, const PowerModel& pm)
    : nl_(&nl), pm_(&pm) {
  const SignalProb sp(nl);
  const PowerBreakdown b = pm.analyze(nl, sp);
  p1_ = sp.all_p1();
  dyn_ = b.dynamic_uw;
  leak_ = b.leakage_uw;
  area_ = b.area_ge;
  rank_.assign(nl.raw_size(), 0);
  const std::vector<NodeId> order = nl.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[order[i]] = static_cast<std::uint32_t>(i);
  }
  next_rank_ = static_cast<std::uint32_t>(order.size());
  worklist_.resize(nl.raw_size());
  touched_.assign(nl.raw_size(), 0);
}

void PowerTracker::grow() {
  const std::size_t n = nl_->raw_size();
  if (p1_.size() >= n) return;
  // New nodes are appended by Netlist::add_gate reading only already-present
  // nodes, so id order extends the topological rank order.
  for (std::size_t id = p1_.size(); id < n; ++id) {
    rank_.push_back(next_rank_++);
  }
  p1_.resize(n, 0.0);
  dyn_.resize(n, 0.0);
  leak_.resize(n, 0.0);
  area_.resize(n, 0.0);
  worklist_.resize(n);
  touched_.resize(n, 0);
}

void PowerTracker::touch(NodeId id) {
  if (!txn_ || touched_[id]) return;
  touched_[id] = 1;
  undo_.push_back({id, p1_[id], dyn_[id], leak_[id], area_[id]});
}

void PowerTracker::refresh_rows(NodeId id) {
  touch(id);
  const PowerReport r =
      pm_->node_power(*nl_, id, switching_activity(p1_[id]));
  dyn_[id] = r.dynamic_uw;
  leak_[id] = r.leakage_uw;
  area_[id] = r.area_ge;
}

void PowerTracker::resync(std::span<const NodeId> fresh,
                          std::span<const NodeId> cap_changed) {
  grow();
  std::vector<NodeId> rows_dirty(fresh.begin(), fresh.end());
  rows_dirty.insert(rows_dirty.end(), cap_changed.begin(), cap_changed.end());

  for (NodeId id : fresh) worklist_.push(id);
  // Event-driven P1 propagation; a node whose recomputed P1 is unchanged
  // generates no further events. Re-queued nodes converge to the same pure
  // function of the final fanin values regardless of pop order. A DFF is a
  // source (its reset value), so it stops the cone like a PI does.
  while (!worklist_.empty()) {
    const NodeId id = worklist_.pop();
    if (!nl_->is_alive(id)) {
      // Tombstoned seed: zero its contribution; it has no readers.
      touch(id);
      p1_[id] = 0.0;
      continue;
    }
    const double next = gate_p1(nl_->node(id), p1_);
    if (next == p1_[id]) continue;
    touch(id);
    p1_[id] = next;
    rows_dirty.push_back(id);
    for (NodeId reader : nl_->node(id).fanout) {
      if (nl_->is_alive(reader)) worklist_.push(reader);
    }
  }
  for (NodeId id : rows_dirty) refresh_rows(id);
}

PowerReport PowerTracker::totals() const {
  // NodeId-order accumulation: dead rows hold +0.0, so the sums equal the
  // live-only accumulation PowerModel::analyze performs.
  PowerReport t;
  for (std::size_t id = 0; id < p1_.size(); ++id) {
    t.dynamic_uw += dyn_[id];
    t.leakage_uw += leak_[id];
    t.area_ge += area_[id];
  }
  return t;
}

PowerBreakdown PowerTracker::breakdown() const {
  PowerBreakdown b;
  b.dynamic_uw = dyn_;
  b.leakage_uw = leak_;
  b.area_ge = area_;
  b.totals = totals();
  return b;
}

void PowerTracker::begin() {
  if (txn_) throw std::logic_error("PowerTracker: nested transaction");
  txn_ = true;
  txn_old_size_ = p1_.size();
  txn_old_next_rank_ = next_rank_;
}

void PowerTracker::rollback() {
  if (!txn_) throw std::logic_error("PowerTracker: rollback without begin");
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (it->id < txn_old_size_) {
      p1_[it->id] = it->p1;
      dyn_[it->id] = it->dyn;
      leak_[it->id] = it->leak;
      area_[it->id] = it->area;
    }
    touched_[it->id] = 0;
  }
  undo_.clear();
  p1_.resize(txn_old_size_);
  dyn_.resize(txn_old_size_);
  leak_.resize(txn_old_size_);
  area_.resize(txn_old_size_);
  rank_.resize(txn_old_size_);
  worklist_.resize(txn_old_size_);
  touched_.resize(txn_old_size_);
  next_rank_ = txn_old_next_rank_;
  txn_ = false;
}

void PowerTracker::commit() {
  if (!txn_) throw std::logic_error("PowerTracker: commit without begin");
  for (const Saved& s : undo_) touched_[s.id] = 0;
  undo_.clear();
  txn_ = false;
}

}  // namespace tz
