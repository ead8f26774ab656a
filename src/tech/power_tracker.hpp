// Incremental power/area tracking for netlist rewrites.
//
// A PowerTracker holds PowerModel::analyze's result as persistent per-node
// rows (P1, dynamic, leakage, area) and applies structural edits as deltas:
// after an add-gate / remove-gate / tie / splice, only the edit's fanout cone
// is re-evaluated (event-driven over a topological-rank worklist) plus the
// rows whose load capacitance changed. The tracker owns no formula of its own: P1
// comes from gate_p1 (prob/signal_prob.hpp) and every row from
// PowerModel::node_power, so a resynced tracker reports the same doubles a
// from-scratch PowerModel::analyze would — which is what lets the Algorithm 2
// cap checks and the dummy-balancing loop drop their per-trial
// analyze->SignalProb pass without changing a single accept decision.
//
// A DFF reads its reset value (P1 = 0) as a PI reads 0.5, so its P1 never
// depends on its d-input and an edit's cone stops at it. The only DFFs are
// the inserted HT's dormant counter; signal_prob.hpp gives the reasons
// (combinational hosts, Najm's temporal-independence caveat) and the error
// bound, the flow row's pft.
//
// Transactions make speculative edits cheap: begin(), mutate the netlist,
// resync(), inspect totals(), then rollback() (restoring the recorded rows
// bit-exactly) or commit().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/rank_worklist.hpp"
#include "tech/power_model.hpp"

namespace tz {

class PowerTracker {
 public:
  /// Seeds the rows with a full analysis. The netlist and model must outlive
  /// the tracker; structural edits must be reported through resync().
  PowerTracker(const Netlist& nl, const PowerModel& pm);

  /// Re-sync after a structural edit.
  ///  - `fresh`: nodes added, removed (tombstoned) or whose fanin changed —
  ///    their P1 is recomputed and propagated through the fanout cone.
  ///  - `cap_changed`: nodes whose reader set changed — their dynamic row is
  ///    refreshed for the new load capacitance.
  void resync(std::span<const NodeId> fresh,
              std::span<const NodeId> cap_changed);

  /// Current totals, accumulated in NodeId order — the same summation order
  /// as PowerModel::analyze, so a synced tracker matches it bit-for-bit.
  PowerReport totals() const;

  /// Snapshot of the per-node rows as a PowerBreakdown — the same vectors a
  /// from-scratch PowerModel::analyze of the current netlist would return
  /// (bit-for-bit; both call PowerModel::node_power). Lets
  /// detector sweeps that mutate a DUT one gate at a time feed the per-die
  /// variation sampling without re-running analyze -> SignalProb.
  PowerBreakdown breakdown() const;

  double p1(NodeId id) const { return id < p1_.size() ? p1_[id] : 0.0; }
  double dynamic_uw(NodeId id) const {
    return id < dyn_.size() ? dyn_[id] : 0.0;
  }

  // ---- transactions (one level) ----
  void begin();     ///< Start recording rows for rollback.
  void rollback();  ///< Restore every row touched since begin().
  void commit();    ///< Keep the edits, drop the undo log.

 private:
  void grow();
  void touch(NodeId id);
  void refresh_rows(NodeId id);

  const Netlist* nl_;
  const PowerModel* pm_;
  std::vector<double> p1_, dyn_, leak_, area_;
  std::vector<std::uint32_t> rank_;
  std::uint32_t next_rank_ = 0;
  RankWorklist worklist_{rank_};

  // Transaction state.
  struct Saved {
    NodeId id;
    double p1, dyn, leak, area;
  };
  bool txn_ = false;
  std::size_t txn_old_size_ = 0;
  std::uint32_t txn_old_next_rank_ = 0;
  std::vector<char> touched_;
  std::vector<Saved> undo_;
};

}  // namespace tz
