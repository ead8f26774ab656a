// Netlist rewriting passes used by the TrojanZero transformations.
//
// Algorithm 1 replaces a candidate gate's output with a constant tie and then
// removes every preceding gate that became unobservable. These helpers keep
// that surgery structurally sound (fanout bookkeeping, output preservation)
// and additionally provide the constant-propagation clean-up the paper's
// "update circuit to N'" step implies.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

/// Result of one tie-to-constant rewrite.
struct TieResult {
  std::size_t gates_removed = 0;  ///< Gates swept from the dead fanin cone.
  NodeId tie = kNoNode;           ///< The tie cell readers were rewired to.
};

/// Undo log of one tie_to_constant: enough to restore the removed cone and
/// the rewired readers without snapshotting the whole netlist. Algorithm 1
/// records one of these per candidate and rolls back on a failed defender
/// check — O(cone) instead of an O(netlist) copy.
struct TieUndo {
  NodeId target = kNoNode;
  NodeId tie = kNoNode;
  bool tie_created = false;  ///< The tie cell was created by this rewrite.
  /// Reader fanin slots that were repointed from `target` to `tie`.
  std::vector<std::pair<NodeId, std::size_t>> rewired;
  /// outputs() indices that were retargeted from `target` to `tie`.
  std::vector<std::size_t> output_slots;
  /// Tombstoned ids in removal order (`target` first, then the swept cone).
  std::vector<NodeId> removed;
};

/// Replace `target`'s output with constant `value` (paper: "connect node to
/// logic 0/1"), then sweep the gates whose outputs are no longer read.
/// `target` must be a combinational gate. When `undo` is given, the rewrite
/// is recorded so undo_tie can revert it exactly.
///
/// The sweep walks only the target's dead fanin cone (Netlist::
/// sweep_dead_cone), so a tie costs O(cone), not O(netlist). Precondition:
/// no gate is unread before the tie (make_benchmark netlists are swept at
/// generation, and each tie keeps it so); a gate left unread elsewhere is
/// not removed.
TieResult tie_to_constant(Netlist& nl, NodeId target, bool value,
                          TieUndo* undo = nullptr);

/// Revert a tie_to_constant recorded in `undo`: resurrect the removed cone
/// (reverse removal order), repoint the rewired readers back to the target
/// and drop the tie cell again if the rewrite created it.
void undo_tie(Netlist& nl, const TieUndo& undo);

/// Propagate tie cells through the logic: AND(x,0)->0, OR(x,1)->1,
/// AND(x,1)->BUF(x), XOR(x,0)->BUF(x), XOR(x,1)->NOT(x), MUX with constant
/// select, etc. Returns the number of gates simplified away. Outputs are
/// preserved (they may end up driven by ties or buffers).
std::size_t propagate_constants(Netlist& nl);

/// Count of live tie cells currently feeding logic.
std::size_t tie_cell_count(const Netlist& nl);

}  // namespace tz
