// Netlist rewriting passes used by the TrojanZero transformations.
//
// Algorithm 1 replaces a candidate gate's output with a constant tie and then
// removes every preceding gate that became unobservable. These helpers keep
// that surgery structurally sound (fanout bookkeeping, output preservation)
// and additionally provide the constant-propagation clean-up the paper's
// "update circuit to N'" step implies.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace tz {

/// Result of one tie-to-constant rewrite.
struct TieResult {
  std::size_t gates_removed = 0;  ///< Gates swept from the dead fanin cone.
  NodeId tie = kNoNode;           ///< The tie cell readers were rewired to.
};

/// Replace `target`'s output with constant `value` (paper: "connect node to
/// logic 0/1"), then sweep the gates whose outputs are no longer read.
/// `target` must be a combinational gate.
///
/// The sweep walks only the target's dead fanin cone (Netlist::
/// sweep_dead_cone), so a tie costs O(cone), not O(netlist). Precondition:
/// no gate is unread before the tie (make_benchmark netlists are swept at
/// generation, and each tie keeps it so); a gate left unread elsewhere is
/// not removed.
TieResult tie_to_constant(Netlist& nl, NodeId target, bool value);

/// Propagate tie cells through the logic: AND(x,0)->0, OR(x,1)->1,
/// AND(x,1)->BUF(x), XOR(x,0)->BUF(x), XOR(x,1)->NOT(x), MUX with constant
/// select, etc. Returns the number of gates simplified away. Outputs are
/// preserved (they may end up driven by ties or buffers).
std::size_t propagate_constants(Netlist& nl);

}  // namespace tz
