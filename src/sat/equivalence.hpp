// Combinational equivalence checking via SAT miters.
//
// Two roles in the TrojanZero flow:
//  * prove a salvaged circuit N' is NOT equivalent to N (Algorithm 1 removals
//    are real functional changes hidden from the defender's patterns) and
//    extract the distinguishing input vector;
//  * extract HT trigger witnesses: an input under which the infected circuit
//    N'' differs from N.
//
// check_equivalence is a thin wrapper over sat::IncrementalMiter
// (sat/miter.hpp): per-output cone-sliced queries on one persistent arena
// solver, structural sharing between the two netlists, and a BitSimulator
// random-pattern pre-pass, all at the default MiterOptions. IncrementalMiter
// takes the options directly: `prepass` turns the pre-pass off, `dimacs_path`
// dumps the final CNF.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/types.hpp"

namespace tz::sat {

struct EquivalenceResult {
  bool equivalent = false;
  bool decided = true;  ///< false when the conflict limit was hit.
  /// When not equivalent: an input assignment (by PI index) exposing a
  /// differing primary output.
  std::vector<bool> counterexample;
  /// The DFF frame-input assignment of the same witness, indexed by netlist
  /// `a`'s dff order. DFFs present only in `b` (an inserted HT's counter) are
  /// pinned to their reset state 0 by the miter, so `counterexample` +
  /// `dff_values` (+ zeros for b's extras) replays through BitSimulator.
  std::vector<bool> dff_values;
  /// Primary-output index the witness distinguishes (-1 when equivalent).
  int failing_output = -1;
};

/// Check combinational equivalence of two netlists with identical PI/PO
/// counts (paired by position). DFF outputs, if any, are paired by position
/// as free frame inputs (single-frame equivalence).
EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    std::int64_t conflict_limit = -1);

}  // namespace tz::sat
