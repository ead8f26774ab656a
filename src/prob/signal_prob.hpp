// Signal-probability analysis (the paper's "Probability Computation Program").
//
// Computes P(node = 1) for every node by propagating probabilities through
// the gate library in topological order, assuming (a) every primary input is
// 1 with probability 0.5 and (b) gate inputs are statistically independent —
// exactly the model of Sec. II-B.2. Switching activity follows the standard
// temporal-independence estimate alpha = 2 * P1 * (1 - P1).
//
// A DFF is a source that reads its reset value, P1 = 0, as a PI reads 0.5.
// Hosts are combinational, so the only DFFs a flow sees are the inserted
// HT's counter, which starts at 0 and is built to stay dormant; and the
// zero-delay alpha assumes temporal independence, which a register does not
// have (Najm, IEEE TVLSI 1994), so no steady-state solve would be exact
// either. The error is bounded by a number each flow row reports: over a
// window of L cycles with trigger probability q, every counter cell's
// per-cycle P1 and toggle rate are at most P(the trigger fired at least once)
// = 1 - (1 - q)^L, the row's pft (analytic_pft(q, L, 0)).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

/// P(output = 1) of one node given fanin probabilities `p` (independence
/// assumption); a primary input reads 0.5 and a DFF its reset value 0. The
/// single evaluation kernel shared by SignalProb's global pass and the
/// incremental PowerTracker — both must produce bit-identical doubles.
double gate_p1(const Node& n, const std::vector<double>& p);

/// Switching activity per evaluation of a node with P(1) = `p1`:
/// alpha = 2 * p1 * p0.
inline double switching_activity(double p1) { return 2.0 * p1 * (1.0 - p1); }

class SignalProb {
 public:
  /// Every primary input is 1 with probability 0.5 (the paper's model).
  explicit SignalProb(const Netlist& nl);

  /// P(node = 1). Index by NodeId; dead slots hold 0.
  double p1(NodeId id) const { return p1_[id]; }
  double p0(NodeId id) const { return 1.0 - p1_[id]; }
  const std::vector<double>& all_p1() const { return p1_; }

  double activity(NodeId id) const { return switching_activity(p1_[id]); }

 private:
  std::vector<double> p1_;
};

/// Candidate gates for Algorithm 1: combinational, non-output nodes whose
/// output probability satisfies P1 >= pth (tie-to-1 candidates, the paper's
/// set Y) or P0 >= pth (tie-to-0 candidates, set X).
struct Candidate {
  NodeId node = kNoNode;
  bool tie_value = false;  ///< Constant the node would be replaced with.
  double probability = 0;  ///< max(P0, P1) at the node.
};

/// Extract the candidate set C = X ∪ Y (Algorithm 1 lines 4-10), ordered by
/// decreasing probability so the most-certain nodes are tried first.
std::vector<Candidate> find_candidates(const Netlist& nl, const SignalProb& sp,
                                       double pth);

/// Monte-Carlo estimate of P1 per node over `patterns` random vectors
/// (cross-check for the analytic model; exact as patterns -> inf for
/// combinational circuits).
std::vector<double> monte_carlo_p1(const Netlist& nl, std::size_t patterns,
                                   std::uint64_t seed);

}  // namespace tz
