// Signal-probability analysis (the paper's "Probability Computation Program").
//
// Computes P(node = 1) for every node by propagating probabilities through
// the gate library in topological order, assuming (a) every primary input is
// 1 with probability 0.5 and (b) gate inputs are statistically independent —
// exactly the model of Sec. II-B.2. DFF state probabilities are solved by a
// damped fixpoint iteration over the DFF domain (dff_domain / settle_dffs,
// shared with the incremental PowerTracker). Switching activity follows the
// standard temporal-independence estimate alpha = 2 * P1 * (1 - P1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

/// P(output = 1) of one combinational gate given fanin probabilities `p`
/// (independence assumption). The single evaluation kernel shared by
/// SignalProb's global pass and the incremental PowerTracker — both must
/// produce bit-identical doubles. Throws on source nodes (Input/Dff).
double gate_p1(const Node& n, const std::vector<double>& p);

/// Switching activity per evaluation of a node with P(1) = `p1`:
/// alpha = 2 * p1 * p0.
inline double switching_activity(double p1) { return 2.0 * p1 * (1.0 - p1); }

/// The DFF domain: every live combinational node reachable from a DFF output
/// (the only nodes whose P1 depends on DFF state), in a topological order
/// over the domain's own edges. Node ids are not enough: a splice can make a
/// low-id reader consume a new high-id node.
std::vector<NodeId> dff_domain(const Netlist& nl);

/// The sequential solve of SignalProb and PowerTracker: reset every DFF to
/// 0, propagate `domain` (from dff_domain) in `p1`, then run the damped
/// DFF iteration (bounded, with a fixed epsilon) re-propagating the domain
/// each round. Every node outside the domain must already hold its final
/// P1. Returns whether the iteration converged.
bool settle_dffs(const Netlist& nl, std::span<const NodeId> domain,
                 std::vector<double>& p1);

class SignalProb {
 public:
  /// Every primary input is 1 with probability 0.5 (the paper's model).
  explicit SignalProb(const Netlist& nl);

  /// P(node = 1). Index by NodeId; dead slots hold 0.
  double p1(NodeId id) const { return p1_[id]; }
  double p0(NodeId id) const { return 1.0 - p1_[id]; }
  const std::vector<double>& all_p1() const { return p1_; }

  double activity(NodeId id) const { return switching_activity(p1_[id]); }

  bool dff_converged() const { return dff_converged_; }

 private:
  std::vector<double> p1_;
  bool dff_converged_ = true;
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
