// Signal-probability analysis (the paper's "Probability Computation Program").
//
// Computes P(node = 1) for every node by propagating probabilities through
// the gate library in topological order, assuming (a) every primary input is
// 1 with probability 0.5 and (b) gate inputs are statistically independent —
// exactly the model of Sec. II-B.2. DFF state probabilities are solved by
// fixpoint iteration. Switching activity follows the standard temporal-
// independence estimate alpha = 2 * P1 * (1 - P1).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

struct SignalProbOptions {
  double input_p1 = 0.5;  ///< P(PI = 1); the paper assumes 0.5.
};

/// The DFF fixpoint of SignalProb and PowerTracker: at most kDffMaxIters
/// damped iterations, stopping once no DFF probability moves by kDffEpsilon.
/// One pair of constants, so the incremental tracker keeps bit parity with
/// the global pass.
inline constexpr int kDffMaxIters = 64;
inline constexpr double kDffEpsilon = 1e-9;

/// P(output = 1) of one combinational gate given fanin probabilities `p`
/// (independence assumption). The single evaluation kernel shared by
/// SignalProb's global pass and the incremental PowerTracker — both must
/// produce bit-identical doubles. Throws on source nodes (Input/Dff).
double gate_p1(const Node& n, const std::vector<double>& p);

class SignalProb {
 public:
  explicit SignalProb(const Netlist& nl, SignalProbOptions opt = {});

  /// P(node = 1). Index by NodeId; dead slots hold 0.
  double p1(NodeId id) const { return p1_[id]; }
  double p0(NodeId id) const { return 1.0 - p1_[id]; }
  const std::vector<double>& all_p1() const { return p1_; }

  /// Switching activity per evaluation: alpha = 2 * p1 * p0.
  double activity(NodeId id) const {
    return 2.0 * p1_[id] * (1.0 - p1_[id]);
  }

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
