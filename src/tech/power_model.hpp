// Power and area analysis (the paper's "Power and Area Computation" boxes).
//
// Dynamic power per node:  P_dyn = alpha * f * (E_internal + 1/2 C_load V^2)
// where alpha is the switching activity (toggles per clock), C_load the sum
// of reader pin capacitances plus per-branch wire load, and E_internal the
// cell's own short-circuit/internal energy. Leakage is a per-cell constant.
// Area is reported in NAND2 gate equivalents (GE), matching Table I.
//
// Activity comes from either the analytic signal-probability model
// (alpha = 2 P1 P0, the paper's switching-activity-aware estimate) or from
// counted toggles of a simulation run.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "prob/signal_prob.hpp"
#include "sim/patterns.hpp"
#include "tech/cell_library.hpp"

namespace tz {

/// Aggregate report, in the paper's units (µW and GE).
struct PowerReport {
  double dynamic_uw = 0.0;
  double leakage_uw = 0.0;
  double area_ge = 0.0;
  double total_uw() const { return dynamic_uw + leakage_uw; }
};

/// Per-node breakdown; index by NodeId (dead slots are zero).
struct PowerBreakdown {
  std::vector<double> dynamic_uw;
  std::vector<double> leakage_uw;
  std::vector<double> area_ge;
  PowerReport totals;
};

class PowerModel {
 public:
  /// The library is copied: a PowerModel is self-contained and safe to build
  /// from a temporary like CellLibrary::tsmc65_like().
  explicit PowerModel(CellLibrary lib) : lib_(std::move(lib)) {}

  /// Analytic analysis using signal-probability switching activity
  /// (the flow's default; used for thresholds and all Table I numbers).
  PowerBreakdown analyze(const Netlist& nl, const SignalProb& sp) const;

  /// Convenience: builds the SignalProb internally.
  PowerBreakdown analyze(const Netlist& nl) const;

  /// Simulation-based analysis: activity = toggles / (patterns - 1) counted
  /// while applying `stimulus` in sequence.
  PowerBreakdown analyze_simulated(const Netlist& nl,
                                   const PatternSet& stimulus) const;

  /// Load capacitance seen by a node's output (fF).
  double load_cap_ff(const Netlist& nl, NodeId id) const;

  /// One node's row at switching activity `activity`: the per-cell formula
  /// behind every analysis and PowerTracker. Zero for a dead slot.
  PowerReport node_power(const Netlist& nl, NodeId id, double activity) const;

  const CellLibrary& library() const { return lib_; }

 private:
  PowerBreakdown analyze_with_activity(
      const Netlist& nl, const std::vector<double>& activity) const;

  CellLibrary lib_;
};

}  // namespace tz
