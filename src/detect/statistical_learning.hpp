// Statistical-learning HT detection (Chen et al. [12]).
//
// A one-class classifier trained on the golden population's side-channel
// feature vectors (dynamic power, leakage power): a die is flagged when its
// Mahalanobis distance from the golden centroid exceeds the learned
// threshold (the maximum golden-training distance plus margin).
#pragma once

#include "detect/power_trace.hpp"

namespace tz {

/// The learned boundary: kLearningMargin times the largest training
/// distance.
inline constexpr double kLearningMargin = 1.25;

/// Train on golden dies, classify the DUT population; detected when the
/// majority of DUT dies fall outside the learned boundary.
DetectionResult detect_statistical_learning(
    const Netlist& golden_nl, const Netlist& dut_nl, const PowerModel& pm,
    const PowerDetectOptions& opt = {});

/// Overload on precomputed nominal breakdowns (see detect_dynamic_power):
/// skips the per-call analyze -> SignalProb when the caller maintains the
/// DUT rows incrementally. Bit-identical when the breakdowns match.
DetectionResult detect_statistical_learning(
    const Netlist& golden_nl, const Netlist& dut_nl,
    const PowerBreakdown& golden_nom, const PowerBreakdown& dut_nom,
    const PowerDetectOptions& opt = {});

/// Fig. 3 support: smallest additive-HT *area* overhead (%) whose power
/// signature this classifier reliably flags.
double min_detectable_area_overhead(const Netlist& golden_nl,
                                    const PowerModel& pm,
                                    const PowerDetectOptions& opt = {});

}  // namespace tz
