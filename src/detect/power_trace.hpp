// Power-trace statistical HT detection (Rad / Plusquellic / Tehranipoor-style
// [10]): compare a population of measured DUT dynamic-power traces against a
// trusted golden population under process variation; flag the DUT when its
// mean exceeds the golden mean by a confidence multiple of the golden spread.
#pragma once

#include <cstdint>
#include <functional>

#include "netlist/netlist.hpp"
#include "tech/power_model.hpp"
#include "tech/variation.hpp"

namespace tz {

struct DetectionResult {
  bool detected = false;
  double statistic = 0.0;   ///< Normalized test statistic (sigmas).
  double threshold = 0.0;   ///< Decision threshold (sigmas).
  double overhead_percent = 0.0;  ///< Observed mean overhead vs golden (%).
};

/// Decision threshold of the power-side detectors, in sigmas (the 3-sigma
/// rule).
inline constexpr double kConfidenceSigma = 3.0;

struct PowerDetectOptions {
  std::size_t golden_dies = 64;
  std::size_t dut_dies = 16;
  VariationSpec variation;
  std::uint64_t seed = 99;
};

/// Shared two-population decision policy for the power-side detectors: a
/// sigma test on the standard error when the populations carry real spread,
/// falling back to a direct mean-difference test when `sem` is below a
/// relative noise floor of the means. Degenerate populations (zero process
/// variation) measure bit-identical dies, so the residue of the
/// floating-point mean accumulation must not masquerade as spread — a
/// genuine excess is infinitely many sigmas out, rounding noise is not.
/// Reads `r.threshold` (sigmas); sets `r.statistic` and `r.detected`.
void apply_population_statistic(DetectionResult& r, double golden_mean,
                                double dut_mean, double sem);

/// Dynamic-power population test. `golden_nl` is the signed-off netlist the
/// defender trusts; `dut_nl` is what actually got fabricated.
DetectionResult detect_dynamic_power(const Netlist& golden_nl,
                                     const Netlist& dut_nl,
                                     const PowerModel& pm,
                                     const PowerDetectOptions& opt = {});

/// Overload on precomputed nominal breakdowns (exactly what
/// PowerModel::analyze would return for each netlist): the die population is
/// sampled from the cached per-node rows, so sweeps that perturb a DUT one
/// gate at a time (min_detectable_* with an incremental PowerTracker) skip
/// the per-step analyze -> SignalProb pass. Bit-identical to the
/// analyzing overload when the breakdowns match.
DetectionResult detect_dynamic_power(const Netlist& golden_nl,
                                     const Netlist& dut_nl,
                                     const PowerBreakdown& golden_nom,
                                     const PowerBreakdown& dut_nom,
                                     const PowerDetectOptions& opt = {});

/// Same machinery on total power (dynamic + leakage).
DetectionResult detect_total_power(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerModel& pm,
                                   const PowerDetectOptions& opt = {});

DetectionResult detect_total_power(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerBreakdown& golden_nom,
                                   const PowerBreakdown& dut_nom,
                                   const PowerDetectOptions& opt = {});

/// One detector run inside a min_detectable_* sweep: judge the DUT's die
/// population from the two nominal breakdowns; `step` (1-based) offsets the
/// detector's seed.
using SweepDetector = std::function<DetectionResult(
    const Netlist& dut, const PowerBreakdown& golden_nom,
    const PowerBreakdown& dut_nom, std::uint64_t step)>;

/// The Fig. 3 sweep shared by the three min_detectable_* detectors: attach
/// additive always-on gates of `type` (the classic additive HT model), one
/// per step and each fed by the next primary input, until `detect` flags the
/// DUT. Returns the DUT's `component` overhead at that step, in % of the
/// golden value, or 100 when 256 gates go unflagged. The golden analysis
/// runs once and a PowerTracker keeps the DUT rows (bit-parity with a
/// from-scratch analyze), so a step costs one gate delta. Throws
/// std::invalid_argument on a netlist without primary inputs.
double min_detectable_overhead(const Netlist& golden_nl, const PowerModel& pm,
                               GateType type, double PowerReport::*component,
                               const SweepDetector& detect);

/// Fig. 3 support: smallest additive-HT dynamic-power overhead (in % of the
/// golden total) this detector reliably flags. Determined by sweeping
/// additive always-on gate bundles attached to the circuit.
double min_detectable_dynamic_overhead(const Netlist& golden_nl,
                                       const PowerModel& pm,
                                       const PowerDetectOptions& opt = {});

}  // namespace tz
