#include "detect/statistical_learning.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace tz {
namespace {

using Feature = std::array<double, 2>;  // {dynamic_uw, leakage_uw}

Feature measure_die(const Netlist& nl, const PowerBreakdown& nom,
                    VariationModel& vm) {
  const DieSample die = vm.sample_die(nl.raw_size());
  const PowerReport r = vm.measure(nl, nom, die);
  return {r.dynamic_uw, r.leakage_uw};
}

struct Gaussian2 {
  Feature mean{};
  // Inverse covariance (2x2 symmetric).
  double ixx = 0, ixy = 0, iyy = 0;

  double mahalanobis2(const Feature& f) const {
    const double dx = f[0] - mean[0];
    const double dy = f[1] - mean[1];
    return dx * dx * ixx + 2 * dx * dy * ixy + dy * dy * iyy;
  }
};

/// Requires xs.size() >= 2: the sample covariance divides by n - 1, so a
/// single-die training set would produce an inf/NaN inverse covariance.
/// detect_statistical_learning validates the option before calling.
Gaussian2 fit(const std::vector<Feature>& xs) {
  if (xs.size() < 2) {
    throw std::invalid_argument(
        "fit: need at least 2 training dies for a sample covariance");
  }
  Gaussian2 g;
  const double n = static_cast<double>(xs.size());
  for (const Feature& f : xs) {
    g.mean[0] += f[0] / n;
    g.mean[1] += f[1] / n;
  }
  double cxx = 0, cxy = 0, cyy = 0;
  for (const Feature& f : xs) {
    const double dx = f[0] - g.mean[0];
    const double dy = f[1] - g.mean[1];
    cxx += dx * dx;
    cxy += dx * dy;
    cyy += dy * dy;
  }
  cxx /= n - 1;
  cxy /= n - 1;
  cyy /= n - 1;
  const double det = std::max(1e-12, cxx * cyy - cxy * cxy);
  g.ixx = cyy / det;
  g.ixy = -cxy / det;
  g.iyy = cxx / det;
  return g;
}

}  // namespace

DetectionResult detect_statistical_learning(
    const Netlist& golden_nl, const Netlist& dut_nl, const PowerModel& pm,
    const LearningDetectOptions& opt) {
  return detect_statistical_learning(golden_nl, dut_nl,
                                     pm.analyze(golden_nl),
                                     pm.analyze(dut_nl), opt);
}

DetectionResult detect_statistical_learning(
    const Netlist& golden_nl, const Netlist& dut_nl,
    const PowerBreakdown& golden_nom, const PowerBreakdown& dut_nom,
    const LearningDetectOptions& opt) {
  // Degenerate populations used to flow NaN into the result: golden_dies < 2
  // breaks the covariance fit, dut_dies == 0 divides the per-die averages by
  // zero. Fail loudly instead.
  if (opt.base.golden_dies < 2) {
    throw std::invalid_argument(
        "detect_statistical_learning: golden_dies must be >= 2 to train");
  }
  if (opt.base.dut_dies == 0) {
    throw std::invalid_argument(
        "detect_statistical_learning: dut_dies must be >= 1");
  }
  VariationModel vm(opt.base.variation, opt.base.seed);

  std::vector<Feature> train;
  for (std::size_t i = 0; i < opt.base.golden_dies; ++i) {
    train.push_back(measure_die(golden_nl, golden_nom, vm));
  }
  const Gaussian2 g = fit(train);
  const double golden_power = g.mean[0] + g.mean[1];
  if (!(golden_power > 0.0)) {
    // A zero-power golden centroid has no meaningful overhead percentage
    // (and used to divide into NaN); every real cell library leaks, so this
    // is a configuration error, not a measurement.
    throw std::invalid_argument(
        "detect_statistical_learning: golden population has zero mean power");
  }
  double max_train = 0.0;
  for (const Feature& f : train) {
    max_train = std::max(max_train, g.mahalanobis2(f));
  }
  const double boundary = kLearningMargin * max_train;

  std::size_t outside = 0;
  double mean_overhead = 0.0;
  double mean_dist = 0.0;
  for (std::size_t i = 0; i < opt.base.dut_dies; ++i) {
    const Feature f = measure_die(dut_nl, dut_nom, vm);
    const double d2 = g.mahalanobis2(f);
    mean_dist += d2 / opt.base.dut_dies;
    if (d2 > boundary) ++outside;
    mean_overhead += 100.0 * ((f[0] + f[1]) - golden_power) /
                     (golden_power * opt.base.dut_dies);
  }
  DetectionResult r;
  r.threshold = boundary;
  r.statistic = mean_dist;
  r.detected = outside * 2 > opt.base.dut_dies;  // majority vote
  r.overhead_percent = mean_overhead;
  return r;
}

double min_detectable_area_overhead(const Netlist& golden_nl,
                                    const PowerModel& pm,
                                    const LearningDetectOptions& opt) {
  return min_detectable_overhead(
      golden_nl, pm, GateType::Xor, &PowerReport::area_ge,
      [&](const Netlist& dut, const PowerBreakdown& golden_nom,
          const PowerBreakdown& dut_nom, std::uint64_t step) {
        LearningDetectOptions o = opt;
        o.base.seed = opt.base.seed + step;
        return detect_statistical_learning(golden_nl, dut, golden_nom,
                                           dut_nom, o);
      });
}

}  // namespace tz
