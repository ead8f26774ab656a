#include "detect/power_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/ht_library.hpp"
#include "tech/power_tracker.hpp"

namespace tz {
namespace {

struct Population {
  double mean = 0.0;
  double stddev = 0.0;
};

Population stats(const std::vector<double>& xs) {
  Population p;
  if (xs.empty()) return p;
  p.mean = std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - p.mean) * (x - p.mean);
  var /= std::max<std::size_t>(1, xs.size() - 1);
  p.stddev = std::sqrt(var);
  return p;
}

DetectionResult population_test(const Netlist& golden_nl,
                                const Netlist& dut_nl,
                                const PowerBreakdown& golden_nom,
                                const PowerBreakdown& dut_nom,
                                const PowerDetectOptions& opt, bool total) {
  if (opt.golden_dies == 0 || opt.dut_dies == 0) {
    // 0/0 die populations used to divide through the SEM into NaN, and a NaN
    // statistic silently compared as "not detected".
    throw std::invalid_argument(
        "population_test: golden_dies and dut_dies must be >= 1");
  }
  VariationModel vm(opt.variation, opt.seed);

  auto draw = [&](const Netlist& nl, const PowerBreakdown& nom,
                  std::size_t dies) {
    std::vector<double> xs;
    xs.reserve(dies);
    for (std::size_t i = 0; i < dies; ++i) {
      const DieSample die = vm.sample_die(nl.raw_size());
      const PowerReport m = vm.measure(nl, nom, die);
      xs.push_back(total ? m.total_uw() : m.dynamic_uw);
    }
    return xs;
  };

  const Population g = stats(draw(golden_nl, golden_nom, opt.golden_dies));
  const Population d = stats(draw(dut_nl, dut_nom, opt.dut_dies));

  DetectionResult r;
  r.threshold = kConfidenceSigma;
  // Standard error of the DUT-mean vs golden-mean difference. The old code
  // collapsed the statistic to 0.0 on sem == 0, reporting even a blatant
  // trojan as undetected on a zero-variation population.
  const double sem =
      std::sqrt(g.stddev * g.stddev / static_cast<double>(opt.golden_dies) +
                d.stddev * d.stddev / static_cast<double>(opt.dut_dies));
  apply_population_statistic(r, g.mean, d.mean, sem);
  r.overhead_percent = g.mean > 0.0 ? 100.0 * (d.mean - g.mean) / g.mean : 0.0;
  return r;
}

}  // namespace

void apply_population_statistic(DetectionResult& r, double golden_mean,
                                double dut_mean, double sem) {
  // With identical-but-summed measurements sem is not exactly zero but a few
  // ulps of the mean, which would turn the statistic into accumulation noise
  // of either sign — so "degenerate" is a relative epsilon, not == 0.
  const double tol =
      1e-12 * std::max({std::abs(golden_mean), std::abs(dut_mean), 1e-300});
  if (sem > tol) {
    r.statistic = (dut_mean - golden_mean) / sem;
    r.detected = r.statistic > r.threshold;
  } else {
    r.detected = dut_mean - golden_mean > tol;
    r.statistic = r.detected ? std::numeric_limits<double>::infinity() : 0.0;
  }
}

DetectionResult detect_dynamic_power(const Netlist& golden_nl,
                                     const Netlist& dut_nl,
                                     const PowerModel& pm,
                                     const PowerDetectOptions& opt) {
  return population_test(golden_nl, dut_nl, pm.analyze(golden_nl),
                         pm.analyze(dut_nl), opt, /*total=*/false);
}

DetectionResult detect_dynamic_power(const Netlist& golden_nl,
                                     const Netlist& dut_nl,
                                     const PowerBreakdown& golden_nom,
                                     const PowerBreakdown& dut_nom,
                                     const PowerDetectOptions& opt) {
  return population_test(golden_nl, dut_nl, golden_nom, dut_nom, opt,
                         /*total=*/false);
}

DetectionResult detect_total_power(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerModel& pm,
                                   const PowerDetectOptions& opt) {
  return population_test(golden_nl, dut_nl, pm.analyze(golden_nl),
                         pm.analyze(dut_nl), opt, /*total=*/true);
}

DetectionResult detect_total_power(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerBreakdown& golden_nom,
                                   const PowerBreakdown& dut_nom,
                                   const PowerDetectOptions& opt) {
  return population_test(golden_nl, dut_nl, golden_nom, dut_nom, opt,
                         /*total=*/true);
}

double min_detectable_overhead(const Netlist& golden_nl, const PowerModel& pm,
                               GateType type, double PowerReport::*component,
                               const SweepDetector& detect) {
  if (golden_nl.inputs().empty()) {
    throw std::invalid_argument(
        "min_detectable_overhead: netlist has no primary inputs to attach "
        "additive gates to");
  }
  Netlist dut = golden_nl;
  const PowerBreakdown golden_nom = pm.analyze(golden_nl);
  const double base = golden_nom.totals.*component;
  PowerTracker tracker(dut, pm);
  for (int gates = 1; gates <= 256; ++gates) {
    const NodeId pi = dut.inputs()[gates % dut.inputs().size()];
    const std::size_t size_before = dut.raw_size();
    add_dummy_gate(dut, pi, type, "add_ht");
    std::vector<NodeId> fresh;
    for (NodeId id = static_cast<NodeId>(size_before); id < dut.raw_size();
         ++id) {
      fresh.push_back(id);
    }
    tracker.resync(fresh, {{pi}});
    if (detect(dut, golden_nom, tracker.breakdown(),
               static_cast<std::uint64_t>(gates))
            .detected) {
      return 100.0 * (tracker.totals().*component - base) / base;
    }
  }
  return 100.0;  // never detected within the sweep
}

double min_detectable_dynamic_overhead(const Netlist& golden_nl,
                                       const PowerModel& pm,
                                       const PowerDetectOptions& opt) {
  return min_detectable_overhead(
      golden_nl, pm, GateType::Xor, &PowerReport::dynamic_uw,
      [&](const Netlist& dut, const PowerBreakdown& golden_nom,
          const PowerBreakdown& dut_nom, std::uint64_t step) {
        PowerDetectOptions o = opt;
        o.seed = opt.seed + step;
        return detect_dynamic_power(golden_nl, dut, golden_nom, dut_nom, o);
      });
}

}  // namespace tz
