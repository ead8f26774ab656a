#include "detect/gate_characterization.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tz {
namespace {

/// Per-die leakage observation normalized by the least-squares global scale
/// fitted against the claimed (golden) per-gate nominal leakages. For an
/// HT-free die the normalized residual is ~1; extra gates push it up by the
/// HT's leakage share regardless of the die's own process corner — this is
/// what gate-level characterization buys over a raw total-leakage test.
double normalized_leakage(const Netlist& nl, const PowerBreakdown& nominal,
                          VariationModel& vm, double claimed_total) {
  const DieSample die = vm.sample_die(nl.raw_size());
  const std::vector<double> leak = vm.noisy_leakage(nl, nominal, die);
  const double measured =
      std::accumulate(leak.begin(), leak.end(), 0.0);
  // GLC estimate of the die's global corner: median per-gate ratio against
  // claimed nominals over the gates the defender can observe (all claimed
  // gates; HT gates are unknown to the defender so they are not in the fit).
  std::vector<double> ratios;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    if (nominal.leakage_uw[id] <= 0.0) continue;
    ratios.push_back(leak[id] / nominal.leakage_uw[id]);
  }
  if (ratios.empty()) return 1.0;
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double scale = ratios[ratios.size() / 2];
  return measured / (scale * claimed_total);
}

}  // namespace

DetectionResult detect_leakage_glc(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerModel& pm,
                                   const PowerDetectOptions& opt) {
  return detect_leakage_glc(golden_nl, dut_nl, pm.analyze(golden_nl),
                            pm.analyze(dut_nl), opt);
}

DetectionResult detect_leakage_glc(const Netlist& golden_nl,
                                   const Netlist& dut_nl,
                                   const PowerBreakdown& golden_nom,
                                   const PowerBreakdown& dut_nom,
                                   const PowerDetectOptions& opt) {
  if (opt.golden_dies == 0 || opt.dut_dies == 0) {
    // 0-die populations used to divide into NaN means, and a NaN statistic
    // silently compared as "not detected".
    throw std::invalid_argument(
        "detect_leakage_glc: golden_dies and dut_dies must be >= 1");
  }
  const double claimed = golden_nom.totals.leakage_uw;
  VariationModel vm(opt.variation, opt.seed);

  auto population = [&](const Netlist& nl, const PowerBreakdown& nom,
                        std::size_t dies) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < dies; ++i) {
      xs.push_back(normalized_leakage(nl, nom, vm, claimed));
    }
    return xs;
  };
  const std::vector<double> g = population(golden_nl, golden_nom,
                                           opt.golden_dies);
  const std::vector<double> d = population(dut_nl, dut_nom, opt.dut_dies);

  const double gm = std::accumulate(g.begin(), g.end(), 0.0) / g.size();
  double gv = 0.0;
  for (double x : g) gv += (x - gm) * (x - gm);
  gv /= std::max<std::size_t>(1, g.size() - 1);
  const double dm = std::accumulate(d.begin(), d.end(), 0.0) / d.size();

  DetectionResult r;
  r.threshold = kConfidenceSigma;
  // Same degenerate-population policy as population_test: the old
  // `sem > 0 ? ... : 0.0` reported a blatant trojan as undetected on a
  // zero-variation population.
  const double sem = std::sqrt(gv / d.size() + gv / g.size());
  apply_population_statistic(r, gm, dm, sem);
  r.overhead_percent = gm > 0.0 ? 100.0 * (dm - gm) / gm : 0.0;
  return r;
}

double min_detectable_leakage_overhead(const Netlist& golden_nl,
                                       const PowerModel& pm,
                                       const PowerDetectOptions& opt) {
  return min_detectable_overhead(
      golden_nl, pm, GateType::Nand, &PowerReport::leakage_uw,
      [&](const Netlist& dut, const PowerBreakdown& golden_nom,
          const PowerBreakdown& dut_nom, std::uint64_t step) {
        PowerDetectOptions o = opt;
        o.seed = opt.seed + step;
        return detect_leakage_glc(golden_nl, dut, golden_nom, dut_nom, o);
      });
}

}  // namespace tz
