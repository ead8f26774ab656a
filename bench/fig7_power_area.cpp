// Reproduces Fig. 7: area, leakage power and dynamic power of the HT-free
// (N), modified (N') and TZ-infected (N'') circuits across the benchmarks,
// plus the paper's three observations (X, Y, Z).
//
// The rows come from the campaign engine ("fig7" grid via
// run_campaign_in_memory, JSON round-tripped).
#include <iomanip>
#include <iostream>
#include <vector>

#include "campaign/driver.hpp"
#include "core/report.hpp"

int main() {
  using namespace tz;
  std::cout << "=== Fig. 7: N vs N' vs N'' (per benchmark) ===\n";
  std::cout << std::fixed << std::setprecision(2);

  const std::vector<FlowResult> results =
      run_campaign_in_memory(CampaignGrid::preset("fig7"));

  double worst_leak_margin = 1e9, worst_dyn_margin = 1e9, worst_area_margin = 1e9;
  std::string leak_at, dyn_at, area_at;
  std::size_t i = 0;
  for (const BenchmarkSpec& spec : iscas85_specs()) {
    const FlowResult& r = results[i++];
    print_power_triple(std::cout, r, spec);
    if (!r.insertion.success) continue;
    const double leak_margin =
        100.0 * (r.p_n.leakage_uw - r.p_npp.leakage_uw) / r.p_n.leakage_uw;
    const double dyn_margin =
        100.0 * (r.p_n.dynamic_uw - r.p_npp.dynamic_uw) / r.p_n.dynamic_uw;
    const double area_margin =
        100.0 * (r.p_n.area_ge - r.p_npp.area_ge) / r.p_n.area_ge;
    std::cout << "  margins to cap: leakage " << leak_margin << "%  dynamic "
              << dyn_margin << "%  area " << area_margin << "%\n";
    if (leak_margin < worst_leak_margin) { worst_leak_margin = leak_margin; leak_at = spec.name; }
    if (dyn_margin < worst_dyn_margin) { worst_dyn_margin = dyn_margin; dyn_at = spec.name; }
    if (area_margin < worst_area_margin) { worst_area_margin = area_margin; area_at = spec.name; }
  }
  std::cout << "\nObservation X (leakage runs closest to its cap): tightest "
            << worst_leak_margin << "% on " << leak_at << "\n";
  std::cout << "Observation Y (dynamic stays below the bound): tightest "
            << worst_dyn_margin << "% on " << dyn_at << "\n";
  std::cout << "Observation Z (area is sometimes the binding cap): tightest "
            << worst_area_margin << "% on " << area_at << "\n";
  return 0;
}
