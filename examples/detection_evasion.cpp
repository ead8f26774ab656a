// Detection evasion demo: the same counter HT inserted (a) naively on top
// of the circuit and (b) via TrojanZero, evaluated against all three
// power-based detection baselines.
#include <iomanip>
#include <iostream>

#include "core/report.hpp"
#include "detect/gate_characterization.hpp"
#include "detect/power_trace.hpp"
#include "detect/statistical_learning.hpp"
#include "verify/verify.hpp"

namespace {

void report(const char* label, const tz::DetectionResult& r) {
  std::cout << "  " << std::left << std::setw(26) << label
            << (r.detected ? "DETECTED" : "evaded  ") << "  (overhead "
            << std::fixed << std::setprecision(3) << r.overhead_percent
            << "%)\n";
}

}  // namespace

namespace {

int run() {
  using namespace tz;
  const PowerModel pm(CellLibrary::tsmc65_like());
  const Netlist golden = make_benchmark("c499");

  // (a) Naive additive HT: counter + trigger + payload bolted on.
  Netlist naive = golden;
  {
    SignalProb sp(naive);
    const auto locs = payload_locations(naive, 1);
    const auto pool =
        trigger_pool(naive, rare_net_list(naive, sp, 0.05), locs[0]);
    build_trojan(naive, counter_trojan(3), pool, locs[0]);
  }
  std::cout << "naive additive counter-3bit HT on c499:\n";
  report("dynamic power [10]", detect_dynamic_power(golden, naive, pm));
  report("leakage GLC [11]", detect_leakage_glc(golden, naive, pm));
  report("statistical learning [12]",
         detect_statistical_learning(golden, naive, pm));

  // (b) TrojanZero insertion of the same HT class.
  const FlowResult r = run_trojanzero_flow("c499");
  if (!r.insertion.success) {
    std::cout << "TrojanZero insertion failed\n";
    return 1;
  }
  std::cout << "\nTrojanZero " << r.insertion.ht_name << " on c499:\n";
  report("dynamic power [10]",
         detect_dynamic_power(golden, r.insertion.infected, pm));
  report("leakage GLC [11]",
         detect_leakage_glc(golden, r.insertion.infected, pm));
  report("statistical learning [12]",
         detect_statistical_learning(golden, r.insertion.infected, pm));
  std::cout << "\nSame Trojan class; the difference is Algorithm 1 paying "
               "for it out of the circuit's own budget.\n";
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const tz::VerifyError& e) {
    // TZ_CHECK boundary check tripped: name the corrupted invariant instead
    // of dying with an unexplained exception message.
    std::cerr << "invariant check failed at " << e.phase() << ":\n"
              << e.report().format();
    return 1;
  }
}
