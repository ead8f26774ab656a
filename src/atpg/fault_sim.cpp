#include "atpg/fault_sim.hpp"

#include "atpg/fault_sim_backend.hpp"

namespace tz {

CoverageReport grade_patterns(const Netlist& nl,
                              const std::vector<Fault>& faults,
                              const PatternSet& patterns) {
  const auto backend = make_fault_sim_backend(nl);
  backend->set_patterns(patterns);
  std::vector<bool> detected(faults.size(), false);
  CoverageReport r;
  r.total_faults = faults.size();
  r.detected = backend->drop_sim(faults, detected);
  return r;
}

}  // namespace tz
