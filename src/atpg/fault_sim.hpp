// Bit-parallel stuck-at fault simulation — the one-shot coverage grade.
//
// Simulates the faulty machine for each fault over 64 patterns per word and
// compares primary outputs against the good machine. The call builds a
// backend through make_fault_sim_backend (atpg/fault_sim_backend.hpp),
// honoring FaultSimMode / set_fault_sim_mode; callers simulating many
// pattern sets or dropping faults incrementally (ATPG) hold a backend
// directly so the static analyses and the compiled plan are reused.
#pragma once

#include <vector>

#include "atpg/fault.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {

/// Coverage = detected / total, in [0,1].
struct CoverageReport {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(total_faults);
  }
};

/// Fault coverage of `patterns` over `faults` (one drop_sim pass).
CoverageReport grade_patterns(const Netlist& nl,
                              const std::vector<Fault>& faults,
                              const PatternSet& patterns);

}  // namespace tz
