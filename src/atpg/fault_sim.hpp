// Bit-parallel stuck-at fault simulation — convenience wrappers.
//
// Simulates the faulty machine for each fault over 64 patterns per word and
// compares primary outputs against the good machine. Used to grade pattern
// sets (fault coverage), to drop detected faults during ATPG, and by tests
// to prove the defender's patterns still detect all testable faults after a
// TrojanZero insertion. Each call routes through make_fault_sim_backend
// (atpg/fault_sim_backend.hpp), honoring FaultSimMode / set_fault_sim_mode;
// callers simulating many pattern sets or dropping faults incrementally
// should hold a backend (or a concrete engine) directly so the static
// analyses and the compiled plan are reused.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {

/// True iff `patterns` detects fault `f` (some PO differs on some pattern).
bool detects(const Netlist& nl, const Fault& f, const PatternSet& patterns);

/// Simulate all faults; returns a parallel vector of "detected" flags.
std::vector<bool> fault_simulate(const Netlist& nl,
                                 const std::vector<Fault>& faults,
                                 const PatternSet& patterns);

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

CoverageReport grade_patterns(const Netlist& nl,
                              const std::vector<Fault>& faults,
                              const PatternSet& patterns);

/// Per-fault detection bitmap: word w bit b of entry f is set iff pattern
/// 64w+b detects fault f. Drives static pattern compaction.
std::vector<std::vector<std::uint64_t>> detection_matrix(
    const Netlist& nl, const std::vector<Fault>& faults,
    const PatternSet& patterns);

/// Greedy static compaction: keep only patterns that detect at least one
/// fault no earlier kept pattern detects. Returns kept pattern indices.
std::vector<std::size_t> compact_patterns(
    const std::vector<std::vector<std::uint64_t>>& matrix,
    std::size_t num_patterns);

}  // namespace tz
