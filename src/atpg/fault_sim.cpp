#include "atpg/fault_sim.hpp"

#include <cstdint>

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

std::vector<std::vector<std::uint64_t>> detection_matrix(
    const Netlist& nl, const std::vector<Fault>& faults,
    const PatternSet& patterns) {
  const auto backend = make_fault_sim_backend(nl);
  backend->set_patterns(patterns);
  return backend->detection_matrix(faults);
}

std::vector<std::size_t> compact_patterns(
    const std::vector<std::vector<std::uint64_t>>& matrix,
    std::size_t num_patterns) {
  std::vector<std::size_t> kept;
  std::vector<char> covered(matrix.size(), 0);
  for (std::size_t p = 0; p < num_patterns; ++p) {
    const std::size_t w = p / 64;
    const std::uint64_t m = std::uint64_t{1} << (p % 64);
    bool contributes = false;
    for (std::size_t f = 0; f < matrix.size(); ++f) {
      if (!covered[f] && w < matrix[f].size() && (matrix[f][w] & m)) {
        covered[f] = 1;
        contributes = true;
      }
    }
    if (contributes) kept.push_back(p);
  }
  return kept;
}

}  // namespace tz
