// Defender test generation and functional verification.
//
// Models the paper's defender: a set of q testing algorithms with their test
// patterns (TPs) and golden responses, generated on the verified HT-free
// circuit. ATPG patterns come from random-pattern bootstrap plus PODEM for
// the remaining faults, with bit-parallel fault-simulation dropping —
// the standard TetraMAX-style flow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "atpg/fault_sim_backend.hpp"
#include "atpg/podem.hpp"
#include "sim/patterns.hpp"

namespace tz {

/// Knobs of the defender's ATPG. The fault list is always the collapsed
/// stuck-at universe.
struct TestGenOptions {
  std::size_t random_patterns = 128;  ///< Bootstrap phase size.
  std::uint64_t seed = 0xA7Cu;
  PodemOptions podem = {};
  /// Deterministic-phase stop condition. Production test programs trade
  /// coverage against pattern count and tester time; TrojanZero's premise
  /// (an unstated assumption of the paper) is that the defender's set is
  /// high-but-not-complete — with a 100% single-stuck-at set, tying a node
  /// to a constant is behaviourally a covered stuck-at fault and Algorithm 1
  /// can never accept a removal (see the defender-strength ablation bench).
  double coverage_target = 0.95;
  /// Hard cap on the shipped TP count (tester-time budget). The
  /// deterministic phase stops when either the coverage target or this
  /// pattern budget is reached, whichever comes first.
  std::size_t max_patterns = 96;
  /// Deterministic-phase fault ordering. TestabilityFirst (default) models
  /// testability-guided production ATPG: faults whose site signal
  /// probability makes them easy to excite are targeted first, so a coverage/pattern budget is exhausted before
  /// the rarely-excited faults — the precise gap Algorithm 1 exploits.
  /// Shuffled is the defender-strength ablation (uniformly random order
  /// from a fixed seed).
  enum class FaultOrder { TestabilityFirst, Shuffled } fault_order =
      FaultOrder::TestabilityFirst;
  // ---- suite composition (the defender's q algorithms) ----
  bool with_random_validation = true;   ///< Bespoke random vectors.
  std::size_t validation_patterns = 128;
  /// Walking one/zero bring-up vectors. Off by default: such patterns pin
  /// whole buses to a constant and systematically excite wide decodes, a
  /// stronger defender than the paper's ATPG + random model assumes (kept
  /// available for the defender-strength ablation).
  bool with_walking = false;
};

/// One defender testing algorithm: patterns plus expected responses.
struct DefenderTestSet {
  std::string name;
  PatternSet patterns;   ///< Over the circuit's primary inputs.
  PatternSet golden;     ///< Expected primary-output responses.
  CoverageReport coverage;
  std::size_t untestable = 0;  ///< Proven-redundant faults.
  std::size_t aborted = 0;     ///< PODEM aborts (counted as undetected).
};

/// Stuck-at ATPG flow (random bootstrap + PODEM + drop-by-simulation).
DefenderTestSet generate_atpg_tests(const Netlist& nl,
                                    const TestGenOptions& opt = {});

/// The defender's full validation suite (the paper's Algo = {T1..Tq}):
/// stuck-at ATPG, pure random vectors, and walking one/zero bring-up.
struct DefenderSuite {
  std::vector<DefenderTestSet> algorithms;
};

DefenderSuite make_defender_suite(const Netlist& nl,
                                  const TestGenOptions& opt = {});

/// Run one test algorithm against a DUT netlist (same PI/PO interface as the
/// golden circuit). Sequential DUTs (inserted HTs carry DFFs) are clocked
/// pattern-by-pattern from reset, exactly as a tester would stream TPs.
bool functional_test(const Netlist& dut, const DefenderTestSet& ts);

/// All algorithms must pass (Algorithm 1 line 17 / Algorithm 2 line 3).
bool functional_test(const Netlist& dut, const DefenderSuite& suite);

}  // namespace tz
