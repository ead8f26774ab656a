// Event-driven stuck-at fault simulation and the one-shot coverage grade.
//
// FaultSimEngine simulates one fault at a time, 64 patterns per word: the
// stuck value is forced at the site and sim/cone_pass.hpp re-evaluates only
// the readers whose rows actually change, touching (and later clearing) just
// the rows the fault's effect reaches — no netlist-sized zero-fill per
// fault. The suite oracle (core/flow_engine.hpp) runs the same pass for its
// tie verdicts. The engine computes its static analyses (fanout-cone -> PO
// reachability, the fault screen) once per netlist and the good-machine rows
// once per pattern set, so callers simulating many pattern sets or dropping
// faults incrementally (ATPG) hold one engine. The primary-output diff stops
// at the first pattern word holding a detection and reports its lowest
// detecting pattern.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/cone_pass.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {

/// One enumerator: there is one fault-simulation engine. Kept because the
/// FlowMeta::fault_mode wire field is stamped from fault_sim_mode().
enum class FaultSimMode : std::uint8_t { Auto = 0 };

constexpr FaultSimMode fault_sim_mode() { return FaultSimMode::Auto; }

constexpr std::string_view to_string(FaultSimMode) { return "auto"; }

class FaultSimEngine {
 public:
  /// Compiles the plan and the static analyses for `nl`, which must outlive
  /// the engine and stay structurally unchanged while it is in use.
  explicit FaultSimEngine(const Netlist& nl);

  /// Re-run the good machine on a new pattern set and gather its rows; the
  /// static analyses are kept.
  void set_patterns(const PatternSet& patterns);

  /// Static reachability: false means no combinational path from `id` to any
  /// primary output exists, so no fault at `id` is ever detectable.
  bool po_reachable(NodeId id) const {
    const SlotId s = plan().slot_of(id);
    return s != kNoSlot && po_reach_[s] != 0;
  }

  /// Fault dropping: simulate only faults with `!detected[i]`, setting their
  /// flag once detected. Returns the number of newly detected faults. When
  /// `first_detect` is non-empty, entry i of each newly detected fault is
  /// set to the index of the first pattern that detects it; other entries
  /// are left alone. Throws std::invalid_argument unless `detected` (and a
  /// non-empty `first_detect`) is parallel to `faults`.
  std::size_t drop_sim(std::span<const Fault> faults,
                       std::vector<bool>& detected,
                       std::span<std::size_t> first_detect = {});

 private:
  /// Returned by simulate_fault for a fault no pattern detects.
  static constexpr std::size_t kUndetected = ~std::size_t{0};

  const EvalPlan& plan() const { return *sim_.plan(); }
  /// Good-machine row of slot `s`: words_ contiguous words. The rows are
  /// slot-major, so good_row(0) is the whole matrix.
  const std::uint64_t* good_row(SlotId s) const {
    return good_.data() + std::size_t{s} * words_;
  }

  /// True when the site is dead, has no combinational path to a primary
  /// output, or no pattern excites it (the good value already equals the
  /// stuck value on every pattern lane).
  bool screened_out(const Fault& f) const;

  /// Event-driven faulty-machine evaluation: the index of the first pattern
  /// that detects `f`, or kUndetected.
  std::size_t simulate_fault(const Fault& f);

  const Netlist* nl_;
  BitSimulator sim_;
  std::vector<char> po_reach_;       ///< static cone -> PO reachability
  std::vector<std::uint64_t> good_;  ///< slot-major rows of words_ words
  std::size_t words_ = 0;
  /// Per word: the pattern lanes (all ones but the last word's tail mask).
  std::vector<std::uint64_t> valid_;
  ConePass pass_;  ///< faulty rows, cleared per fault
};

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
