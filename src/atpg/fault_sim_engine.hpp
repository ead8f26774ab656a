// Event-driven stuck-at fault-simulation backend.
//
// One fault at a time, 64 patterns per word: the stuck value is forced at
// the site and sim/cone_pass.hpp re-evaluates only the readers whose rows
// actually change, touching (and later clearing) just the rows the fault's
// effect reaches — no netlist-sized zero-fill per fault. The suite oracle
// (core/flow_engine.hpp) runs the same pass for its tie verdicts. The static
// analyses (fanout-cone -> PO reachability, the fault screen) and the shared
// good-machine simulation live in FaultSimContext (fault_sim_backend.hpp)
// and are cached across calls, pattern swaps and sibling backends. The
// engine itself keeps the injection and the primary-output diff, which
// stops at the first pattern word holding a detection and reports its
// lowest detecting pattern. Fault dropping (`drop_sim`) lets callers
// re-simulate only still-undetected faults as patterns accumulate.
//
// This engine wins when fanout cones are sparse relative to the netlist; its
// word-packed sibling (fault_sim_packed.hpp) wins on dense cones. Both are
// built through make_fault_sim_backend (atpg/fault_sim_backend.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim_backend.hpp"
#include "sim/cone_pass.hpp"

namespace tz {

class FaultSimEngine final : public FaultSimBackend {
 public:
  /// Binds a context (static analyses + good machine), possibly shared with
  /// a sibling engine; build through make_fault_sim_backend. The context's
  /// netlist must outlive the engine and stay structurally unchanged.
  explicit FaultSimEngine(std::shared_ptr<FaultSimContext> ctx);

  std::string_view name() const override { return "event"; }

  std::size_t drop_sim(std::span<const Fault> faults,
                       std::vector<bool>& detected,
                       std::span<std::size_t> first_detect) override;

 private:
  /// Returned by simulate_fault for a fault no pattern detects.
  static constexpr std::size_t kUndetected = ~std::size_t{0};

  /// Event-driven faulty-machine evaluation: the index of the first pattern
  /// that detects `f`, or kUndetected.
  std::size_t simulate_fault(const Fault& f);

  /// Lazily resize the per-fault scratch after the context's pattern epoch
  /// moved (shared contexts advance underneath the engine).
  void sync_scratch();

  // Cached off the context by sync_scratch (hot-loop locals).
  std::size_t words_ = 0;
  std::uint64_t synced_patterns_ = 0;
  /// Per word: the pattern lanes (all ones but the last word's tail mask).
  std::vector<std::uint64_t> valid_;
  ConePass pass_;  ///< faulty rows, cleared per fault
};

}  // namespace tz
