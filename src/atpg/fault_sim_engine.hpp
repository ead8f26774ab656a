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
// engine itself keeps the injection, the primary-output diff and the
// detection bitmap. First-class fault dropping (`drop_sim`) lets callers
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

  /// Fault dropping: simulate only faults with `!detected[i]`, setting their
  /// flag once detected. Returns the number of newly detected faults.
  /// `detected` must be parallel to `faults`.
  std::size_t drop_sim(std::span<const Fault> faults,
                       std::vector<bool>& detected) override;

  std::vector<std::vector<std::uint64_t>> detection_matrix(
      std::span<const Fault> faults) override;

 private:
  /// Event-driven faulty-machine evaluation; leaves the detection bitmap in
  /// `bits_` when `want_bits`, else exits early on the first detecting word.
  bool simulate_fault(const Fault& f, bool want_bits);

  /// Lazily resize the per-fault scratch after the context's pattern epoch
  /// moved (shared contexts advance underneath the engine).
  void sync_scratch();

  // Cached off the context by sync_scratch (hot-loop locals).
  std::size_t words_ = 0;
  std::uint64_t synced_patterns_ = 0;
  /// Per word: the pattern lanes (all ones but the last word's tail mask).
  std::vector<std::uint64_t> valid_;
  ConePass pass_;                    ///< faulty rows, cleared per fault
  std::vector<std::uint64_t> bits_;  ///< detection bitmap of the last fault
};

}  // namespace tz
