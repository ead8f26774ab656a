// Event-driven stuck-at fault-simulation backend.
//
// One fault at a time, 64 patterns per word: per-fault faulty values are
// computed event-driven over an explicit worklist ordered by topological
// rank, touching (and later clearing) only the rows the fault's effect
// actually reaches — no netlist-sized zero-fill per fault. The static
// analyses (ranks, fanout-cone -> PO reachability) and the shared
// good-machine simulation live in FaultSimContext (fault_sim_backend.hpp)
// and are cached across calls, pattern swaps and sibling backends; a masked
// excitation check additionally skips faults the pattern set never
// activates. First-class fault dropping (`drop_sim`) lets callers
// re-simulate only still-undetected faults as patterns accumulate.
//
// The cone walk indexes sim/eval_plan.hpp slots: slot ids double as
// topological ranks, fanout scheduling reads the plan's CSR and gates
// evaluate through the plan's arity-specialized kernels instead of
// dereferencing Node objects.
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
#include "sim/eval_plan.hpp"
#include "sim/patterns.hpp"
#include "sim/rank_worklist.hpp"
#include "sim/simulator.hpp"

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

  std::uint64_t* frow(SlotId s) { return faulty_.data() + s * words_; }

  // Cached off the context by sync_scratch (hot-loop locals).
  std::size_t words_ = 0;
  std::uint64_t tail_ = 0;
  std::uint64_t synced_patterns_ = 0;
  // Per-fault scratch, reset via `visited_` so cost tracks the cone size.
  std::vector<std::uint64_t> faulty_;  ///< rows valid only where touched_
  std::vector<char> touched_;
  std::vector<std::uint32_t> visited_;  ///< touched rows to un-touch
  RankWorklist worklist_;
  std::vector<std::uint64_t> bits_;  ///< detection bitmap of the last fault
};

}  // namespace tz
