// Pluggable fault-simulation backend layer.
//
// Fault simulation has two complementary engine shapes: the event-driven
// FaultSimEngine (per fault, pattern-parallel, cost tracks the fanout cone)
// and the word-packed PackedFaultSimEngine (64 faults per word, one SoA
// sweep over the EvalPlan per 64-pattern block). Event-driven wins when
// cones are sparse relative to the netlist; packed wins when cones are dense
// enough that walking them per fault costs more than sweeping every slot
// once for 64 faults at a time.
//
// This header owns the pieces both engines share:
//  - FaultSimMode / set_fault_sim_mode: the process-wide backend selector
//    (Auto unless a test or bench forces an engine, atomically);
//  - FaultSimContext: the static analyses (topological ranks, fanout-cone ->
//    PO reachability) and the good-machine rows, computed once per netlist
//    (the rows once per pattern set) and cached across backend calls;
//  - FaultSimBackend: the abstract contract (drop_sim / detection_matrix,
//    the two calls ATPG makes) every consumer is wired through;
//  - make_fault_sim_backend: the factory, returning the concrete engine for
//    Event/Packed or a measured auto-selector for Auto.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/eval_plan.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz {

enum class FaultSimMode : std::uint8_t { Auto = 0, Event = 1, Packed = 2 };

std::string_view to_string(FaultSimMode mode);

/// Process-wide backend mode: Auto unless set_fault_sim_mode forced one.
FaultSimMode fault_sim_mode();

/// Test/bench hook: 0/1/2 force Auto/Event/Packed for the whole process
/// (out-of-range values clamp); -1 restores the Auto default.
void set_fault_sim_mode(int mode);

/// Static analyses + good machine shared by every fault-simulation backend.
///
/// Constructed once per netlist and reused across calls and across backends
/// (the Auto selector runs both engines off one context): topological ranks,
/// the fanout-cone -> PO reachability bitset and the compiled plan survive
/// between pattern-set swaps. The netlist must not change structurally
/// while a context is bound to it.
class FaultSimContext {
 public:
  explicit FaultSimContext(const Netlist& nl);

  /// Re-run the good machine on a new pattern set and gather its rows;
  /// static analyses are kept.
  void set_patterns(const PatternSet& patterns);

  const Netlist& netlist() const { return *nl_; }
  /// The shared compiled plan; the cone walk's index space is its slots.
  const EvalPlan& plan() const { return *sim_.plan(); }

  /// Slot order is the topological order, so the worklist rank of a slot is
  /// the slot id itself.
  const std::vector<std::uint32_t>& rank() const { return rank_; }
  bool po_reachable_slot(SlotId s) const { return po_reach_[s] != 0; }
  /// Static reachability: false means no combinational path from `id` to any
  /// primary output exists, so no fault at `id` is ever detectable.
  bool po_reachable(NodeId id) const {
    const SlotId s = plan().slot_of(id);
    return s != kNoSlot && po_reach_[s] != 0;
  }

  bool has_patterns() const { return has_patterns_; }
  /// Good-machine row of slot `s`: words() contiguous words.
  const std::uint64_t* good_row(SlotId s) const {
    return good_.data() + std::size_t{s} * words_;
  }
  std::size_t words() const { return words_; }
  std::uint64_t tail_mask() const { return tail_; }
  std::size_t num_patterns() const { return num_patterns_; }

  /// Mean fanout-cone size over sampled PO-reachable sites (lazily computed
  /// and cached). Drives the Auto backend selector.
  double mean_cone_size();
  /// Slots the packed sweep actually evaluates (non-source, non-dead).
  std::size_t eval_slot_count();

  /// Bumped by set_patterns; backends compare it to lazily refresh the
  /// per-engine scratch sized off the pattern set.
  std::uint64_t pattern_epoch() const { return pattern_epoch_; }

 private:
  const Netlist* nl_;
  BitSimulator sim_;
  std::vector<std::uint32_t> rank_;  ///< worklist order (identity over slots)
  std::vector<char> po_reach_;       ///< static cone -> PO reachability
  std::vector<std::uint64_t> good_;  ///< slot-major rows of words_ words
  std::size_t words_ = 0;
  std::uint64_t tail_ = 0;
  std::size_t num_patterns_ = 0;
  bool has_patterns_ = false;
  double mean_cone_ = -1.0;          ///< < 0: not sampled yet
  std::size_t eval_slots_ = 0;       ///< 0: not counted yet
  std::uint64_t pattern_epoch_ = 0;
};

/// The backend contract every fault-simulation consumer is wired through.
/// One backend is bound to one FaultSimContext; patterns are swapped via
/// set_patterns.
class FaultSimBackend {
 public:
  virtual ~FaultSimBackend() = default;

  virtual std::string_view name() const = 0;

  /// Fault dropping: simulate only faults with `!detected[i]`, setting their
  /// flag once detected. Returns the number of newly detected faults.
  /// Throws std::invalid_argument unless `detected` is parallel to `faults`.
  virtual std::size_t drop_sim(std::span<const Fault> faults,
                               std::vector<bool>& detected) = 0;

  /// Per-fault detection bitmaps: word w bit b of row f is set iff pattern
  /// 64w+b detects fault f. Rows of undetectable faults are all-zero.
  virtual std::vector<std::vector<std::uint64_t>> detection_matrix(
      std::span<const Fault> faults) = 0;

  FaultSimContext& context() { return *ctx_; }
  const FaultSimContext& context() const { return *ctx_; }
  void set_patterns(const PatternSet& patterns) { ctx_->set_patterns(patterns); }

 protected:
  explicit FaultSimBackend(std::shared_ptr<FaultSimContext> ctx)
      : ctx_(std::move(ctx)) {}

  /// drop_sim's precondition, checked before any flag is read.
  static void check_drop_flags(std::span<const Fault> faults,
                               const std::vector<bool>& detected);

  std::shared_ptr<FaultSimContext> ctx_;
};

/// Build a backend over a fresh context for `nl`. Mode Auto returns the
/// measured selector; Event/Packed force the concrete engine. The default
/// mode argument resolves set_fault_sim_mode.
std::unique_ptr<FaultSimBackend> make_fault_sim_backend(
    const Netlist& nl, FaultSimMode mode = fault_sim_mode());

/// Same, binding an existing (possibly shared) context.
std::unique_ptr<FaultSimBackend> make_fault_sim_backend(
    std::shared_ptr<FaultSimContext> ctx, FaultSimMode mode = fault_sim_mode());

}  // namespace tz
