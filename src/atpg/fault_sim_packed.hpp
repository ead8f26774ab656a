// Word-packed fault-parallel stuck-at simulation backend.
//
// Where the event-driven engine walks one fault's fanout cone at a time,
// this engine packs 64 fault machines into each 64-bit word — lane i of a
// word simulates fault i of the batch — and evaluates all of them in one
// SoA sweep over the EvalPlan with the PR-6 SIMD stripe kernels:
//
//  - patterns are processed in blocks of 64: for pattern block wp the value
//    matrix holds one 64-word row per plan slot, word j of row s being the
//    64 fault lanes of pattern 64*wp + j;
//  - source rows broadcast the good-machine bit of each pattern across all
//    lanes; lanes beyond the batch's live faults are never forced, so they
//    compute the good machine and padding needs no masking;
//  - stuck values are forced by splitting the ranged stripe-kernel sweep at
//    the fault-site slots (ascending slot order == topological order) and
//    blending per-site lane masks in between: out = (out & ~mask) | ones;
//  - detection diffs each primary-output row against the broadcast good bit,
//    pattern by pattern, so each lane's first detecting pattern is the one
//    at which its bit first turns on; a batch early-exits once every live
//    lane has detected (the decisive advantage over the event engine on
//    dense cones, which must evaluate the whole cone over all pattern words
//    per fault).
//
// The mask bookkeeping of every batch is validated by
// verify::FaultPackChecker under TZ_CHECK. Results are bit-identical to the
// event engine: the same FaultSimContext::screened_out drops the same faults,
// and the per-pattern detection predicate is the same XOR against the same
// good machine.
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
#include "sim/simulator.hpp"

namespace tz {

class PackedFaultSimEngine final : public FaultSimBackend {
 public:
  /// Binds a context, possibly shared with a sibling engine; build through
  /// make_fault_sim_backend.
  explicit PackedFaultSimEngine(std::shared_ptr<FaultSimContext> ctx);

  std::string_view name() const override { return "packed"; }

  std::size_t drop_sim(std::span<const Fault> faults,
                       std::vector<bool>& detected,
                       std::span<std::size_t> first_detect) override;

 private:
  /// 64 patterns per block: each slot row is 64 words, one word of fault
  /// lanes per pattern.
  static constexpr std::size_t kBlock = 64;

  /// Lazily refresh the pattern-set scratch after the shared context's
  /// pattern epoch moved.
  void sync_scratch();

  /// Pack the faults at `idx` (lane i = faults[idx[i]]) and simulate the
  /// pattern blocks until every lane has detected. Returns the
  /// detected-lane word; a non-empty `first_detect` (parallel to `faults`)
  /// receives each detected lane's first detecting pattern. `dropped` is
  /// the caller's drop-flag snapshot for the TZ_CHECK bijection invariant
  /// (empty when the check is off).
  std::uint64_t run_batch(std::span<const Fault> faults,
                          std::span<const std::size_t> idx,
                          std::span<std::size_t> first_detect,
                          std::span<const char> dropped);

  const EvalPlan* plan_;  ///< the packed evaluation plan
  std::uint64_t synced_patterns_ = 0;
  std::size_t words_ = 0;        ///< pattern words (ceil(P/64))
  std::size_t num_patterns_ = 0;
  std::vector<std::uint64_t> matrix_;  ///< num_slots x kBlock lane words
  // Source/output slot lists with good-machine row pointers (rebuilt per
  // pattern epoch; pointers alias the context's good matrix).
  std::vector<SlotId> source_slots_;
  std::vector<const std::uint64_t*> source_good_;
  std::vector<SlotId> output_slots_;
  std::vector<const std::uint64_t*> output_good_;
  // Per-batch lane/site scratch (see verify::FaultPackBatch).
  std::vector<NodeId> lane_node_;
  std::vector<std::size_t> lane_fault_;
  std::vector<SlotId> site_slot_;
  std::vector<std::uint64_t> site_mask_;
  std::vector<std::uint64_t> site_force_one_;
  std::vector<std::uint64_t> acc_;  ///< per-pattern detect accumulator
  std::vector<char> dropped_scratch_;
};

}  // namespace tz
