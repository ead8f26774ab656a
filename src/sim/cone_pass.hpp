// Event-driven fanout-cone re-simulation over a compiled plan's slots.
//
// Forcing a row at one slot and re-evaluating only the readers whose rows
// actually change is the concurrent-simulation idea (Ulrich & Baker, DAC
// 1974). Two consumers judge the same kind of event with it: the
// fault-simulation engine (atpg/fault_sim.hpp) forces a stuck value
// against the good machine, and the suite oracle (core/flow_engine.hpp)
// forces a tie constant or an HT payload against its cached suite rows. A
// tie to v is the stem stuck-at-v fault at the node, so both walk the
// same cone the same way.
//
// The pass owns the mechanics: identity ranks (slot order is topological
// order) and their RankWorklist, the scratch rows and the touched marks.
// The caller owns the base rows (slot-major, `words` words per slot) and
// decides what a deviation means: it forces rows, run()s the cascade, reads
// value()/touched() and clear()s the marks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/eval_plan.hpp"
#include "sim/rank_worklist.hpp"

namespace tz {

class ConePass {
 public:
  ConePass() = default;
  // The worklist references this instance's rank vector; a copy or move
  // would leave it pointing into the source object.
  ConePass(const ConePass&) = delete;
  ConePass& operator=(const ConePass&) = delete;

  /// Bind to `plan` with rows of `words` words and grow the scratch to the
  /// plan's current slot count. Cheap when nothing changed; call it again
  /// after slots were appended to the plan or the row width moved. The
  /// marks must be clear.
  void bind(const EvalPlan& plan, std::size_t words) {
    plan_ = &plan;
    words_ = words;
    const std::size_t n = plan.num_slots();
    if (rank_.size() < n) {
      const std::size_t old = rank_.size();
      rank_.resize(n);
      std::iota(rank_.begin() + static_cast<std::ptrdiff_t>(old), rank_.end(),
                static_cast<std::uint32_t>(old));
      touched_.resize(n, 0);
      worklist_.resize(n);
    }
    if (scratch_.size() < n * words) scratch_.resize(n * words, 0);
  }

  /// Force slot `s`: mark it touched and schedule its live readers. Returns
  /// its scratch row, which the caller fills before run().
  std::uint64_t* force(SlotId s) {
    mark(s);
    return scratch_.data() + std::size_t{s} * words_;
  }

  /// Evaluate the scheduled cone in topological order against `base`
  /// (slot-major rows of the bound width). A re-evaluated row that differs
  /// from its base row on a lane set in `valid` (one mask per word) is
  /// marked touched and schedules its readers; any other row reads as its
  /// base row. Every touched fanin is final by the time a reader evaluates.
  void run(const std::uint64_t* base, const std::uint64_t* valid) {
    base_ = base;
    // Locals, so the hot loop keeps them in registers across the pushes.
    const EvalPlan& plan = *plan_;
    const std::size_t words = words_;
    const char* touched = touched_.data();
    std::uint64_t* scratch = scratch_.data();
    const auto get = [&](SlotId f) -> const std::uint64_t* {
      return (touched[f] ? scratch : base) + std::size_t{f} * words;
    };
    while (!worklist_.empty()) {
      const SlotId s = worklist_.pop();
      std::uint64_t* out = scratch + std::size_t{s} * words;
      eval_plan_slot(plan, s, words, get, out);
      const std::uint64_t* b = base + std::size_t{s} * words;
      std::uint64_t changed = 0;
      for (std::size_t w = 0; w < words; ++w) {
        changed |= (out[w] ^ b[w]) & valid[w];
      }
      if (changed) mark(s);
    }
  }

  bool touched(SlotId s) const { return touched_[s] != 0; }
  /// The slot's row after the last run(): the scratch row when touched,
  /// else the base row. Valid while the base rows stay where run() saw them.
  const std::uint64_t* value(SlotId s) const {
    return (touched_[s] ? scratch_.data() : base_) + std::size_t{s} * words_;
  }
  /// Touched slots in marking order (forced slots first).
  std::span<const SlotId> visited() const { return visited_; }

  /// Un-touch every marked slot; cost tracks the cone, not the plan.
  void clear() {
    for (SlotId s : visited_) touched_[s] = 0;
    visited_.clear();
  }

 private:
  void mark(SlotId s) {
    touched_[s] = 1;
    visited_.push_back(s);
    for (SlotId r : plan_->fanout(s)) {
      if (plan_->op(r) != EvalOp::Dead) worklist_.push(r);
    }
  }

  const EvalPlan* plan_ = nullptr;
  std::size_t words_ = 0;
  const std::uint64_t* base_ = nullptr;  ///< base rows of the last run()
  std::vector<std::uint32_t> rank_;      ///< identity over slots
  RankWorklist worklist_{rank_};
  std::vector<std::uint64_t> scratch_;   ///< rows valid only where touched
  std::vector<char> touched_;
  std::vector<SlotId> visited_;
};

}  // namespace tz
