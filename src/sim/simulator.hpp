// Gate-level simulators.
//
// BitSimulator evaluates a combinational netlist 64 patterns at a time and is
// the workhorse behind functional verification (the paper's ModelSim role),
// fault simulation, Monte-Carlo probability estimation and toggle counting
// for dynamic power. CycleSimulator adds DFF state for circuits carrying the
// counter-based Trojan of Fig. 4.
//
// A BitSimulator compiles the netlist into a sim/eval_plan.hpp EvalPlan once
// and every run() is a straight walk of the opcode stream over a dense
// stripe-major value matrix; NodeValues translates NodeId -> slot and reads
// across stripes, so callers never see the layout. reference_simulate is the
// independent Node-walking evaluator the parity checks hold the plan to.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/eval_plan.hpp"
#include "sim/patterns.hpp"
#include "util/debug.hpp"

namespace tz {

namespace detail {
/// std::allocator that default-initializes on resize: a plan-evaluated value
/// matrix is fully written before it is read (see EvalPlan::evaluate), so
/// the multi-megabyte zero-fill of vector's value-initialization is pure
/// waste on the hot path. Explicit `(n, 0)` construction still zeroes.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};
}  // namespace detail

/// Per-node simulation values for a block of patterns: value(node, word).
/// Storage is dense over an EvalPlan's slots and row(id) resolves through
/// the plan — reading a row of a dead node is invalid.
///
/// The matrix is stripe-major: the words are cut into stripes of
/// stripe_words() (== EvalPlan::block_words), each stripe holding all rows
/// contiguously, so the evaluate walk touches one compact stripe at a time
/// instead of striding row-length gaps (see eval_plan.hpp). A narrow matrix
/// is one stripe, i.e. plain contiguous rows. Once a matrix splits into
/// several stripes (striped()), a logical row is split too: row() is invalid
/// (it throws) and readers walk segment()/copy_slot_row() instead.
class NodeValues {
 public:
  NodeValues() = default;
  /// The storage is intentionally left uninitialized: the
  /// evaluate() walk writes every slot row (BitSimulator::run zero-fills the
  /// DFF source rows it does not otherwise seed).
  NodeValues(std::shared_ptr<const EvalPlan> plan, std::size_t num_words)
      : plan_(std::move(plan)),
        num_rows_(plan_->num_slots()),
        num_words_(num_words),
        stripe_words_(plan_->block_words(num_words)),
        v_(plan_->num_slots() * num_words) {}

  /// Whole-row pointer; one-stripe matrices only (throws when striped — use
  /// segment() or copy_slot_row() there).
  std::uint64_t* row(NodeId id) {
    return v_.data() + contiguous_row_offset(row_index(id));
  }
  const std::uint64_t* row(NodeId id) const {
    return v_.data() + contiguous_row_offset(row_index(id));
  }
  std::size_t num_words() const { return num_words_; }
  std::size_t num_rows() const { return num_rows_; }
  bool bit(NodeId id, std::size_t pattern) const {
    TZ_DBG_ASSERT(pattern / 64 < num_words_, "NodeValues::bit pattern index");
    return (v_[word_offset(row_index(id), pattern / 64)] >> (pattern % 64)) &
           1;
  }

  /// True when the rows are split across more than one stripe.
  bool striped() const { return stripe_words_ < num_words_; }
  /// Stripe width in words (== num_words() for a one-stripe matrix).
  std::size_t stripe_words() const { return stripe_words_; }

  /// The contiguous words of row `id` starting at word `w`: up to the next
  /// stripe boundary (the whole row tail on a one-stripe matrix). Readers
  /// loop `for (w = 0; w < num_words(); w += segment(id, w).size())`.
  std::span<const std::uint64_t> segment(NodeId id, std::size_t w) const {
    TZ_DBG_ASSERT(w < num_words_, "NodeValues::segment word index");
    return {v_.data() + word_offset(row_index(id), w), segment_len(w)};
  }

  /// Gather the full logical row of plan slot `s` into
  /// `dst[0 .. num_words())` — the engines that think in slots skip the
  /// NodeId translation.
  void copy_slot_row(std::size_t s, std::uint64_t* dst) const {
    TZ_DBG_ASSERT(s < num_rows_, "NodeValues::copy_slot_row row index");
    for (std::size_t w = 0; w < num_words_;) {
      const std::size_t len = segment_len(w);
      const std::uint64_t* src = v_.data() + word_offset(s, w);
      std::copy_n(src, len, dst + w);
      w += len;
    }
  }
  void copy_row(NodeId id, std::uint64_t* dst) const {
    copy_slot_row(row_index(id), dst);
  }

  /// Stripe-major backing store (BitSimulator::run scatters the source rows
  /// into it); only valid for whole-row arithmetic when !striped().
  std::uint64_t* data() { return v_.data(); }
  const std::uint64_t* data() const { return v_.data(); }
  const EvalPlan* plan() const { return plan_.get(); }

 private:
  std::size_t row_index(NodeId id) const {
    const std::size_t r = plan_->slot_of(id);
    // Catches reads of a dead node's row (slot_of returns kNoSlot).
    TZ_DBG_ASSERT(r < num_rows_, "NodeValues: node has no row");
    return r;
  }
  std::size_t contiguous_row_offset(std::size_t r) const {
    if (striped()) {
      throw std::logic_error(
          "NodeValues::row: stripe-major layout has no contiguous rows; use "
          "segment()/copy_slot_row()");
    }
    return r * num_words_;
  }
  /// Flat index of (row r, word w): stripe b starts at num_rows * b *
  /// stripe_words and holds its rows contiguously at the stripe's width
  /// (the last stripe may be narrower).
  std::size_t word_offset(std::size_t r, std::size_t w) const {
    if (!striped()) return r * num_words_ + w;
    const std::size_t w0 = (w / stripe_words_) * stripe_words_;
    const std::size_t wb = std::min(stripe_words_, num_words_ - w0);
    return num_rows_ * w0 + r * wb + (w - w0);
  }
  std::size_t segment_len(std::size_t w) const {
    if (!striped()) return num_words_ - w;
    const std::size_t w0 = (w / stripe_words_) * stripe_words_;
    return std::min(stripe_words_, num_words_ - w0) - (w - w0);
  }

  std::shared_ptr<const EvalPlan> plan_;
  std::size_t num_rows_ = 0;
  std::size_t num_words_ = 0;
  std::size_t stripe_words_ = 0;
  std::vector<std::uint64_t, detail::DefaultInitAllocator<std::uint64_t>> v_;
};

class BitSimulator {
 public:
  /// Compiles the evaluation plan; the netlist must outlive the simulator and
  /// must not be structurally modified while in use.
  explicit BitSimulator(const Netlist& nl);

  /// Run on an externally compiled plan for the same netlist. Lets owners
  /// that patch a plan share one compilation with the simulator used to seed
  /// their caches.
  BitSimulator(const Netlist& nl, std::shared_ptr<const EvalPlan> plan);

  /// Evaluate all nodes for the given input patterns. DFF outputs are taken
  /// from `state` when provided (size = dffs().size()), else 0.
  NodeValues run(const PatternSet& inputs,
                 const std::vector<std::uint64_t>* dff_state = nullptr) const;

  /// run() into an existing matrix: when `vals` already has the right shape
  /// (same plan/size — e.g. the previous iteration's result) its
  /// storage is reused, skipping the multi-hundred-MB allocation and the
  /// kernel page-fault zeroing that dominates repeated large-circuit runs
  /// (Monte-Carlo estimation, benchmark loops). Falls back to a fresh
  /// allocation when the shape differs.
  void run_into(NodeValues& vals, const PatternSet& inputs,
                const std::vector<std::uint64_t>* dff_state = nullptr) const;

  /// Evaluate and extract only primary-output values, one signal per output.
  PatternSet outputs(const PatternSet& inputs) const;

  /// True when both pattern responses are identical on all primary outputs.
  /// `golden` must come from a netlist with the same output count/order.
  static bool responses_equal(const PatternSet& a, const PatternSet& b);

  const Netlist& netlist() const { return *nl_; }

  const EvalPlan* plan() const { return plan_.get(); }
  std::shared_ptr<const EvalPlan> shared_plan() const { return plan_; }

 private:
  const Netlist* nl_;
  std::shared_ptr<const EvalPlan> plan_;
};

/// The Node-walking reference evaluator: one pass over the netlist's
/// topological order through the sim/gate_eval.hpp kernels, sharing no code
/// with EvalPlan. No engine uses it; the parity tests and bench_large_smoke
/// hold the compiled plan to it bit for bit. Returns node-major rows: word
/// `w` of node `id` is at `[id * inputs.num_words() + w]` (rows of dead ids
/// are zero). DFF outputs are taken from `dff_state` as in BitSimulator::run.
std::vector<std::uint64_t> reference_simulate(
    const Netlist& nl, const PatternSet& inputs,
    const std::vector<std::uint64_t>* dff_state = nullptr);

/// Primary-output responses of `nl` on reference_simulate, one signal per
/// output with the tail lanes masked (the layout BitSimulator::outputs
/// returns).
PatternSet reference_outputs(const Netlist& nl, const PatternSet& inputs);

/// Count of 0->1 and 1->0 transitions per node when patterns are applied in
/// sequence (pattern p followed by p+1). Used for simulated switching
/// activity; `toggles[id]` is the total over the sequence.
std::vector<std::uint64_t> count_toggles(const Netlist& nl,
                                         const PatternSet& inputs);

/// Same count over an existing simulation: reuses the captured topo order /
/// compiled plan and the already-evaluated rows instead of re-running the
/// whole suite. `vals` must come from a run of `inputs` on `nl`.
std::vector<std::uint64_t> count_toggles(const Netlist& nl,
                                         const NodeValues& vals,
                                         std::size_t num_patterns);

/// Fraction of patterns for which each node evaluates to 1 (simulated signal
/// probability; Monte-Carlo reference for prob/signal_prob.hpp).
std::vector<double> simulated_one_probability(const Netlist& nl,
                                              const PatternSet& inputs);

/// Overload on an existing run, for callers that also count toggles (or
/// otherwise reuse the rows) on the same patterns.
std::vector<double> simulated_one_probability(const Netlist& nl,
                                              const NodeValues& vals,
                                              std::size_t num_patterns);

/// Cycle-accurate simulator for netlists with DFFs.
class CycleSimulator {
 public:
  explicit CycleSimulator(const Netlist& nl);

  /// Reset all DFFs to 0 and clear toggle counters.
  void reset();

  /// Apply one input vector (64 independent pattern lanes share the same
  /// sequential behaviour only if their inputs agree; for sequential runs use
  /// one lane). Advances state by one clock. Returns the primary-output bits
  /// of lane 0; the reference is into member scratch and is valid until the
  /// next step() or destruction.
  const std::vector<bool>& step(const std::vector<bool>& input_bits);

  /// Total signal transitions observed per node across all steps (includes
  /// the combinational settling between consecutive cycles, one evaluation
  /// per cycle — a zero-delay model).
  const std::vector<std::uint64_t>& toggles() const { return toggles_; }

  std::uint64_t cycles() const { return cycles_; }

  /// Current DFF state bits, in netlist dff order.
  std::vector<bool> state() const;

  /// Settled value of a combinational node after the latest step().
  bool value_of(NodeId id) const { return value_[id] & 1; }

 private:
  const Netlist* nl_;
  std::vector<NodeId> order_;
  std::vector<std::uint64_t> value_;   // one lane, bit 0 used
  std::vector<std::uint64_t> prev_;    // previous-cycle values
  std::vector<std::uint64_t> toggles_;
  // Per-step scratch, hoisted: step() runs once per cycle inside power-trace
  // workloads and must not allocate.
  std::vector<std::uint64_t> next_state_;
  std::vector<bool> out_;
  std::uint64_t cycles_ = 0;
  bool has_prev_ = false;
};

}  // namespace tz
