#include "atpg/fault_sim_backend.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "atpg/fault_sim_engine.hpp"
#include "atpg/fault_sim_packed.hpp"

namespace tz {

namespace {

std::atomic<int>& fault_mode_override() {
  static std::atomic<int> mode{0};
  return mode;
}

}  // namespace

std::string_view to_string(FaultSimMode mode) {
  switch (mode) {
    case FaultSimMode::Auto: return "auto";
    case FaultSimMode::Event: return "event";
    case FaultSimMode::Packed: return "packed";
  }
  return "auto";
}

FaultSimMode fault_sim_mode() {
  return static_cast<FaultSimMode>(
      fault_mode_override().load(std::memory_order_relaxed));
}

void set_fault_sim_mode(int mode) {
  fault_mode_override().store(std::clamp(mode, 0, 2),
                              std::memory_order_relaxed);
}

FaultSimContext::FaultSimContext(const Netlist& nl) : nl_(&nl), sim_(nl) {
  // Reachability is one reverse sweep over the fanout CSR, which already
  // excludes DFF readers — they block a single pass exactly as they do in
  // BitSimulator::run.
  const EvalPlan& p = plan();
  const std::size_t n = p.num_slots();
  po_reach_.assign(n, 0);
  rank_.resize(n);
  std::iota(rank_.begin(), rank_.end(), 0);
  for (SlotId po : p.output_slots()) po_reach_[po] = 1;
  for (SlotId s = static_cast<SlotId>(n); s-- > 0;) {
    if (po_reach_[s]) continue;
    for (SlotId reader : p.fanout(s)) {
      if (po_reach_[reader]) {
        po_reach_[s] = 1;
        break;
      }
    }
  }
}

void FaultSimContext::set_patterns(const PatternSet& patterns) {
  // The cone kernels read whole good-machine rows via good_row(s); gather
  // them out of the (possibly stripe-major) run, as SuiteOracle's caches do.
  const NodeValues vals = sim_.run(patterns);
  words_ = patterns.num_words();
  good_.resize(plan().num_slots() * words_);
  for (std::size_t s = 0; s < plan().num_slots(); ++s) {
    vals.copy_slot_row(s, good_.data() + s * words_);
  }
  tail_ = patterns.tail_mask();
  num_patterns_ = patterns.num_patterns();
  has_patterns_ = true;
  ++pattern_epoch_;
}

double FaultSimContext::mean_cone_size() {
  if (mean_cone_ >= 0.0) return mean_cone_;
  // Sample the fanout-cone size from a handful of evenly spaced PO-reachable
  // sites: a bounded BFS over the same edges the event engine walks, giving
  // the Auto selector a static density estimate without simulating anything.
  const std::size_t n = plan().num_slots();
  std::vector<std::uint32_t> reachable;
  reachable.reserve(n);
  for (std::uint32_t ix = 0; ix < n; ++ix) {
    if (po_reach_[ix]) reachable.push_back(ix);
  }
  if (reachable.empty()) {
    mean_cone_ = 0.0;
    return mean_cone_;
  }
  constexpr std::size_t kSamples = 24;
  const std::size_t stride = std::max<std::size_t>(1, reachable.size() / kSamples);
  std::vector<std::uint32_t> stamp(n, 0);
  std::vector<std::uint32_t> frontier;
  std::uint32_t epoch = 0;
  std::size_t total = 0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < reachable.size(); i += stride) {
    ++epoch;
    ++samples;
    frontier.assign(1, reachable[i]);
    stamp[reachable[i]] = epoch;
    std::size_t cone = 0;
    while (!frontier.empty()) {
      const std::uint32_t ix = frontier.back();
      frontier.pop_back();
      ++cone;
      for (SlotId reader : plan().fanout(ix)) {
        if (stamp[reader] != epoch) {
          stamp[reader] = epoch;
          frontier.push_back(reader);
        }
      }
    }
    total += cone;
  }
  mean_cone_ = static_cast<double>(total) / static_cast<double>(samples);
  return mean_cone_;
}

std::size_t FaultSimContext::eval_slot_count() {
  if (eval_slots_ == 0) {
    std::size_t count = 0;
    for (SlotId s = 0; s < plan().num_slots(); ++s) {
      const EvalOp op = plan().op(s);
      if (op != EvalOp::Source && op != EvalOp::Dead) ++count;
    }
    eval_slots_ = std::max<std::size_t>(1, count);
  }
  return eval_slots_;
}

void FaultSimBackend::check_drop_flags(std::span<const Fault> faults,
                                       const std::vector<bool>& detected) {
  if (detected.size() != faults.size()) {
    throw std::invalid_argument(
        "drop_sim: detected has " + std::to_string(detected.size()) +
        " flags for " + std::to_string(faults.size()) + " faults");
  }
}

namespace {

/// The measured auto-selector. Holds both engines lazily over one shared
/// context and routes each call by a word-count cost model:
///
///   event  ~ F * mean_cone * ceil(P/64)      words through the scalar cone
///                                            walk (worklist + change check)
///   packed ~ ceil(F/64) * eval_slots * P     words through the SIMD stripe
///                                            sweep, flag-mode runs usually
///                                            early-exiting after the first
///                                            64-pattern block
///
/// A packed word is much cheaper than an event word (straight-line SIMD vs
/// worklist scheduling and per-gate dispatch), and the static cone size
/// overestimates the event walk (diffs die before filling the cone);
/// kPackedWordCost folds both effects into one measured constant. Calibrated
/// against the two 100k-gate bench extremes, whose decisions it must get
/// right with margin: mult96 dense cones (mean cone ~31k of 109k slots) run
/// ~7.7x faster packed (BM_FaultSimPacked100k same-run A/B), while the
/// sparse rand100k DAG (mean cone ~4k of 100k slots) runs ~2.4x faster
/// event-driven (bench_large_smoke parity section times both).
class AutoFaultSimBackend final : public FaultSimBackend {
 public:
  explicit AutoFaultSimBackend(std::shared_ptr<FaultSimContext> ctx)
      : FaultSimBackend(std::move(ctx)) {}

  std::string_view name() const override { return "auto"; }

  std::size_t drop_sim(std::span<const Fault> faults,
                       std::vector<bool>& detected) override {
    check_drop_flags(faults, detected);
    // Cost tracks the faults still alive, not the span size.
    std::size_t live = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detected[i]) ++live;
    }
    return pick(live, /*matrix=*/false).drop_sim(faults, detected);
  }

  std::vector<std::vector<std::uint64_t>> detection_matrix(
      std::span<const Fault> faults) override {
    return pick(faults.size(), /*matrix=*/true).detection_matrix(faults);
  }

 private:
  FaultSimEngine& event() {
    if (!event_) event_ = std::make_unique<FaultSimEngine>(ctx_);
    return *event_;
  }
  PackedFaultSimEngine& packed() {
    if (!packed_) packed_ = std::make_unique<PackedFaultSimEngine>(ctx_);
    return *packed_;
  }

  FaultSimBackend& pick(std::size_t num_faults, bool matrix) {
    // Below one full word of lanes the packed sweep wastes most of its work.
    constexpr std::size_t kMinPackedFaults = 64;
    constexpr double kPackedWordCost = 0.125;
    if (num_faults < kMinPackedFaults || ctx_->words() == 0) return event();
    const double cone = ctx_->mean_cone_size();
    const double slots = static_cast<double>(ctx_->eval_slot_count());
    const double words = static_cast<double>(ctx_->words());
    const double batches =
        static_cast<double>((num_faults + 63) / 64);
    // Flag-mode packed runs early-exit once every live lane has detected —
    // almost always within the first couple of 64-pattern blocks.
    const double packed_blocks = matrix ? words : std::min(words, 2.0);
    const double event_cost = static_cast<double>(num_faults) * cone * words;
    const double packed_cost =
        batches * slots * 64.0 * packed_blocks * kPackedWordCost;
    return packed_cost < event_cost ? static_cast<FaultSimBackend&>(packed())
                                    : event();
  }

  std::unique_ptr<FaultSimEngine> event_;
  std::unique_ptr<PackedFaultSimEngine> packed_;
};

}  // namespace

std::unique_ptr<FaultSimBackend> make_fault_sim_backend(
    std::shared_ptr<FaultSimContext> ctx, FaultSimMode mode) {
  switch (mode) {
    case FaultSimMode::Event:
      return std::make_unique<FaultSimEngine>(std::move(ctx));
    case FaultSimMode::Packed:
      return std::make_unique<PackedFaultSimEngine>(std::move(ctx));
    case FaultSimMode::Auto:
      break;
  }
  return std::make_unique<AutoFaultSimBackend>(std::move(ctx));
}

std::unique_ptr<FaultSimBackend> make_fault_sim_backend(const Netlist& nl,
                                                        FaultSimMode mode) {
  return make_fault_sim_backend(std::make_shared<FaultSimContext>(nl), mode);
}

}  // namespace tz
