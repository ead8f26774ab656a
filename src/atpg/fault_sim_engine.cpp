#include "atpg/fault_sim_engine.hpp"

#include <algorithm>
#include <cstdint>

namespace tz {

FaultSimEngine::FaultSimEngine(std::shared_ptr<FaultSimContext> ctx)
    : FaultSimBackend(std::move(ctx)),
      touched_(ctx_->plan().num_slots(), 0),
      worklist_(ctx_->rank()) {
  worklist_.resize(ctx_->plan().num_slots());
}

void FaultSimEngine::sync_scratch() {
  if (synced_patterns_ != ctx_->pattern_epoch()) {
    words_ = ctx_->words();
    tail_ = ctx_->tail_mask();
    faulty_.resize(ctx_->plan().num_slots() * words_);
    bits_.assign(words_, 0);
    synced_patterns_ = ctx_->pattern_epoch();
  }
}

bool FaultSimEngine::simulate_fault(const Fault& f, bool want_bits) {
  sync_scratch();
  const Netlist& nl = ctx_->netlist();
  const EvalPlan& plan = ctx_->plan();
  if (want_bits) std::fill(bits_.begin(), bits_.end(), 0);
  if (!nl.is_alive(f.node) || words_ == 0) return false;
  const SlotId site = plan.slot_of(f.node);
  if (!ctx_->po_reachable_slot(site)) return false;

  // Seed: inject the stuck value at the site. If no pattern excites the
  // fault (good value already equals the stuck value everywhere), nothing
  // can propagate — skip the whole cone.
  const std::uint64_t inject =
      f.value == StuckAt::One ? ~std::uint64_t{0} : 0;
  const std::uint64_t* g = ctx_->good_row(site);
  std::uint64_t excited = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t diff = inject ^ g[w];
    if (w + 1 == words_) diff &= tail_;
    excited |= diff;
  }
  if (!excited) return false;

  std::uint64_t* site_row = frow(site);
  for (std::size_t w = 0; w < words_; ++w) site_row[w] = inject;
  // Blend the padding lanes of the last word with the good row so the
  // event cascade below sees no phantom difference past the last pattern.
  site_row[words_ - 1] = (inject & tail_) | (g[words_ - 1] & ~tail_);
  touched_[site] = 1;
  visited_.push_back(site);

  const auto schedule = [&](SlotId src) {
    for (SlotId reader : plan.fanout(src)) worklist_.push(reader);
  };
  const auto value_of = [&](SlotId s) -> const std::uint64_t* {
    return touched_[s] ? frow(s) : ctx_->good_row(s);
  };

  // Event-driven cone evaluation. The worklist pops in topological order, so
  // by the time a gate is evaluated all of its touched fanins are final; a
  // gate whose faulty row equals the good row generates no further events.
  schedule(site);
  while (!worklist_.empty()) {
    const SlotId ix = worklist_.pop();
    std::uint64_t* out = frow(ix);
    eval_plan_slot(plan, ix, words_, value_of, out);
    const std::uint64_t* gr = ctx_->good_row(ix);
    std::uint64_t changed = 0;
    for (std::size_t w = 0; w < words_; ++w) changed |= out[w] ^ gr[w];
    if (!changed) continue;  // row not marked touched; readers see the good_
    touched_[ix] = 1;
    visited_.push_back(ix);
    schedule(ix);
  }

  bool any = false;
  for (const SlotId po : plan.output_slots()) {
    if (!touched_[po]) continue;
    const std::uint64_t* gp = ctx_->good_row(po);
    const std::uint64_t* fp = frow(po);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t diff = gp[w] ^ fp[w];
      if (w + 1 == words_) diff &= tail_;
      if (!diff) continue;
      any = true;
      if (!want_bits) goto done;
      bits_[w] |= diff;
    }
  }
done:
  for (std::uint32_t ix : visited_) touched_[ix] = 0;
  visited_.clear();
  return any;
}

std::size_t FaultSimEngine::drop_sim(std::span<const Fault> faults,
                                     std::vector<bool>& detected) {
  check_drop_flags(faults, detected);
  std::size_t newly = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    if (simulate_fault(faults[i], /*want_bits=*/false)) {
      detected[i] = true;
      ++newly;
    }
  }
  return newly;
}

std::vector<std::vector<std::uint64_t>> FaultSimEngine::detection_matrix(
    std::span<const Fault> faults) {
  std::vector<std::vector<std::uint64_t>> matrix(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    simulate_fault(faults[i], /*want_bits=*/true);
    matrix[i] = bits_;
  }
  return matrix;
}

}  // namespace tz
