#include "atpg/fault_sim_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace tz {

FaultSimEngine::FaultSimEngine(std::shared_ptr<FaultSimContext> ctx)
    : FaultSimBackend(std::move(ctx)) {}

void FaultSimEngine::sync_scratch() {
  if (synced_patterns_ != ctx_->pattern_epoch()) {
    words_ = ctx_->words();
    // Padding lanes past the last pattern never count as a change. Only the
    // site could make them differ, and it is blended with the good row there.
    valid_.assign(words_, ~std::uint64_t{0});
    if (words_ != 0) valid_.back() = ctx_->tail_mask();
    pass_.bind(ctx_->plan(), words_);
    synced_patterns_ = ctx_->pattern_epoch();
  }
}

std::size_t FaultSimEngine::simulate_fault(const Fault& f) {
  sync_scratch();
  if (ctx_->screened_out(f)) return kUndetected;

  // Inject the stuck value at the site and blend the padding lanes of the
  // last word with the good row, so the cascade sees no phantom difference
  // past the last pattern.
  const EvalPlan& plan = ctx_->plan();
  const SlotId site = plan.slot_of(f.node);
  const std::uint64_t inject =
      f.value == StuckAt::One ? ~std::uint64_t{0} : 0;
  const std::uint64_t* g = ctx_->good_row(site);
  std::uint64_t* site_row = pass_.force(site);
  for (std::size_t w = 0; w < words_; ++w) {
    site_row[w] = (inject & valid_[w]) | (g[w] & ~valid_[w]);
  }
  pass_.run(ctx_->good_row(0), valid_.data());

  // Each PO's diff is scanned only up to the earliest detecting word found
  // so far; the lowest detecting lane in that word is the first pattern.
  // Pattern 0 cannot be beaten, so it ends the scan (a one-pattern set
  // stops at its first detecting PO).
  std::size_t first = kUndetected;
  std::size_t end = words_;
  for (const SlotId po : plan.output_slots()) {
    if (first == 0) break;
    if (!pass_.touched(po)) continue;
    const std::uint64_t* gp = ctx_->good_row(po);
    const std::uint64_t* fp = pass_.value(po);
    for (std::size_t w = 0; w < end; ++w) {
      const std::uint64_t diff = (gp[w] ^ fp[w]) & valid_[w];
      if (!diff) continue;
      first = std::min(
          first, 64 * w + static_cast<std::size_t>(std::countr_zero(diff)));
      end = w + 1;
      break;
    }
  }
  pass_.clear();
  return first;
}

std::size_t FaultSimEngine::drop_sim(std::span<const Fault> faults,
                                     std::vector<bool>& detected,
                                     std::span<std::size_t> first_detect) {
  check_drop_flags(faults, detected, first_detect);
  std::size_t newly = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    const std::size_t first = simulate_fault(faults[i]);
    if (first == kUndetected) continue;
    detected[i] = true;
    if (!first_detect.empty()) first_detect[i] = first;
    ++newly;
  }
  return newly;
}

}  // namespace tz
