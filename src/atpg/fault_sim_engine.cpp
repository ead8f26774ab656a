#include "atpg/fault_sim_engine.hpp"

#include <algorithm>
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
    bits_.assign(words_, 0);
    synced_patterns_ = ctx_->pattern_epoch();
  }
}

bool FaultSimEngine::simulate_fault(const Fault& f, bool want_bits) {
  sync_scratch();
  if (want_bits) std::fill(bits_.begin(), bits_.end(), 0);
  if (ctx_->screened_out(f)) return false;

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

  bool any = false;
  for (const SlotId po : plan.output_slots()) {
    if (!pass_.touched(po)) continue;
    const std::uint64_t* gp = ctx_->good_row(po);
    const std::uint64_t* fp = pass_.value(po);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t diff = (gp[w] ^ fp[w]) & valid_[w];
      if (!diff) continue;
      any = true;
      if (!want_bits) goto done;
      bits_[w] |= diff;
    }
  }
done:
  pass_.clear();
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
