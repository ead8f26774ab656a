#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace tz {

FaultSimEngine::FaultSimEngine(const Netlist& nl) : nl_(&nl), sim_(nl) {
  // Reachability is one reverse sweep over the fanout CSR, which already
  // excludes DFF readers — they block a single pass exactly as they do in
  // BitSimulator::run.
  const EvalPlan& p = plan();
  const std::size_t n = p.num_slots();
  po_reach_.assign(n, 0);
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

void FaultSimEngine::set_patterns(const PatternSet& patterns) {
  // The cone pass reads whole good-machine rows via good_row(s); gather
  // them out of the (possibly stripe-major) run, as SuiteOracle's caches do.
  const NodeValues vals = sim_.run(patterns);
  words_ = patterns.num_words();
  good_.resize(plan().num_slots() * words_);
  for (std::size_t s = 0; s < plan().num_slots(); ++s) {
    vals.copy_slot_row(s, good_.data() + s * words_);
  }
  // Padding lanes past the last pattern never count as a change. Only the
  // site could make them differ, and it is blended with the good row there.
  valid_.assign(words_, ~std::uint64_t{0});
  if (words_ != 0) valid_.back() = patterns.tail_mask();
  pass_.bind(plan(), words_);
}

bool FaultSimEngine::screened_out(const Fault& f) const {
  if (!nl_->is_alive(f.node) || !po_reachable(f.node)) return true;
  const std::uint64_t inject =
      f.value == StuckAt::One ? ~std::uint64_t{0} : 0;
  const std::uint64_t* g = good_row(plan().slot_of(f.node));
  for (std::size_t w = 0; w < words_; ++w) {
    if ((inject ^ g[w]) & valid_[w]) return false;
  }
  return true;
}

std::size_t FaultSimEngine::simulate_fault(const Fault& f) {
  if (screened_out(f)) return kUndetected;

  // Inject the stuck value at the site and blend the padding lanes of the
  // last word with the good row, so the cascade sees no phantom difference
  // past the last pattern.
  const SlotId site = plan().slot_of(f.node);
  const std::uint64_t inject =
      f.value == StuckAt::One ? ~std::uint64_t{0} : 0;
  const std::uint64_t* g = good_row(site);
  std::uint64_t* site_row = pass_.force(site);
  for (std::size_t w = 0; w < words_; ++w) {
    site_row[w] = (inject & valid_[w]) | (g[w] & ~valid_[w]);
  }
  pass_.run(good_row(0), valid_.data());

  // Each PO's diff is scanned only up to the earliest detecting word found
  // so far; the lowest detecting lane in that word is the first pattern.
  // Pattern 0 cannot be beaten, so it ends the scan (a one-pattern set
  // stops at its first detecting PO).
  std::size_t first = kUndetected;
  std::size_t end = words_;
  for (const SlotId po : plan().output_slots()) {
    if (first == 0) break;
    if (!pass_.touched(po)) continue;
    const std::uint64_t* gp = good_row(po);
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
  if (detected.size() != faults.size()) {
    throw std::invalid_argument(
        "drop_sim: detected has " + std::to_string(detected.size()) +
        " flags for " + std::to_string(faults.size()) + " faults");
  }
  if (!first_detect.empty() && first_detect.size() != faults.size()) {
    throw std::invalid_argument(
        "drop_sim: first_detect has " + std::to_string(first_detect.size()) +
        " entries for " + std::to_string(faults.size()) + " faults");
  }
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

CoverageReport grade_patterns(const Netlist& nl,
                              const std::vector<Fault>& faults,
                              const PatternSet& patterns) {
  FaultSimEngine engine(nl);
  engine.set_patterns(patterns);
  std::vector<bool> detected(faults.size(), false);
  CoverageReport r;
  r.total_faults = faults.size();
  r.detected = engine.drop_sim(faults, detected);
  return r;
}

}  // namespace tz
