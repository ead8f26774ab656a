#include "atpg/fault_sim_packed.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/simd.hpp"
#include "verify/verify.hpp"

namespace tz {

PackedFaultSimEngine::PackedFaultSimEngine(std::shared_ptr<FaultSimContext> ctx)
    : FaultSimBackend(std::move(ctx)),
      plan_(&ctx_->plan()),
      matrix_(plan_->num_slots() * kBlock, 0),
      acc_(kBlock, 0) {}

void PackedFaultSimEngine::sync_scratch() {
  if (synced_patterns_ != ctx_->pattern_epoch()) {
    words_ = ctx_->words();
    num_patterns_ = ctx_->num_patterns();
    tail_ = ctx_->tail_mask();
    source_slots_.clear();
    source_good_.clear();
    output_slots_.clear();
    output_good_.clear();
    if (ctx_->has_patterns()) {
      for (const std::vector<SlotId>* list :
           {&plan_->input_slots(), &plan_->dff_slots()}) {
        for (SlotId s : *list) {
          source_slots_.push_back(s);
          source_good_.push_back(ctx_->good_row(s));
        }
      }
      for (SlotId s : plan_->output_slots()) {
        output_slots_.push_back(s);
        output_good_.push_back(ctx_->good_row(s));
      }
    }
    synced_patterns_ = ctx_->pattern_epoch();
  }
}

bool PackedFaultSimEngine::screened_out(const Fault& f) const {
  // The same screens as the event engine, so both backends zero the same
  // rows: dead site, no combinational PO path, or never excited.
  const Netlist& nl = ctx_->netlist();
  if (!nl.is_alive(f.node)) return true;
  if (plan_->slot_of(f.node) == kNoSlot) return true;
  if (!ctx_->po_reachable(f.node)) return true;
  const std::uint64_t inject =
      f.value == StuckAt::One ? ~std::uint64_t{0} : 0;
  const std::uint64_t* g = ctx_->good_row(plan_->slot_of(f.node));
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t diff = inject ^ g[w];
    if (w + 1 == words_) diff &= tail_;
    if (diff) return false;
  }
  return true;
}

std::uint64_t PackedFaultSimEngine::run_batch(
    std::span<const Fault> faults, std::span<const std::size_t> idx,
    std::vector<std::vector<std::uint64_t>>* rows,
    std::span<const char> dropped) {
  const std::size_t lanes = idx.size();
  const std::uint64_t lanes_mask =
      lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;

  // Lane bookkeeping + injection sites merged per slot, ascending. Slot
  // order is topological order, so every reader of a site sits at a higher
  // slot and the ranged sweep below forces the stuck values in time.
  lane_node_.clear();
  lane_fault_.clear();
  std::uint64_t sa1 = 0;
  std::array<std::pair<SlotId, std::uint8_t>, kBlock> by_slot;
  for (std::size_t i = 0; i < lanes; ++i) {
    const Fault& f = faults[idx[i]];
    lane_node_.push_back(f.node);
    lane_fault_.push_back(idx[i]);
    if (f.value == StuckAt::One) sa1 |= std::uint64_t{1} << i;
    by_slot[i] = {plan_->slot_of(f.node), static_cast<std::uint8_t>(i)};
  }
  std::sort(by_slot.begin(), by_slot.begin() + lanes);
  site_slot_.clear();
  site_mask_.clear();
  site_force_one_.clear();
  for (std::size_t i = 0; i < lanes; ++i) {
    const auto [slot, lane] = by_slot[i];
    const std::uint64_t bit = std::uint64_t{1} << lane;
    if (site_slot_.empty() || site_slot_.back() != slot) {
      site_slot_.push_back(slot);
      site_mask_.push_back(0);
      site_force_one_.push_back(0);
    }
    site_mask_.back() |= bit;
    site_force_one_.back() |= bit & sa1;
  }

  if (check_enabled()) {
    FaultPackBatch b;
    b.plan = plan_;
    b.lanes_mask = lanes_mask;
    b.sa1_lanes = sa1;
    b.lane_node = lane_node_;
    b.lane_fault = lane_fault_;
    b.site_slot = site_slot_;
    b.site_mask = site_mask_;
    b.site_force_one = site_force_one_;
    b.dropped = dropped;
    VerifyReport r = FaultPackChecker::run(b);
    if (!r.ok()) throw VerifyError("fault-pack-batch", std::move(r));
  }

  const detail::StripeKernelFn kern = detail::stripe_kernel();
  const auto n = static_cast<std::uint32_t>(plan_->num_slots());
  std::uint64_t* m = matrix_.data();
  std::uint64_t detected = 0;
  for (std::size_t wp = 0; wp < words_; ++wp) {
    const std::size_t nvalid =
        wp + 1 == words_ ? num_patterns_ - kBlock * wp : kBlock;
    // Source rows: broadcast each pattern's good bit across all 64 lanes.
    for (std::size_t k = 0; k < source_slots_.size(); ++k) {
      const std::uint64_t g = source_good_[k][wp];
      std::uint64_t* row = m + std::size_t{source_slots_[k]} * kBlock;
      for (std::size_t j = 0; j < kBlock; ++j) {
        row[j] = std::uint64_t{0} - ((g >> j) & 1);
      }
    }
    // One SoA sweep, split at the injection sites.
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < site_slot_.size(); ++i) {
      const SlotId s = site_slot_[i];
      kern(*plan_, m, kBlock, prev, s + 1);
      prev = s + 1;
      const std::uint64_t mask = site_mask_[i];
      const std::uint64_t ones = site_force_one_[i];
      std::uint64_t* row = m + std::size_t{s} * kBlock;
      for (std::size_t j = 0; j < kBlock; ++j) {
        row[j] = (row[j] & ~mask) | ones;
      }
    }
    kern(*plan_, m, kBlock, prev, n);
    // Detection: diff every PO row against the broadcast good bit.
    if (rows) {
      std::fill(acc_.begin(), acc_.end(), 0);
      for (std::size_t o = 0; o < output_slots_.size(); ++o) {
        const std::uint64_t g = output_good_[o][wp];
        const std::uint64_t* row = m + std::size_t{output_slots_[o]} * kBlock;
        for (std::size_t j = 0; j < nvalid; ++j) {
          acc_[j] |= (row[j] ^ (std::uint64_t{0} - ((g >> j) & 1)));
        }
      }
      for (std::size_t j = 0; j < nvalid; ++j) {
        std::uint64_t a = acc_[j] & lanes_mask;
        detected |= a;
        while (a) {
          const int lane = std::countr_zero(a);
          a &= a - 1;
          (*rows)[lane_fault_[lane]][wp] |= std::uint64_t{1} << j;
        }
      }
    } else {
      for (std::size_t o = 0; o < output_slots_.size(); ++o) {
        const std::uint64_t g = output_good_[o][wp];
        const std::uint64_t* row = m + std::size_t{output_slots_[o]} * kBlock;
        for (std::size_t j = 0; j < nvalid; ++j) {
          detected |= (row[j] ^ (std::uint64_t{0} - ((g >> j) & 1)));
        }
      }
      detected &= lanes_mask;
      // Early exit: every live lane has already detected — the remaining
      // pattern blocks cannot change any flag.
      if (detected == lanes_mask) break;
    }
  }
  return detected & lanes_mask;
}

std::size_t PackedFaultSimEngine::run_all(
    std::span<const Fault> faults, std::vector<bool>& detected,
    std::vector<std::vector<std::uint64_t>>* rows) {
  sync_scratch();
  if (words_ == 0) return 0;
  std::vector<std::size_t> cand;
  cand.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!detected[i] && !screened_out(faults[i])) cand.push_back(i);
  }
  std::span<const char> dsnap;
  if (rows == nullptr && check_enabled()) {
    dropped_scratch_.assign(detected.begin(), detected.end());
    dsnap = dropped_scratch_;
  }
  std::size_t newly = 0;
  for (std::size_t b = 0; b < cand.size(); b += kBlock) {
    const std::size_t k = std::min(kBlock, cand.size() - b);
    const std::uint64_t det =
        run_batch(faults, std::span(cand).subspan(b, k), rows, dsnap);
    for (std::size_t i = 0; i < k; ++i) {
      if ((det >> i) & 1) {
        detected[cand[b + i]] = true;
        ++newly;
      }
    }
  }
  return newly;
}

std::size_t PackedFaultSimEngine::drop_sim(std::span<const Fault> faults,
                                           std::vector<bool>& detected) {
  check_drop_flags(faults, detected);
  return run_all(faults, detected, nullptr);
}

std::vector<std::vector<std::uint64_t>> PackedFaultSimEngine::detection_matrix(
    std::span<const Fault> faults) {
  sync_scratch();
  std::vector<std::vector<std::uint64_t>> m(
      faults.size(), std::vector<std::uint64_t>(words_, 0));
  std::vector<bool> detected(faults.size(), false);
  run_all(faults, detected, &m);
  return m;
}

}  // namespace tz
