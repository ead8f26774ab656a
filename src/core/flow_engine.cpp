#include "core/flow_engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/ht_library.hpp"
#include "prob/signal_prob.hpp"
#include "sim/simulator.hpp"
#include "verify/verify.hpp"

namespace tz {

// --------------------------------------------------------------- SuiteOracle

SuiteOracle::SuiteOracle(const Netlist& nl, const DefenderSuite& suite)
    : SuiteOracle(nl, suite, nullptr) {}

SuiteOracle::SuiteOracle(const Netlist& nl, const DefenderSuite& suite,
                         const SuiteOracle* seed)
    : nl_(&nl), suite_(&suite) {
  if (!nl.dffs().empty()) {
    throw std::invalid_argument(
        "SuiteOracle: the host netlist has " +
        std::to_string(nl.dffs().size()) +
        " DFF(s); only combinational hosts are supported");
  }
  for (const DefenderTestSet& ts : suite.algorithms) {
    if (ts.patterns.num_signals() != nl.inputs().size() ||
        ts.golden.num_signals() != nl.outputs().size()) {
      throw std::invalid_argument(
          "SuiteOracle: test set '" + ts.name + "' maps " +
          std::to_string(ts.patterns.num_signals()) + " inputs to " +
          std::to_string(ts.golden.num_signals()) +
          " outputs, but the netlist has " +
          std::to_string(nl.inputs().size()) + " inputs and " +
          std::to_string(nl.outputs().size()) + " outputs");
    }
  }
  if (seed != nullptr && seed_compatible(*seed)) {
    clone_from(*seed);
    return;
  }
  build_caches();
}

bool SuiteOracle::seed_compatible(const SuiteOracle& seed) const {
  // The caller's contract is that the seed was built on a structurally
  // identical netlist with the same suite; these guards catch the obvious
  // mismatches (different circuit, different suite shape) and fall back to
  // a full build rather than serving stale rows.
  if (seed.nl_->raw_size() != nl_->raw_size() ||
      seed.nl_->live_count() != nl_->live_count()) {
    return false;
  }
  if (seed.recorded_po_ != nl_->outputs()) return false;
  if (seed.suite_ != suite_) {
    if (seed.suite_->algorithms.size() != suite_->algorithms.size()) {
      return false;
    }
    for (std::size_t i = 0; i < suite_->algorithms.size(); ++i) {
      if (seed.suite_->algorithms[i].patterns.num_patterns() !=
          suite_->algorithms[i].patterns.num_patterns()) {
        return false;
      }
    }
  }
  return true;
}

void SuiteOracle::clone_from(const SuiteOracle& seed) {
  node_cap_ = seed.node_cap_;
  words_ = seed.words_;
  segs_ = seed.segs_;
  valid_ = seed.valid_;
  rows_ = seed.rows_;
  golden_ = seed.golden_;
  recorded_po_ = seed.recorded_po_;
  // The plan is patched in place by try_tie, so every clone gets
  // its own deep copy; the seed's plan stays pristine for the next job.
  plan_ = std::make_shared<EvalPlan>(*seed.plan_);
  pass_.bind(*plan_, words_);
}

void SuiteOracle::build_caches() {
  const Netlist& nl = *nl_;
  const DefenderSuite& suite = *suite_;
  node_cap_ = nl.raw_size();
  // One plan shared with the seeding simulator, so cached rows are dense
  // slot-major and slot ids double as topological ranks.
  plan_ = std::make_shared<EvalPlan>(nl);
  const std::size_t slots = plan_->num_slots();
  BitSimulator sim(nl, plan_);
  recorded_po_ = nl.outputs();

  // Fused layout: every non-empty set occupies a contiguous word range of
  // one row, so a single cone pass judges the whole suite. Tail bits inside
  // the row (each set's last-word padding) are masked by valid_.
  segs_.reserve(suite.algorithms.size());
  for (const DefenderTestSet& ts : suite.algorithms) {
    if (ts.patterns.num_patterns() == 0) continue;
    SetSegment sg;
    sg.offset = words_;
    sg.words = ts.patterns.num_words();
    sg.patterns = ts.patterns.num_patterns();
    words_ += sg.words;
    segs_.push_back(sg);
  }
  valid_.assign(words_, ~std::uint64_t{0});
  rows_.assign(slots * words_, 0);
  golden_.assign(recorded_po_.size() * words_, 0);
  std::size_t seg = 0;
  for (const DefenderTestSet& ts : suite.algorithms) {
    if (ts.patterns.num_patterns() == 0) continue;
    const SetSegment& sg = segs_[seg++];
    valid_[sg.offset + sg.words - 1] = ts.patterns.tail_mask();
    const NodeValues vals = sim.run(ts.patterns);
    // copy_slot_row gathers across stripes when a wide suite made the run
    // come out stripe-major (the fused cache itself stays row-contiguous).
    for (std::size_t s = 0; s < slots; ++s) {
      vals.copy_slot_row(s, rows_.data() + s * words_ + sg.offset);
    }
    for (std::size_t o = 0; o < recorded_po_.size(); ++o) {
      const auto g = ts.golden.words(o);
      std::copy(g.begin(), g.end(), golden_.data() + o * words_ + sg.offset);
    }
  }
  pass_.bind(*plan_, words_);
}

void SuiteOracle::grow() {
  const std::size_t n = nl_->raw_size();
  if (n <= node_cap_) return;
  // Plan patch: every new alive node becomes a source slot appended to the
  // plan (never scheduled — tie cells are the only new nodes oracle queries
  // ever read; HT and dummy gates are judged before materialisation / have
  // no readers).
  plan_->ensure_node_capacity(n);
  for (NodeId id = static_cast<NodeId>(node_cap_); id < n; ++id) {
    if (!nl_->is_alive(id)) continue;
    const SlotId s = plan_->append_source(id);
    rows_.resize((static_cast<std::size_t>(s) + 1) * words_, 0);
    if (nl_->node(id).type == GateType::Const1) {
      std::fill_n(rows_.data() + static_cast<std::size_t>(s) * words_, words_,
                  ~std::uint64_t{0});
    }
  }
  node_cap_ = n;
  pass_.bind(*plan_, words_);
}

bool SuiteOracle::propagate() {
  // A gate whose row matches the cache on all valid lanes (of every set at
  // once) generates no further events.
  pass_.run(rows_.data(), valid_.data());
  for (std::size_t o = 0; o < recorded_po_.size(); ++o) {
    const NodeId cur = nl_->outputs()[o];
    const SlotId cix = plan_->slot_of(cur);
    if (!pass_.touched(cix) && cur == recorded_po_[o]) continue;
    const std::uint64_t* got = pass_.value(cix);
    const std::uint64_t* want = golden_.data() + o * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      if ((got[w] ^ want[w]) & valid_[w]) return true;
    }
  }
  return false;
}

bool SuiteOracle::seed_tie(NodeId target, bool value) {
  const std::uint64_t cval = value ? ~std::uint64_t{0} : 0;
  const SlotId tix = plan_->slot_of(target);
  // Excitation fast path: the tied node already evaluated to the constant
  // on every valid lane of every set — nothing downstream can change.
  const std::uint64_t* tr = cached_row(tix);
  std::uint64_t diff = 0;
  for (std::size_t w = 0; w < words_; ++w) diff |= (tr[w] ^ cval) & valid_[w];
  if (!diff) return false;
  // Force the constant at the target and re-evaluate its readers: exactly
  // the function the netlist computes once the tie is applied.
  std::fill_n(pass_.force(tix), words_, cval);
  return true;
}

bool SuiteOracle::tie_visible(NodeId target, bool value) {
  grow();
  if (words_ == 0) return false;
  if (!seed_tie(target, value)) return false;
  const bool any = propagate();
  pass_.clear();
  return any;
}

std::optional<TieResult> SuiteOracle::try_tie(Netlist& work, NodeId target,
                                              bool value) {
  if (&work != nl_) {
    throw std::invalid_argument(
        "SuiteOracle::try_tie: the netlist is not the one the oracle is "
        "bound to");
  }
  grow();
  if (words_ != 0 && seed_tie(target, value)) {
    const bool visible = propagate();
    if (!visible) {
      // Invisible: fold the deviating rows into the cache so later
      // candidates are judged against the updated netlist.
      for (SlotId id : pass_.visited()) {
        std::copy_n(pass_.value(id), words_,
                    rows_.data() + static_cast<std::size_t>(id) * words_);
      }
    }
    pass_.clear();
    if (visible) return std::nullopt;
  }
  const TieResult tie = tie_to_constant(work, target, value);
  grow();
  // Incremental plan patch: the netlist now reads the tie cell (appended as
  // a source slot by grow()) wherever it read the target, and the target
  // plus its newly-unread fanin cone were swept. Rewrite the recorded
  // readers' fanin CSR rows in place and tombstone the dead region —
  // exactly the structure a from-scratch recompile would produce, without
  // paying for one per committed candidate.
  const SlotId ts = plan_->slot_of(target);
  // The fanout CSR still records the pre-tie readers of the target.
  for (SlotId r : plan_->fanout(ts)) {
    if (plan_->op(r) != EvalOp::Dead && nl_->is_alive(plan_->node_of(r))) {
      plan_->refresh_fanins(r, *nl_);
    }
  }
  // The swept cone is the transitive fanin region of the target that lost
  // its last reader: walk fanin edges from the target, tombstoning every
  // node the sweep removed, and stop at survivors.
  std::vector<SlotId> stack{ts};
  while (!stack.empty()) {
    const SlotId s = stack.back();
    stack.pop_back();
    if (plan_->op(s) == EvalOp::Dead) continue;
    if (nl_->is_alive(plan_->node_of(s))) continue;
    for (SlotId f : plan_->fanins(s)) stack.push_back(f);
    plan_->kill(s);
  }
  // A tie that retargeted a primary output leaves the compiled output list
  // pointing at the old driver's slot.
  plan_->refresh_outputs(*nl_);
  recorded_po_ = nl_->outputs();
  return tie;
}

bool SuiteOracle::payload_fires(std::span<const NodeId> trigger_nets,
                                int counter_bits) {
  // Trigger condition per pattern: AND over the tapped rare nets.
  trig_.assign(words_, ~std::uint64_t{0});
  for (NodeId r : trigger_nets) {
    const std::uint64_t* row = cached_row(plan_->slot_of(r));
    for (std::size_t w = 0; w < words_; ++w) trig_[w] &= row[w];
  }
  for (std::size_t w = 0; w < words_; ++w) trig_[w] &= valid_[w];
  // Payload-enable per pattern. A comparator HT fires with the trigger; a
  // counter HT is replayed cycle by cycle from reset — once per test set,
  // exactly as the defender's tester streams each algorithm's patterns
  // (functional_test's CycleSimulator semantics: S' = S + trigger, fire when
  // saturated).
  if (counter_bits == 0) {
    fire_ = trig_;
  } else {
    fire_.assign(words_, 0);
    const std::uint64_t full = (std::uint64_t{1} << counter_bits) - 1;
    for (const SetSegment& sg : segs_) {
      std::uint64_t state = 0;
      for (std::size_t p = 0; p < sg.patterns; ++p) {
        const std::size_t w = sg.offset + (p >> 6);
        if (state == full) fire_[w] |= std::uint64_t{1} << (p & 63);
        if ((trig_[w] >> (p & 63)) & 1) state = (state + 1) & full;
      }
    }
  }
  std::uint64_t any_fire = 0;
  for (std::uint64_t w : fire_) any_fire |= w;
  return any_fire != 0;
}

bool SuiteOracle::ht_visible(std::span<const NodeId> trigger_nets,
                             int counter_bits, NodeId victim) {
  if (counter_bits < 0 || counter_bits > 63) {
    // Same shift-UB class analytic_pft guards against: payload_fires
    // computes the saturation count in 64 bits. Checked before the
    // empty-suite early return so the contract holds on every suite.
    throw std::invalid_argument(
        "SuiteOracle::ht_visible: counter_bits must be in [0,63]");
  }
  grow();
  if (words_ == 0) return false;
  // Dormant throughout every pattern stream: undetectable.
  if (!payload_fires(trigger_nets, counter_bits)) return false;
  // The payload MUX rewires the victim's readers to v XOR fire; propagate
  // the masked deviation through the victim's fanout cone.
  const SlotId vix = plan_->slot_of(victim);
  std::uint64_t* fr = pass_.force(vix);
  const std::uint64_t* vr = cached_row(vix);
  for (std::size_t w = 0; w < words_; ++w) fr[w] = vr[w] ^ fire_[w];
  const bool any = propagate();
  pass_.clear();
  return any;
}

// ---------------------------------------------------------------- FlowEngine

SalvageResult FlowEngine::salvage(const SalvageOptions& opt) {
  SalvageResult result;
  result.power_before = (shared_ != nullptr && shared_->golden_totals)
                            ? *shared_->golden_totals
                            : pm_->analyze(*original_).totals;

  Netlist work = original_->compact();
  const SignalProb sp(work);
  std::vector<Candidate> cands = find_candidates(work, sp, opt.pth);
  result.candidates = cands.size();

  if (opt.order == SalvageOptions::Order::ByLeakage) {
    const CellLibrary& lib = pm_->library();
    std::stable_sort(cands.begin(), cands.end(),
                     [&](const Candidate& a, const Candidate& b) {
                       return lib.leakage_nw(work.node(a.node)) >
                              lib.leakage_nw(work.node(b.node));
                     });
  }

  // Campaign path: clone the shared per-circuit oracle instead of
  // re-simulating the whole suite. `work` is original_->compact(), and the
  // store built its seed on the same deterministic compact() of the same
  // netlist, so the seed's slot-major row cache carries over id-for-id; the
  // clone falls back to a full build when anything disagrees.
  SuiteOracle oracle(work, *suite_,
                     shared_ != nullptr ? shared_->salvage_oracle : nullptr);
  // TZ_CHECK boundary checks after every commit: NetlistChecker, and
  // PlanChecker on the oracle's patched plan (with the patched-vs-recompiled
  // equivalence diff). Captured once — the gate must not flip mid-flow.
  // Salvage adds no dummies, so the netlist is held to the strict lint: a
  // gate left unread means the cone sweep missed it, or the input broke
  // tie_to_constant's no-unread-gate precondition.
  const bool chk = check_enabled();
  const NetlistCheckOptions nopt{.allow_unread_gates = false};

  // Judge each candidate on the cached rows before touching the netlist: a
  // rejected tie costs one fanout-cone re-simulation and leaves no
  // structural trace at all.
  for (const Candidate& c : cands) {
    if (!work.is_alive(c.node)) continue;  // removed with an earlier cone
    const std::string name = work.node(c.node).name;
    const std::optional<TieResult> tie =
        oracle.try_tie(work, c.node, c.tie_value);
    if (!tie) {
      ++result.rejected;
      continue;
    }
    if (chk) verify_or_throw(work, oracle.plan(), "salvage commit", nopt);
    result.accepted.push_back(
        {name, c.tie_value, c.probability, tie->gates_removed});
    result.expendable_gates += tie->gates_removed;
  }

  work = work.compact();
  result.power_after = pm_->analyze(work).totals;
  result.modified = std::move(work);
  return result;
}

namespace {

/// Tombstone every node added since `size_before` whose output is unread,
/// repeating until the range is clear (reverse id order resolves most
/// chains in one pass). The shared rollback primitive for rejected HT
/// materialisations and rejected dummy-gate trials.
void remove_added_range(Netlist& nl, std::size_t size_before) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = static_cast<NodeId>(nl.raw_size());
         id-- > size_before;) {
      if (nl.is_alive(id) && nl.node(id).fanout.empty() &&
          !nl.is_output(id)) {
        nl.remove_node(id);
        changed = true;
      }
    }
  }
}

/// Roll back a materialised (possibly half-built) build_trojan: repoint the
/// victim's readers from the payload MUX back to the victim, break the
/// counter's q<->d cycles and tombstone every node the build created
/// (ids >= `size_before`). Safe to call after build_trojan threw mid-way —
/// every step degrades to a no-op on structure the build never reached.
void unbuild_trojan(Netlist& nl, NodeId victim,
                    std::span<const NodeId> readers, std::size_t size_before) {
  for (NodeId r : readers) {
    const auto& fi = nl.node(r).fanin;
    for (std::size_t slot = 0; slot < fi.size(); ++slot) {
      if (fi[slot] >= size_before) nl.relink_fanin(r, slot, victim);
    }
  }
  for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size();
       ++id) {
    if (nl.is_alive(id) && nl.node(id).type == GateType::Dff) {
      nl.relink_fanin(id, 0, victim);  // break q <-> d for removal ordering
    }
  }
  remove_added_range(nl, size_before);
}

bool caps_ok(const PowerReport& p, const PowerReport& threshold) {
  // The TrojanZero contract, enforced strictly: N'' may not exceed the
  // HT-free circuit on any observable — total, dynamic or leakage power, or
  // area. (These are precisely the features detect/'s defenders measure.)
  return p.total_uw() <= threshold.total_uw() &&
         p.dynamic_uw <= threshold.dynamic_uw &&
         p.leakage_uw <= threshold.leakage_uw && p.area_ge <= threshold.area_ge;
}

}  // namespace

std::size_t balance_with_dummies(Netlist& nl, PowerTracker& tracker,
                                 const PowerReport& threshold) {
  std::size_t added = 0;
  if (nl.inputs().empty()) return 0;
  struct MenuItem {
    GateType type;
    bool tie_fed;
  };
  // Two flavours, two deficits. Leakage is a component of total power, so
  // the deficits decompose: `dl` is leakage-shaped (fill with tie-fed
  // gates, which burn no dynamic power) and `dp - dl` is dynamic-shaped
  // (fill with PI-fed gates, which burn little leakage headroom per
  // microwatt). Picking the flavour by the dominant deficit avoids
  // saturating one cap while the other still has a visible gap — which is
  // what a two-feature detector like [12] would catch.
  static constexpr MenuItem kDynamicMenu[] = {
      {GateType::Buf, false}, {GateType::Xor, false}, {GateType::Not, false},
      {GateType::Xor, true},  {GateType::Nand, true}, {GateType::Not, true},
  };
  static constexpr MenuItem kLeakageMenu[] = {
      {GateType::Xor, true},  {GateType::Nand, true}, {GateType::Not, true},
      {GateType::Buf, false}, {GateType::Xor, false}, {GateType::Not, false},
  };
  std::vector<NodeId> fresh;
  // totals() re-sums every row; after the first iteration the committed
  // trial's totals are the same doubles, so they are carried over.
  PowerReport now = tracker.totals();
  while (added < kMaxDummyGates) {
    const double dp = threshold.total_uw() - now.total_uw();
    const double dl = threshold.leakage_uw - now.leakage_uw;
    const double da = threshold.area_ge - now.area_ge;
    const bool power_ok = dp <= kPowerSlackRel * threshold.total_uw();
    const bool leak_ok = dl <= kPowerSlackRel * threshold.leakage_uw;
    const bool area_ok = da <= kAreaSlackRel * threshold.area_ge;
    if (power_ok && leak_ok && area_ok) break;
    const bool want_dynamic =
        (dp - dl) > 0.5 * kPowerSlackRel * threshold.total_uw();
    const auto& menu = want_dynamic ? kDynamicMenu : kLeakageMenu;
    bool placed = false;
    for (const MenuItem& item : menu) {
      const std::size_t size_before = nl.raw_size();
      tracker.begin();
      const NodeId src = item.tie_fed
                             ? nl.const_node(false)
                             : nl.inputs()[added % nl.inputs().size()];
      add_dummy_gate(nl, src, item.type, "tz_dummy");
      fresh.clear();
      for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size();
           ++id) {
        fresh.push_back(id);  // the dummy, plus the tie cell if just created
      }
      tracker.resync(fresh, {{src}});
      const PowerReport trial = tracker.totals();
      if (caps_ok(trial, threshold)) {
        tracker.commit();
        now = trial;
        placed = true;
        break;
      }
      tracker.rollback();
      remove_added_range(nl, size_before);
    }
    if (!placed) break;  // every gate overshoots: differential already tiny
    ++added;
  }
  return added;
}

InsertionResult FlowEngine::insert(const SalvageResult& salvaged,
                                   const InsertionOptions& opt) {
  InsertionResult result;
  result.threshold = (shared_ != nullptr && shared_->golden_totals)
                         ? *shared_->golden_totals
                         : pm_->analyze(*original_).totals;

  std::vector<TrojanDesc> library =
      opt.library.empty() ? default_ht_library() : opt.library;

  // One work netlist for the whole phase: rejected candidates roll back
  // through the added-node range instead of starting from a fresh copy.
  Netlist work = salvaged.modified;
  const SignalProb sp(work);
  const std::vector<NodeId> locations =
      payload_locations(work, kMaxPayloadLocations);
  const std::vector<NodeId> rare = rare_net_list(work, sp, opt.rare_p1);
  SuiteOracle oracle(work, *suite_);
  PowerTracker tracker(work, *pm_);
  // TZ_CHECK boundary checks (see salvage). Rollbacks restore the judged
  // baseline, so the patched plan must still match it; the success boundary
  // checks the netlist only — the plan is legitimately stale for the
  // freshly materialised HT/dummy nodes (no oracle call follows them).
  const bool chk = check_enabled();
  const NetlistCheckOptions nopt{.allow_unread_gates = true};

  // Rare-net pool per victim (trigger_pool over the once-per-netlist rare
  // list). Computed once — the pool only depends on the victim, not on which
  // HT is being tried, and rejected materialisations restore the structure
  // the victim's fanout mask was built from.
  std::vector<std::vector<NodeId>> pools(locations.size());
  std::vector<char> pool_built(locations.size(), 0);
  const auto pool_for = [&](std::size_t v) -> const std::vector<NodeId>& {
    if (!pool_built[v]) {
      pools[v] = trigger_pool(work, rare, locations[v]);
      pool_built[v] = 1;
    }
    return pools[v];
  };

  std::vector<NodeId> fresh;
  // One victim trial of the walk (Algorithm 2's inner loop). Returns true
  // when the HT landed and `result` is complete.
  const auto try_victim = [&](std::size_t v, const TrojanDesc& desc) -> bool {
    const NodeId victim = locations[v];
    ++result.tried_locations;
    const std::vector<NodeId>& vpool = pool_for(v);
    if (vpool.size() < static_cast<std::size_t>(desc.trigger_width)) {
      ++result.fail_build;
      return false;
    }

    // Defender validation (Algorithm 2 lines 3-7), before materialising.
    if (oracle.ht_visible(
            std::span<const NodeId>(
                vpool.data(), static_cast<std::size_t>(desc.trigger_width)),
            desc.counter_bits, victim)) {
      ++result.fail_test;
      return false;
    }

    const std::size_t size_before = work.raw_size();
    const IdList readers = work.node(victim).fanout;
    InsertedHT ht;
    try {
      ht = build_trojan(work, desc, vpool, victim);
    } catch (const std::exception&) {
      ++result.fail_build;
      // A throw can land after gates were added (work is shared across
      // candidates, unlike the old fresh-copy-per-trial): sweep the
      // half-built structure back out.
      unbuild_trojan(work, victim, readers, size_before);
      if (chk) {
        verify_or_throw(work, oracle.plan(), "insertion rollback", nopt);
      }
      return false;  // structural rejection (loop, arity, ...)
    }
    // Power/area caps (lines 11-13) on tracker deltas instead of a
    // from-scratch analyze.
    tracker.begin();
    fresh.clear();
    for (NodeId id = static_cast<NodeId>(size_before); id < work.raw_size();
         ++id) {
      fresh.push_back(id);
    }
    std::vector<NodeId> cap_changed(
        vpool.begin(), vpool.begin() + desc.trigger_width);
    cap_changed.push_back(victim);
    tracker.resync(fresh, cap_changed);
    if (!caps_ok(tracker.totals(), result.threshold)) {
      ++result.fail_caps;
      tracker.rollback();
      unbuild_trojan(work, victim, readers, size_before);
      if (chk) {
        verify_or_throw(work, oracle.plan(), "insertion rollback", nopt);
      }
      return false;  // this HT at this location breaks a cap -> next location
    }
    tracker.commit();
    const std::size_t dummies =
        balance_with_dummies(work, tracker, result.threshold);
    if (chk) verify_or_throw(work, nullptr, "insertion commit", nopt);

    result.success = true;
    result.ht = ht;
    result.ht_desc = desc;
    result.ht_name = desc.name;
    result.victim_name = work.node(victim).name;
    result.dummy_gates = dummies;
    // One full analysis for the report keeps the published numbers
    // bit-identical with PowerModel::analyze of the final netlist.
    result.power = pm_->analyze(work).totals;
    result.infected = std::move(work);
    {
      // Analytic per-cycle trigger probability: product over trigger nets.
      double q = 1.0;
      int used = 0;
      for (NodeId r : vpool) {
        if (used++ >= desc.trigger_width) break;
        q *= sp.p1(r);
      }
      result.trigger_p1 = q;
    }
    return true;
  };

  for (const TrojanDesc& desc : library) {
    ++result.tried_hts;
    for (std::size_t v = 0; v < locations.size(); ++v) {
      if (try_victim(v, desc)) return result;
    }
  }
  return result;  // success = false
}

}  // namespace tz
