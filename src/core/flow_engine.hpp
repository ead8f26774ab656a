// Incremental engine behind Algorithm 1 (salvage) and Algorithm 2 (insertion).
//
// The naive flow re-simulates the defender's entire suite and re-runs a full
// power analysis for every candidate edit — O(candidates × netlist). The
// FlowEngine replaces both hot paths with incremental machinery:
//
//  - SuiteOracle caches the good-value rows of the current work netlist for
//    every defender test set in one fused slot-major layout (all sets
//    concatenated per row, invalid tail lanes masked), and re-simulates only
//    the structural fanout cone of an edit in a single multi-set pass
//    (sim/cone_pass.hpp, the event-driven pass the event fault-simulation
//    engine runs too: a tie to v is the stem stuck-at-v fault), comparing
//    just the cone-reachable outputs against the cached golden responses. A
//    tie candidate costs O(cone); an HT candidate is judged *before* it is
//    materialised by replaying its trigger/counter against the cached rows
//    of the rare nets it would tap.
//
//    Both algorithms are greedy in-order walks: every accepted tie or HT
//    changes the netlist the next candidate is judged on, so each runs one
//    sequential scan. Parallelism lives at the job level (campaign/driver).
//
//  - PowerTracker (tech/power_tracker.hpp) keeps per-node power/area rows
//    and applies add-gate / remove-gate / splice deltas through SignalProb's
//    gate_p1 and PowerModel::node_power, so the Algorithm 2 cap checks and
//    the dummy-balancing loop stop re-running analyze→SignalProb from
//    scratch. The HT counter's DFFs read their reset value, P1 = 0: the
//    counter is dormant, hosts are combinational and alpha = 2·P1·P0
//    assumes the temporal independence a register lacks (Najm, IEEE TVLSI
//    1994). Each counter cell's per-cycle P1 and toggle rate are at most
//    the row's pft, 1 - (1 - q)^L.
//
//  - A rejected tie is never applied (try_tie judges it first, and the
//    same cone pass commits an accepted one); a materialised HT or dummy
//    that fails the caps rolls back through the added-node range instead
//    of a netlist snapshot.
//
// Results are semantically identical to the reference implementations: the
// same candidates are accepted, the same HT/victim/dummy choices are made
// and the reported power totals match a from-scratch analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "atpg/test_set.hpp"
#include "core/insertion.hpp"
#include "core/salvage.hpp"
#include "netlist/netlist.hpp"
#include "netlist/rewrite.hpp"
#include "sim/eval_plan.hpp"
#include "sim/cone_pass.hpp"
#include "tech/power_model.hpp"
#include "tech/power_tracker.hpp"

namespace tz {

/// Cached-row defender oracle over one combinational work netlist. The
/// netlist must stay owned by the caller; a tie is judged and, when
/// invisible, applied through try_tie so the rows and the plan follow the
/// edit. Construction throws std::invalid_argument on a netlist with DFFs or
/// a test set whose width does not match its inputs/outputs. The only DFFs
/// in the flow are the inserted HT's counter, which ht_visible replays.
///
/// The oracle indexes sim/eval_plan.hpp slots: cached rows are slot-major
/// and the fused ConePass evaluates through the plan's arity-specialized
/// kernels. try_tie() patches the plan incrementally for each committed tie
/// (append the tie cell as a source slot, rewrite the readers' fanin CSR in
/// place, tombstone the swept cone), so per-candidate judging never
/// recompiles the plan.
///
/// An oracle is private to one job and not thread-safe; a shared seed is
/// only read, through the const seeded constructor.
class SuiteOracle {
 public:
  SuiteOracle(const Netlist& nl, const DefenderSuite& suite);

  /// Seeded construction for the campaign artifact layer: when `seed` was
  /// built for a structurally identical netlist (same raw node ids, same
  /// recorded outputs, same suite shape), the cached rows,
  /// golden responses and compiled plan are cloned from it instead of
  /// re-simulating the whole suite — the copy-on-write handoff from a shared
  /// per-circuit artifact into this job's mutable flow. The clone deep-copies
  /// the plan (try_tie patches it in place) and all row caches, so
  /// the seed stays const and may be shared by any number of concurrent
  /// clones. Falls back to the full build when the seed does not match or is
  /// null.
  SuiteOracle(const Netlist& nl, const DefenderSuite& suite,
              const SuiteOracle* seed);

  // The cone pass is neither copyable nor movable.
  SuiteOracle(const SuiteOracle&) = delete;
  SuiteOracle& operator=(const SuiteOracle&) = delete;

  /// Always false: construction rejects hosts with DFFs. Kept while tzbench
  /// calls it.
  bool sequential() const { return false; }

  /// Would tying `target` to constant `value` change any defender response?
  /// Judged BEFORE the structural rewrite by forcing the constant at the
  /// target and propagating through its fanout cone. One fused pass covers
  /// every test set. Judges only; try_tie judges and commits.
  bool tie_visible(NodeId target, bool value);

  /// Would inserting this HT be caught by the suite? Judged before the HT is
  /// materialised: the trigger AND and counter are replayed against the
  /// cached rows of `trigger_nets`, and when the payload could fire during a
  /// pattern stream, the masked deviation is propagated through the victim's
  /// fanout cone. Exactly equivalent to streaming the infected netlist
  /// through functional_test.
  bool ht_visible(std::span<const NodeId> trigger_nets, int counter_bits,
                  NodeId victim);

  /// Judge a tie as tie_visible does, in the same one cone pass commit it
  /// when it is invisible: fold the pass's rows into the cache, apply
  /// tie_to_constant to `work` and patch the plan for the rewired readers
  /// and the swept cone. A visible tie returns nullopt and leaves the
  /// netlist, rows and plan as they were. Throws std::invalid_argument,
  /// before touching any state, unless `work` is the oracle's netlist.
  std::optional<TieResult> try_tie(Netlist& work, NodeId target, bool value);

  /// The compiled plan the oracle judges through, patched in place by
  /// try_tie(). FlowEngine hands it to PlanChecker at every commit
  /// boundary under TZ_CHECK.
  const EvalPlan* plan() const { return plan_.get(); }

 private:
  /// Full construction: simulate every defender set on `nl_` and cache the
  /// fused rows (the expensive path the seeded constructor avoids).
  void build_caches();
  /// True when `seed`'s cached state is valid for nl_/suite_ as-is.
  bool seed_compatible(const SuiteOracle& seed) const;
  /// Deep-copy the seed's cached state (plan cloned, rows copied).
  void clone_from(const SuiteOracle& seed);

  /// One defender test set's lane range inside the fused rows.
  struct SetSegment {
    std::size_t offset = 0;    ///< First fused word of this set.
    std::size_t words = 0;     ///< Packed words in this set.
    std::size_t patterns = 0;  ///< Patterns (bits) in this set.
  };

  /// Append every node added since the last call as a source slot and
  /// grow the rows and the cone pass with the plan.
  void grow();
  /// Cached rows are keyed by plan slot.
  const std::uint64_t* cached_row(SlotId s) const {
    return rows_.data() + static_cast<std::size_t>(s) * words_;
  }
  /// Run the cone pass from the forced rows against the cached rows; returns
  /// true when a primary-output row deviates from golden on any valid lane.
  /// Leaves the pass's marks set for the caller.
  bool propagate();
  /// Seed a forced-constant row at `target`. Returns false when the cached
  /// row already equals the constant on every valid lane (nothing to do).
  bool seed_tie(NodeId target, bool value);
  /// Build fire_ (payload-enable per pattern lane) from the trigger AND over
  /// `trigger_nets` plus the per-set counter replay. Returns true when the
  /// payload fires at least once somewhere in the suite.
  bool payload_fires(std::span<const NodeId> trigger_nets, int counter_bits);

  const Netlist* nl_;
  const DefenderSuite* suite_;
  std::shared_ptr<EvalPlan> plan_;
  std::size_t node_cap_ = 0;  ///< raw node ids covered by grow()
  std::size_t words_ = 0;     ///< fused row width: sum of set widths
  std::vector<SetSegment> segs_;
  std::vector<std::uint64_t> valid_;   ///< per fused word: valid-lane mask
  std::vector<std::uint64_t> rows_;    ///< row-index-major fused cache
  std::vector<std::uint64_t> golden_;  ///< output-major fused expected rows
  std::vector<NodeId> recorded_po_;    ///< outputs() as of the cached state

  // Per-call scratch of the judging API: the cone pass over the cached rows
  // and the trigger/fire replay rows.
  ConePass pass_;
  std::vector<std::uint64_t> trig_, fire_;
};

/// Const references into a shared per-circuit artifact bundle
/// (campaign/artifacts.hpp) that let a FlowEngine skip rebuilding work that
/// is identical for every job on the same circuit. Everything here is
/// optional: a null member means "compute it yourself", and the engine
/// treats every member as immutable — jobs clone what they mutate (the
/// oracle seed is deep-copied by SuiteOracle's seeded constructor).
struct FlowSharedInputs {
  /// Oracle built on the circuit's compacted netlist + this job's suite;
  /// seeds the salvage-phase SuiteOracle clone.
  const SuiteOracle* salvage_oracle = nullptr;
  /// Golden power/area totals of N (the salvage baseline and Algorithm 2
  /// caps), from the store's one-time analysis.
  const PowerReport* golden_totals = nullptr;
};

/// One engine per (original netlist, defender suite, power model) triple;
/// runs both algorithms incrementally.
class FlowEngine {
 public:
  FlowEngine(const Netlist& original, const DefenderSuite& suite,
             const PowerModel& pm)
      : original_(&original), suite_(&suite), pm_(&pm) {}

  /// Attach shared artifacts (campaign path). `shared` must outlive the
  /// engine; pass nullptr to detach. Results are bit-identical with and
  /// without sharing — the A/B test in tests/campaign_test.cpp holds the
  /// engine to that.
  void set_shared(const FlowSharedInputs* shared) { shared_ = shared; }

  /// Algorithm 1 on a SuiteOracle: each tie is judged by an O(cone)
  /// re-simulation before it is applied, and only invisible ties are
  /// committed. One in-order walk: an accepted tie changes the netlist every
  /// later candidate is judged on. Throws std::invalid_argument, from the
  /// oracle, on a host with DFFs or a suite of the wrong width.
  SalvageResult salvage(const SalvageOptions& opt = {});

  /// Algorithm 2 on the oracle + PowerTracker: the suite judges each HT
  /// before it is materialised; one that breaks a cap rolls back through
  /// the added-node range. HTs and victims are tried in order and the first
  /// placement that passes the suite and the caps wins. Throws like
  /// salvage().
  InsertionResult insert(const SalvageResult& salvaged,
                         const InsertionOptions& opt = {});

 private:
  const Netlist* original_;
  const DefenderSuite* suite_;
  const PowerModel* pm_;
  const FlowSharedInputs* shared_ = nullptr;
};

/// Greedy dummy-gate balancing on tracker deltas (paper Sec. IV-4). Adds
/// unconnected-output gates until every remaining differential sits inside
/// the slack band (kPowerSlackRel / kAreaSlackRel, at most kMaxDummyGates
/// gates), never letting any of total/dynamic/leakage power or area exceed
/// `threshold`. The tracker must be synced to `nl` and not be inside a
/// transaction. Returns the number of gates added.
std::size_t balance_with_dummies(Netlist& nl, PowerTracker& tracker,
                                 const PowerReport& threshold);

}  // namespace tz
