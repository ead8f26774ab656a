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
//    (event-driven over a topological-rank worklist, through the compiled
//    plan's kernels), comparing just the cone-reachable outputs
//    against the cached golden responses. A tie candidate costs O(cone); an
//    HT candidate is judged *before* it is materialised by replaying its
//    trigger/counter against the cached rows of the rare nets it would tap.
//
//    The oracle is split into an immutable shared core (cached rows, golden
//    responses, validity masks, topological ranks) and a per-thread
//    ConeScratch (worklist, forced-value rows, visited marks): the const
//    judging API is safe to call concurrently from many threads as long as
//    each call gets its own scratch and nothing mutates the netlist or the
//    core. Both candidate scans exploit this — tie and HT visibility are
//    judged before any mutation, so FlowEngine screens candidates in
//    parallel on a util/thread_pool.hpp pool and reduces the verdicts in
//    canonical candidate order, which keeps the flow bit-identical to the
//    sequential scan at every thread count.
//
//  - PowerTracker (tech/power_tracker.hpp) keeps per-node power/area rows
//    and applies add-gate / remove-gate / splice deltas, so the Algorithm 2
//    cap checks and the dummy-balancing loop stop re-running
//    analyze→SignalProb from scratch.
//
//  - Rejected edits roll back through undo logs (TieUndo for Algorithm 1,
//    the added-node range for Algorithm 2) instead of netlist snapshots.
//
// Results are semantically identical to the reference implementations: the
// same candidates are accepted, the same HT/victim/dummy choices are made
// and the reported power totals match a from-scratch analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

#include "atpg/test_set.hpp"
#include "core/insertion.hpp"
#include "core/salvage.hpp"
#include "netlist/netlist.hpp"
#include "netlist/rewrite.hpp"
#include "sim/eval_plan.hpp"
#include "sim/rank_worklist.hpp"
#include "tech/power_model.hpp"
#include "tech/power_tracker.hpp"
#include "util/thread_safety.hpp"

namespace tz {

class SuiteOracle;

/// Per-thread mutable state for SuiteOracle's const judging calls: the rank
/// worklist, forced/re-evaluated scratch rows, touched marks and the
/// trigger/fire replay rows. Construct one per worker from the oracle it
/// will be used with; the oracle grows it on demand at each call.
class ConeScratch {
 public:
  explicit ConeScratch(const SuiteOracle& core);

 private:
  friend class SuiteOracle;
  RankWorklist worklist_;
  std::vector<std::uint64_t> rows_;
  std::vector<char> touched_;
  std::vector<SlotId> visited_;
  std::vector<std::uint64_t> trig_, fire_;
};

/// Cached-row defender oracle over one work netlist. The netlist must stay
/// owned by the caller; structural edits are reported through the tie/commit
/// API. Only combinational netlists are cached — construction on a netlist
/// with DFFs sets sequential() and the caller falls back to functional_test.
///
/// The oracle indexes sim/eval_plan.hpp slots: cached rows are slot-major,
/// slot ids double as topological ranks and the fused cone pass evaluates
/// through the plan's arity-specialized kernels. resync_structure() patches
/// the plan incrementally for committed ties and rolled-back HT/dummy ranges
/// (append the tie cell as a source slot, rewrite the readers' fanin CSR in
/// place, tombstone the swept cone), so per-candidate judging never
/// recompiles the plan.
///
/// Thread safety: the const overloads of tie_visible / ht_visible are pure
/// reads of the shared core plus writes into the caller-provided scratch, so
/// any number of threads may judge candidates concurrently, each with its
/// own ConeScratch, provided (a) the netlist is not mutated meanwhile and
/// (b) resync_structure() ran after the last structural edit. commit_tie and
/// resync_structure mutate the core and must be called single-threaded.
class SuiteOracle {
 public:
  SuiteOracle(const Netlist& nl, const DefenderSuite& suite);

  /// Seeded construction for the campaign artifact layer: when `seed` was
  /// built for a structurally identical netlist (same raw node ids, same
  /// recorded outputs, same suite shape), the cached rows,
  /// golden responses and compiled plan are cloned from it instead of
  /// re-simulating the whole suite — the copy-on-write handoff from a shared
  /// per-circuit artifact into this job's mutable flow. The clone deep-copies
  /// the plan (resync_structure patches it in place) and all row caches, so
  /// the seed stays const and may be shared by any number of concurrent
  /// clones. Falls back to the full build when the seed does not match or is
  /// null; seeded() reports which path ran.
  SuiteOracle(const Netlist& nl, const DefenderSuite& suite,
              const SuiteOracle* seed);

  // The built-in scratch references this instance's rank vector; a copy or
  // move would leave it pointing into the source object.
  SuiteOracle(const SuiteOracle&) = delete;
  SuiteOracle& operator=(const SuiteOracle&) = delete;

  /// True when this oracle was cloned from a compatible seed.
  bool seeded() const { return seeded_; }

  bool sequential() const { return sequential_; }

  /// Would tying `target` to constant `value` change any defender response?
  /// Judged BEFORE the structural rewrite by forcing the constant at the
  /// target and propagating through its fanout cone — a rejected candidate
  /// never touches the netlist at all. One fused pass covers every test set.
  bool tie_visible(NodeId target, bool value, ConeScratch& cs) const;

  /// Would inserting this HT be caught by the suite? Judged before the HT is
  /// materialised: the trigger AND and counter are replayed against the
  /// cached rows of `trigger_nets`, and when the payload could fire during a
  /// pattern stream, the masked deviation is propagated through the victim's
  /// fanout cone. Exactly equivalent to streaming the infected netlist
  /// through functional_test.
  bool ht_visible(std::span<const NodeId> trigger_nets, int counter_bits,
                  NodeId victim, ConeScratch& cs) const;

  /// Single-threaded conveniences on a built-in scratch; these also refresh
  /// the core's node capacity first (the const overloads do not).
  bool tie_visible(NodeId target, bool value);
  bool ht_visible(std::span<const NodeId> trigger_nets, int counter_bits,
                  NodeId victim);

  /// Fold an accepted (invisible) tie into the cached rows. Call before the
  /// structural tie_to_constant, then resync_structure() after it.
  void commit_tie(NodeId target, bool value);

  /// Refresh structural bookkeeping (node capacity, output drivers) after
  /// the caller mutated the netlist with a committed edit. Must also run
  /// before a parallel screening phase that follows any structural edit.
  void resync_structure();

  /// The compiled plan the oracle judges through, or nullptr when the oracle
  /// is sequential(). FlowEngine hands it to PlanChecker at every commit
  /// boundary under TZ_CHECK.
  const EvalPlan* plan() const { return plan_.get(); }

 private:
  friend class ConeScratch;

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

  void grow();
  void ensure_scratch(ConeScratch& cs) const;
  /// Every internal row/mark array is keyed by plan slot.
  const std::uint64_t* cached_row(SlotId s) const {
    return rows_.data() + static_cast<std::size_t>(s) * words_;
  }
  std::uint64_t* scratch_row(ConeScratch& cs, SlotId s) const {
    return cs.rows_.data() + static_cast<std::size_t>(s) * words_;
  }
  /// Schedule the live combinational readers of slot `s` (plan fanout CSR).
  void schedule_readers(SlotId s, ConeScratch& cs) const;
  /// Event-driven fused-cone evaluation from the pre-seeded worklist/forced
  /// rows; returns true when a primary-output row deviates from golden on
  /// any valid lane. Leaves cs touched/visited marks set for the caller.
  bool propagate(ConeScratch& cs) const;
  void clear_marks(ConeScratch& cs) const;
  /// Seed a forced-constant row at `target`. Returns false when the cached
  /// row already equals the constant on every valid lane (nothing to do).
  bool seed_tie(NodeId target, bool value, ConeScratch& cs) const;
  /// Build cs.fire_ (payload-enable per pattern lane) from the trigger AND
  /// over `trigger_nets` plus the per-set counter replay. Returns true when
  /// the payload fires at least once somewhere in the suite.
  bool payload_fires(std::span<const NodeId> trigger_nets, int counter_bits,
                     ConeScratch& cs) const;

  const Netlist* nl_;
  const DefenderSuite* suite_;
  bool sequential_ = false;
  bool seeded_ = false;
  std::shared_ptr<EvalPlan> plan_;  ///< nullptr only when sequential_
  std::size_t cap_ = 0;       ///< slot capacity of rows/scratch
  std::size_t node_cap_ = 0;  ///< raw node ids covered by grow()
  std::size_t words_ = 0;     ///< fused row width: sum of set widths
  std::vector<SetSegment> segs_;
  std::vector<std::uint64_t> valid_;   ///< per fused word: valid-lane mask
  std::vector<std::uint64_t> rows_;    ///< row-index-major fused cache
  std::vector<std::uint64_t> golden_;  ///< output-major fused expected rows
  std::vector<NodeId> recorded_po_;    ///< outputs() as of the cached state
  /// Serialises the exclusive structure phase (commit_tie/resync_structure)
  /// against itself. The const judging API deliberately takes no lock — its
  /// safety contract is phase separation (no concurrent structural edits),
  /// which the annotation documents and Clang's analysis enforces for the
  /// guarded member.
  Mutex structure_mu_;
  /// Committed ties awaiting plan patch.
  std::vector<NodeId> pending_ties_ TZ_GUARDED_BY(structure_mu_);
  std::vector<std::uint32_t> rank_;    ///< identity over slots
  ConeScratch self_{*this};  ///< scratch for the single-threaded API
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

  /// Algorithm 1 on a SuiteOracle: tie, O(cone) recheck, undo-log revert.
  /// With opt.threads resolving to > 1, upcoming candidates are screened
  /// speculatively in parallel and the verdicts consumed in canonical order
  /// up to the first accept (which invalidates the rest of the batch) —
  /// bit-identical to the sequential scan.
  SalvageResult salvage(const SalvageOptions& opt = {});

  /// Algorithm 2 on the oracle + PowerTracker: candidates are rejected
  /// before materialisation where possible; materialised rejects roll back
  /// through the added-node range. With opt.threads resolving to > 1, the
  /// per-victim trigger pools and suite verdicts for each HT descriptor are
  /// computed in parallel, then the victims are walked in canonical order —
  /// bit-identical to the sequential scan.
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
/// the slack band, never letting any of total/dynamic/leakage power or area
/// exceed `threshold`. The tracker must be synced to `nl` and not be inside
/// a transaction. Returns the number of gates added.
std::size_t balance_with_dummies(Netlist& nl, PowerTracker& tracker,
                                 const PowerReport& threshold,
                                 const InsertionOptions& opt);

}  // namespace tz
