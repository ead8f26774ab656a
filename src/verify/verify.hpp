// tz::verify — static invariant checkers for Netlist and EvalPlan.
//
// Every flow commit goes through subtle in-place machinery (dead-cone
// sweeps, added-range rollback, SuiteOracle's resync_structure CSR rewrites
// and slot tombstoning) whose invariants were enforced by nothing but
// end-to-end bit-identity tests. The two checkers here are cheap O(V+E)
// sweeps that catch a corrupted netlist or plan at the mutation that caused
// it, not three engines later:
//
//  - NetlistChecker validates structural sanity of a Netlist: every fanin
//    refers to a live node, the name index matches the live nodes, PI/PO/DFF
//    lists are consistent with node roles, gate arity is legal for its
//    GateType, the combinational logic is acyclic (topo sweep, DFF edges
//    cut), fanin/fanout sets are mutually consistent, and no live gate is
//    left orphaned outside a declared sweep.
//
//  - PlanChecker validates a compiled EvalPlan against its source netlist:
//    live-slot <-> live-node bijection (tombstones excluded), opcode/arity
//    agreement with the gate, CSR fanin/fanout bounds and mutual
//    consistency, slot order respecting topological ranks, stripe/block
//    layout bookkeeping, and a structural-equivalence diff proving a patched
//    plan (after SuiteOracle::resync_structure) is isomorphic to a fresh
//    recompile.
//
// Both return a typed list of violations (check id, node/slot, message)
// rather than asserting, so tests can assert emptiness and tools can print
// reports. FlowEngine runs them after each commit and each rollback under
// the TZ_CHECK gate (default on in Debug builds, off in Release hot paths);
// tools/tz_check lints any .bench file or generator spec from the CLI.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/eval_plan.hpp"

namespace tz {

class NodeValues;

/// Every named invariant the checkers enforce. The kebab-case string form
/// (to_string) is the stable id printed in reports and asserted by the
/// corrupt-input tests — one test per id.
enum class CheckId : std::uint8_t {
  // NetlistChecker
  NetDanglingFanin,   ///< A live node's fanin is out of range or dead.
  NetDuplicateName,   ///< Name index out of sync: duplicate / missing / stale.
  NetBadArity,        ///< Fanin count illegal for the node's GateType.
  NetInputList,       ///< inputs() inconsistent with live Input nodes.
  NetOutputList,      ///< outputs() entry dead, duplicated, or invalid.
  NetDffList,         ///< dffs() inconsistent with live Dff nodes.
  NetFanoutSync,      ///< A fanin edge is missing from the source's fanout.
  NetPhantomFanout,   ///< A fanout entry whose target does not read the node.
  NetCycle,           ///< Combinational cycle (DFF edges cut).
  NetOrphan,          ///< Live combinational gate with no readers, not a PO.
  NetLiveCount,       ///< live_count() drifted from the actual live nodes.
  // PlanChecker
  PlanSlotBijection,  ///< Live node <-> live slot mapping broken (tombstones).
  PlanOpcode,         ///< Slot opcode/arity disagrees with the node's gate.
  PlanCsrBounds,      ///< CSR offsets non-monotonic or slot ids out of range.
  PlanCsrStale,       ///< Fanin CSR entry disagrees with the netlist fanin.
  PlanFanoutSync,     ///< Fanin/fanout CSR mutual consistency broken.
  PlanTopoOrder,      ///< A fanin slot does not precede its reader.
  PlanIoLists,        ///< input/dff/output slot lists out of sync.
  PlanBlockLayout,    ///< block_words()/stripe bookkeeping contract broken.
  PlanEquivalence,    ///< Patched plan not isomorphic to a fresh recompile.
  // FaultPackChecker
  PackSiteSlot,       ///< Injection site/mask disagrees with the fault lane.
  PackLaneBleed,      ///< Forcing masks overlap or touch non-live lanes.
  PackLaneBijection,  ///< Live lanes <-> undropped faults not a bijection.
  // CampaignChecker
  CampPartition,      ///< Job->shard assignment is not a partition.
  CampShardRows,      ///< A shard checkpoint file is not append-consistent.
  CampMergeDuplicate, ///< Merged artifact carries a job id more than once.
  CampMergeMissing,   ///< Merged artifact is missing an expanded job id.
  // SatChecker
  SatArenaBounds,     ///< Clause ref/header out of arena bounds or relocated.
  SatWatchBijection,  ///< Long clause <-> watcher lists not a 2:1 bijection.
  SatBinaryWatch,     ///< Binary watch entry inconsistent with its clause.
};

/// Stable kebab-case id, e.g. "net-dangling-fanin".
std::string_view to_string(CheckId id);

/// One invariant violation. `node`/`slot` are kNoNode/kNoSlot when the
/// violation is not tied to a specific node or slot.
struct Violation {
  CheckId id;
  NodeId node = kNoNode;
  SlotId slot = kNoSlot;
  std::string message;
};

/// Checker result: a (possibly empty) violation list plus formatting.
struct VerifyReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::size_t count(CheckId id) const;
  bool has(CheckId id) const { return count(id) > 0; }

  void add(CheckId id, std::string message, NodeId node = kNoNode,
           SlotId slot = kNoSlot);
  void merge(VerifyReport other);

  /// Multi-line human-readable report ("<check-id> [node/slot] message").
  std::string format() const;

  /// Structured JSON report: {"ok": bool, "violations": [{"check": "<id>",
  /// "node": n|null, "slot": s|null, "message": "..."}]}. Check ids are the
  /// stable kebab-case strings, so CI and external tooling can diff findings
  /// across runs (tools/tz_check --json).
  std::string to_json() const;
};

struct NetlistCheckOptions {
  /// Accept live combinational gates whose output is unread (skip NetOrphan).
  /// Insertion legitimately holds such gates (dummy balancing gates are
  /// unread by design), so its boundary checks allow them; salvage adds
  /// none and stays strict, like the tz_check lint by default.
  bool allow_unread_gates = false;
};

/// Structural sanity checker for a Netlist. O(V+E); never mutates, never
/// throws on corrupt input — every finding lands in the report.
class NetlistChecker {
 public:
  static VerifyReport run(const Netlist& nl,
                          const NetlistCheckOptions& opt = {});
};

struct PlanCheckOptions {
  /// Also diff against a freshly recompiled plan (adds one O(V+E) compile).
  bool equivalence = true;
};

/// Validates a compiled (possibly incrementally patched) EvalPlan against
/// its source netlist. Assumes nothing about the plan being well-formed:
/// CSR bounds are validated before any edge is dereferenced.
class PlanChecker {
 public:
  static VerifyReport run(const EvalPlan& plan, const Netlist& nl,
                          const PlanCheckOptions& opt = {});
};

/// A snapshot of one packed fault-simulation batch
/// (atpg/fault_sim_packed.hpp): up to 64 fault machines share one word, lane
/// i of the batch simulating the i-th live (undropped) fault. The packed
/// engine builds this view right before sweeping a batch; FaultPackChecker
/// validates it under TZ_CHECK. Spans alias the engine's batch scratch and
/// are only valid while the batch is in flight.
struct FaultPackBatch {
  const EvalPlan* plan = nullptr;
  std::uint64_t lanes_mask = 0;  ///< live lanes (dense low bits)
  std::uint64_t sa1_lanes = 0;   ///< lanes whose fault is stuck-at-1
  std::span<const NodeId> lane_node;        ///< per lane: fault site node
  std::span<const std::size_t> lane_fault;  ///< per lane: caller fault index
  std::span<const SlotId> site_slot;        ///< ascending unique site slots
  std::span<const std::uint64_t> site_mask;      ///< per site: forced lanes
  std::span<const std::uint64_t> site_force_one; ///< per site: stuck-at-1 lanes
  /// Caller detection flags at batch-build time (empty when the caller does
  /// not drop faults); indexed by lane_fault entries.
  std::span<const char> dropped;
};

/// Validates a packed fault-simulation batch against its plan: every lane's
/// site slot and stuck value is represented by exactly one mask bit at the
/// right slot (PackSiteSlot), forcing masks are pairwise disjoint and
/// confined to live lanes so fault machines cannot bleed into each other or
/// into the good-machine padding lanes (PackLaneBleed), and the live lanes
/// are a bijection with the undropped faults handed in by the caller
/// (PackLaneBijection).
class FaultPackChecker {
 public:
  static VerifyReport run(const FaultPackBatch& batch);
};

/// A structural snapshot of one campaign's scheduling state
/// (campaign/driver.hpp): the canonical job expansion, the deterministic
/// job->shard assignment, what each shard's JSONL checkpoint file actually
/// contains, and (optionally) the merged artifact's row ids. Plain strings
/// and indices only — the checker stays independent of the campaign types,
/// mirroring FaultPackBatch. Spans alias the driver's buffers and are valid
/// only for the duration of the run() call.
struct CampaignView {
  std::size_t num_shards = 0;
  /// Canonical job ids, grid-expansion order (the merge order).
  std::span<const std::string> job_ids;
  /// Parallel to job_ids: the shard each job was assigned to.
  std::span<const std::size_t> job_shard;
  /// Per shard: row ids in checkpoint-file order. An empty string marks a
  /// row that failed to parse (the driver's torn-tail sentinel).
  std::span<const std::vector<std::string>> shard_rows;
  /// Merged artifact row ids in artifact order; checked only when
  /// check_merged is set (a running campaign has no merged artifact yet).
  std::span<const std::string> merged_ids;
  bool check_merged = false;
};

/// Validates campaign scheduling invariants: the job->shard assignment is a
/// partition of the expanded grid (CampPartition), every shard checkpoint
/// row parses, belongs to that shard and appears exactly once across all
/// shards (CampShardRows), and the merged artifact carries every expanded
/// job id exactly once (CampMergeDuplicate / CampMergeMissing).
class CampaignChecker {
 public:
  static VerifyReport run(const CampaignView& view);
};

namespace sat {
class Solver;
}  // namespace sat

/// Validates the arena SAT solver's clause storage against its watch
/// structures (sat/solver.hpp): every registered clause ref points at an
/// in-bounds, non-relocated arena header whose literals name real variables
/// (SatArenaBounds); every long clause is watched exactly once on each of
/// its first two literals and no watcher points at an unregistered clause
/// (SatWatchBijection); and every binary clause appears in exactly the two
/// binary watch lists that imply its other literal (SatBinaryWatch). The
/// incremental miter runs this at check() boundaries under TZ_CHECK.
class SatChecker {
 public:
  static VerifyReport run(const sat::Solver& solver);
};

/// Validates a NodeValues matrix's layout bookkeeping against its plan (row
/// count, stripe width == block_words) — the value-matrix leg of the
/// PlanBlockLayout contract.
VerifyReport check_values_layout(const NodeValues& vals);

/// Thrown by the flow-boundary checks when a checker finds violations.
/// what() carries the formatted report; callers that print diagnostics
/// (run_trojanzero_flow, the examples) write report().format() to stderr
/// before aborting, so a corrupted structure is named at the mutation that
/// caused it instead of surfacing as a bit-mismatch deep inside an engine.
class VerifyError : public std::runtime_error {
 public:
  VerifyError(std::string phase, VerifyReport report);

  const std::string& phase() const { return phase_; }
  const VerifyReport& report() const { return report_; }

 private:
  std::string phase_;
  VerifyReport report_;
};

/// The TZ_CHECK gate: explicit TZ_CHECK=1/0 wins; unset defaults to on in
/// Debug builds (!NDEBUG) and off in Release hot paths.
bool check_enabled();
/// Test/bench hook: 0 = force off, 1 = force on, -1 = back to the env var.
void set_check_enabled(int mode);

/// Run NetlistChecker (and PlanChecker when `plan` is non-null) and throw
/// VerifyError tagged with `phase` on any violation. The FlowEngine boundary
/// hook; callers gate on check_enabled().
void verify_or_throw(const Netlist& nl, const EvalPlan* plan,
                     std::string_view phase,
                     const NetlistCheckOptions& nopt = {},
                     const PlanCheckOptions& popt = {});

}  // namespace tz
