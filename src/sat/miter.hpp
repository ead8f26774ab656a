// Incremental cone-sliced equivalence miter.
//
// One persistent arena Solver for the whole check; each primary-output pair
// becomes one solve-under-assumption of a fresh difference literal:
//
//   d_o <-> (out_a[o] XOR out_b[o]);   solve({d_o})
//
// UNSAT proves the pair equal and ~d_o is committed as a unit, so every
// learnt clause (and the proved equality itself) is reused by later outputs.
// Outputs are visited in topological order of their driving cones, which
// keeps the reused clauses relevant.
//
// Encoding is lazy cone-of-influence: a node is Tseitin-encoded only when an
// output cone that needs it is checked. PIs and position-paired DFFs share
// one variable across both netlists; extra DFFs (an inserted HT's counter)
// are pinned to reset. With structural matching on, netlist-b nodes whose
// name/type/fanins agree with an already-encoded netlist-a node reuse the
// a-side variable outright (no clauses), and near-misses at a rewrite
// frontier are merged by bounded SAT-sweeping queries plus a biconditional,
// so salvaged 100k-gate twins collapse to the rewritten region instead of
// re-proving 100k shared gates.
//
// A BitSimulator pre-pass runs random patterns through both netlists first:
// a differing output short-circuits to a replayable witness without any SAT
// call, and an agreeing run seeds the solver's decision phases so search
// starts near a consistent trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/equivalence.hpp"
#include "sat/solver.hpp"

namespace tz::sat {

struct MiterOptions {
  /// Total conflict budget across all per-output queries; < 0 = unlimited.
  std::int64_t conflict_limit = -1;
  /// BitSimulator random-pattern pre-pass (`tz_sat fuzz` runs both
  /// settings).
  bool prepass = true;
  /// Pre-pass width in 64-pattern words.
  int prepass_words = 4;
  /// Share variables between structurally matching nodes of the two
  /// netlists, and SAT-sweep near-misses. Off = every node of both netlists
  /// is encoded independently (the honest A/B-bench configuration: a
  /// self-miter would otherwise be free).
  bool structural_match = true;
  /// Per-query conflict cap for sweeping merges (separate from
  /// conflict_limit; sweeping is an optimization, not part of the verdict).
  std::int64_t sweep_conflict_limit = 1000;
  /// When non-empty: dump the final CNF (problem clauses + committed units)
  /// in DIMACS to this path when check() finishes, so a failing instance can
  /// be exported and minimized offline (`tz_sat dump` sets it).
  std::string dimacs_path;
};

struct MiterStats {
  std::size_t outputs_total = 0;
  std::size_t outputs_shared = 0;  ///< proved equal by sharing one variable
  std::size_t outputs_proved = 0;  ///< proved equal by an UNSAT query
  std::size_t sat_calls = 0;
  std::size_t shared_nodes = 0;    ///< b-nodes mapped onto a-side variables
  std::size_t sweep_merges = 0;    ///< near-miss pairs merged by SAT queries
  bool prepass_hit = false;        ///< pre-pass found the witness by itself
};

class IncrementalMiter {
 public:
  /// Throws std::invalid_argument on PI/PO count mismatch.
  IncrementalMiter(const Netlist& a, const Netlist& b, MiterOptions opts = {});

  /// Run the full check. Callable once per miter instance.
  EquivalenceResult check();

  const MiterStats& stats() const { return stats_; }
  Solver& solver() { return solver_; }

 private:
  Var ensure_var(bool side_b, NodeId root);
  Var pi_var(std::size_t i);
  Var dff_var(std::size_t i);
  bool run_prepass(EquivalenceResult& res);
  void extract_witness(EquivalenceResult& res, int failing_output);
  bool sweep_equal(Var a, Var b);

  const Netlist& a_;
  const Netlist& b_;
  MiterOptions opts_;
  Solver solver_;
  MiterStats stats_;

  std::vector<Var> va_;       ///< NodeId -> Var, netlist a (-1 = not encoded)
  std::vector<Var> vb_;       ///< NodeId -> Var, netlist b
  std::vector<Var> vb_repr_;  ///< b node -> a-side var proven equal (-1 none)
  std::vector<Var> pi_vars_;  ///< shared PI vars by PI index
  std::vector<Var> dff_vars_; ///< shared frame vars by common-dff index
  std::vector<std::uint32_t> topo_pos_a_;  ///< NodeId -> topo rank
  std::vector<std::uint32_t> topo_pos_b_;
  std::vector<int> pi_index_a_, pi_index_b_;    ///< NodeId -> PI index / -1
  std::vector<int> dff_index_a_, dff_index_b_;  ///< NodeId -> dff index / -1
  std::size_t common_dffs_ = 0;
  /// Pre-pass phase hints: node -> simulated bit (lane 0), -1 = none.
  std::vector<signed char> hint_a_, hint_b_;
  /// Scratch for ensure_var's pruned cone walk (epoch-stamped visited marks,
  /// reused across calls so per-output cone collection stays allocation-free).
  std::vector<std::uint32_t> stamp_a_, stamp_b_;
  std::vector<NodeId> cone_, dfs_stack_;
  std::uint32_t epoch_ = 0;
};

}  // namespace tz::sat
