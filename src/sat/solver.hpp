// Arena-based CDCL SAT solver (MiniSat/Glucose-class).
//
// The engine behind the incremental equivalence miter (sat/miter.hpp) and
// the SAT-exact trigger-rarity counter (sat/exact_pft.hpp):
//
//  - clauses live in a flat uint32 arena (sat/arena.hpp) with inline
//    size/learnt/LBD/activity headers — no per-clause heap allocation;
//  - two-watched-literal propagation with blocker literals, plus dedicated
//    binary watch lists that resolve binary implications without touching
//    the arena at all;
//  - VSIDS branching through an indexed order heap (sat/heap.hpp) with
//    phase saving and user-settable polarity hints (the miter seeds these
//    from BitSimulator traces);
//  - first-UIP learning with recursive (deep) clause minimization and
//    glue (LBD) computation;
//  - Luby restarts and glucose-style LBD-driven learnt-DB reduction that
//    runs at any decision level (locked reason clauses are skipped), so the
//    learnt DB stays bounded under assumption-heavy incremental use;
//  - MiniSat-style in-loop assumptions: assumption literals are placed as
//    decisions inside the search loop, so conflict analysis may backtrack
//    past them and unit learnts assert at level 0 and survive the solve.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sat/arena.hpp"
#include "sat/heap.hpp"
#include "sat/types.hpp"

namespace tz {
class SatChecker;
}

namespace tz::sat {

struct SatTestPeer;

class Solver {
 public:
  /// Lifetime counters. `conflicts`/`decisions`/`propagations` accumulate
  /// across solve() calls (conflicts() below is per-solve for API compat).
  struct Stats {
    std::int64_t conflicts = 0;
    std::int64_t decisions = 0;
    std::int64_t propagations = 0;
    std::int64_t restarts = 0;
    std::int64_t reduces = 0;          ///< learnt-DB reductions
    std::int64_t removed_learnts = 0;  ///< clauses dropped by reductions
    std::int64_t gc_runs = 0;          ///< arena garbage collections
    std::int64_t minimized_lits = 0;   ///< literals removed by minimization
  };

  /// A long-clause watcher: the watched clause plus a cached "blocker"
  /// literal from it. If the blocker is already true the clause is
  /// satisfied and the arena is never touched.
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };
  /// A binary-clause watcher: the implied literal and the clause ref (the
  /// ref is only needed as a reason for conflict analysis — propagation
  /// itself never dereferences the arena for binaries).
  struct BinWatcher {
    Lit other;
    ClauseRef cref;
  };

  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Add a clause (returns false if the database is already unsatisfiable).
  bool add_clause(std::vector<Lit> lits);
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solve under optional assumptions; conflict_limit < 0 means unlimited.
  SolveResult solve(const std::vector<Lit>& assumptions = {},
                    std::int64_t conflict_limit = -1);

  /// Model access after Sat.
  bool model_value(Var v) const { return model_[v] == LBool::True; }

  /// Conflicts of the most recent solve() call (seed-API compat).
  std::int64_t conflicts() const { return conflicts_; }
  const Stats& stats() const { return stats_; }
  std::size_t num_clauses() const { return clauses_.size(); }
  std::size_t num_learnts() const { return learnts_.size(); }

  /// Polarity hint: the next decision on `v` tries `pol` first. The miter's
  /// BitSimulator pre-pass seeds these so search starts near a simulated
  /// trace instead of the all-false phase default.
  void set_phase(Var v, bool pol) { phase_[v] = pol ? 1 : 0; }

  /// Dump the problem clauses (not learnts) plus level-0 facts in DIMACS.
  void write_dimacs(std::ostream& os) const;

 private:
  friend class ::tz::SatChecker;
  friend struct SatTestPeer;

  LBool value(Lit l) const {
    const LBool v = assigns_[l.var()];
    if (v == LBool::Undef) return LBool::Undef;
    return (v == LBool::True) != l.neg() ? LBool::True : LBool::False;
  }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  bool locked(ClauseRef cr) const {
    const Lit c0 = arena_.lit(cr, 0);
    return reason_[c0.var()] == cr && value(c0) == LBool::True;
  }

  void attach(ClauseRef cr);
  void detach(ClauseRef cr);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level,
               std::uint32_t& lbd);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  void cancel_until(int level);
  Lit pick_branch();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  void bump_var(Var v);
  void bump_clause(ClauseRef cr);
  void reduce_db();
  void check_garbage();
  static std::int64_t luby(std::int64_t i);

  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;  ///< problem clauses (incl. binaries)
  std::vector<ClauseRef> learnts_;  ///< learnt clauses (incl. binaries)
  std::vector<std::vector<Watcher>> watches_;      // indexed by lit.x
  std::vector<std::vector<BinWatcher>> bin_watches_;  // indexed by lit.x
  std::vector<LBool> assigns_;
  std::vector<LBool> model_;
  std::vector<char> phase_;  ///< saved / hinted polarity per var
  std::vector<double> activity_;
  std::vector<ClauseRef> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;
  VarOrderHeap order_{activity_};
  double var_inc_ = 1.0;
  float cla_inc_ = 1.0F;
  bool ok_ = true;
  std::int64_t conflicts_ = 0;  ///< conflicts of the current/last solve
  Stats stats_;
  std::size_t reduce_cap_ = 2000;  ///< learnt count that triggers reduce_db
  // analyze() scratch
  std::vector<char> seen_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> analyze_stack_;
  std::vector<int> lbd_scratch_;
};

}  // namespace tz::sat
