#include "sat/miter.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>

#include "sat/tseitin.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "verify/verify.hpp"

namespace tz::sat {

namespace {

/// Pre-pass width in 64-pattern words.
constexpr std::size_t kPrepassWords = 4;
/// Conflict cap of one SAT-sweeping query.
constexpr std::int64_t kSweepConflictLimit = 1000;

}  // namespace

IncrementalMiter::IncrementalMiter(const Netlist& a, const Netlist& b,
                                   MiterOptions opts)
    : a_(a), b_(b), opts_(std::move(opts)) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("check_equivalence: interface mismatch");
  }
  va_.assign(a.raw_size(), -1);
  vb_.assign(b.raw_size(), -1);
  vb_repr_.assign(b.raw_size(), -1);
  pi_vars_.assign(a.inputs().size(), -1);
  common_dffs_ = std::min(a.dffs().size(), b.dffs().size());
  dff_vars_.assign(common_dffs_, -1);
  hint_a_.assign(a.raw_size(), -1);
  hint_b_.assign(b.raw_size(), -1);

  const auto build_indexes = [](const Netlist& nl, std::vector<int>& pi_idx,
                                std::vector<int>& dff_idx,
                                std::vector<std::uint32_t>& topo_pos) {
    pi_idx.assign(nl.raw_size(), -1);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      pi_idx[nl.inputs()[i]] = static_cast<int>(i);
    }
    dff_idx.assign(nl.raw_size(), -1);
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      dff_idx[nl.dffs()[i]] = static_cast<int>(i);
    }
    topo_pos.assign(nl.raw_size(), 0);
    const std::vector<NodeId> order = nl.topo_order();
    for (std::size_t i = 0; i < order.size(); ++i) {
      topo_pos[order[i]] = static_cast<std::uint32_t>(i);
    }
  };
  build_indexes(a_, pi_index_a_, dff_index_a_, topo_pos_a_);
  build_indexes(b_, pi_index_b_, dff_index_b_, topo_pos_b_);
}

Var IncrementalMiter::pi_var(std::size_t i) {
  if (pi_vars_[i] < 0) {
    const Var v = solver_.new_var();
    pi_vars_[i] = v;
    const NodeId ia = a_.inputs()[i];
    const NodeId ib = b_.inputs()[i];
    va_[ia] = v;
    vb_[ib] = v;
    vb_repr_[ib] = v;
    if (hint_a_[ia] >= 0) solver_.set_phase(v, hint_a_[ia] != 0);
  }
  return pi_vars_[i];
}

Var IncrementalMiter::dff_var(std::size_t i) {
  if (dff_vars_[i] < 0) {
    const Var v = solver_.new_var();
    dff_vars_[i] = v;
    const NodeId ia = a_.dffs()[i];
    const NodeId ib = b_.dffs()[i];
    va_[ia] = v;
    vb_[ib] = v;
    vb_repr_[ib] = v;
    if (hint_a_[ia] >= 0) solver_.set_phase(v, hint_a_[ia] != 0);
  }
  return dff_vars_[i];
}

bool IncrementalMiter::sweep_equal(Var x, Var y) {
  const Lit lx = Lit::make(x);
  const Lit ly = Lit::make(y);
  if (solver_.solve({lx, ~ly}, kSweepConflictLimit) !=
      SolveResult::Unsat) {
    return false;
  }
  if (solver_.solve({~lx, ly}, kSweepConflictLimit) !=
      SolveResult::Unsat) {
    return false;
  }
  solver_.add_binary(~lx, ly);
  solver_.add_binary(lx, ~ly);
  return true;
}

Var IncrementalMiter::ensure_var(bool side_b, NodeId root) {
  const Netlist& nl = side_b ? b_ : a_;
  std::vector<Var>& vars = side_b ? vb_ : va_;
  if (vars[root] != -1) return vars[root];

  // Cone-of-influence, pruned at already-encoded nodes: a full fanin_cone
  // per output would revisit the whole shared cone for each of the (possibly
  // tens of thousands of) outputs, turning the walk quadratic at 100k-gate
  // scale. Stopping at encoded frontiers keeps the total cone work across
  // all ensure_var calls linear in the circuit's edges.
  std::vector<std::uint32_t>& stamp = side_b ? stamp_b_ : stamp_a_;
  if (stamp.size() < nl.raw_size()) stamp.resize(nl.raw_size(), 0);
  ++epoch_;
  cone_.clear();
  dfs_stack_.assign(1, root);
  while (!dfs_stack_.empty()) {
    const NodeId id = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (stamp[id] == epoch_) continue;
    stamp[id] = epoch_;
    cone_.push_back(id);
    for (const NodeId f : nl.node(id).fanin) {
      if (vars[f] == -1 && stamp[f] != epoch_) dfs_stack_.push_back(f);
    }
  }
  std::vector<NodeId>& cone = cone_;
  const std::vector<std::uint32_t>& pos = side_b ? topo_pos_b_ : topo_pos_a_;
  std::sort(cone.begin(), cone.end(),
            [&pos](NodeId x, NodeId y) { return pos[x] < pos[y]; });

  const std::vector<int>& pi_idx = side_b ? pi_index_b_ : pi_index_a_;
  const std::vector<int>& dff_idx = side_b ? dff_index_b_ : dff_index_a_;
  const std::vector<signed char>& hints = side_b ? hint_b_ : hint_a_;
  std::vector<Lit> ins;
  for (const NodeId id : cone) {
    if (vars[id] != -1) continue;
    const Node& n = nl.node(id);
    if (n.type == GateType::Input) {
      vars[id] = pi_var(static_cast<std::size_t>(pi_idx[id]));
      continue;
    }
    if (n.type == GateType::Dff) {
      const int di = dff_idx[id];
      if (di >= 0 && static_cast<std::size_t>(di) < common_dffs_) {
        vars[id] = dff_var(static_cast<std::size_t>(di));
      } else {
        // A DFF present on one side only (an inserted HT's counter bit):
        // pinned to its reset state, matching the single-frame-at-reset
        // semantics of the original monolithic miter.
        const Var v = solver_.new_var();
        vars[id] = v;
        solver_.add_unit(~Lit::make(v));
      }
      continue;
    }
    // Structural sharing: a b-side gate whose name/type/arity match an
    // encoded a-side gate with variable-identical fanins needs no clauses.
    NodeId twin = kNoNode;
    if (side_b && opts_.structural_match) {
      twin = a_.find(n.name);
      if (twin != kNoNode && va_[twin] != -1) {
        const Node& na = a_.node(twin);
        if (na.type == n.type && na.fanin.size() == n.fanin.size()) {
          bool all = true;
          for (std::size_t k = 0; k < n.fanin.size(); ++k) {
            const Var bf = vb_repr_[n.fanin[k]] != -1 ? vb_repr_[n.fanin[k]]
                                                      : vb_[n.fanin[k]];
            if (bf == -1 || bf != va_[na.fanin[k]]) {
              all = false;
              break;
            }
          }
          if (all) {
            vars[id] = va_[twin];
            vb_repr_[id] = va_[twin];
            ++stats_.shared_nodes;
            continue;
          }
        }
      }
    }
    const Var v = solver_.new_var();
    vars[id] = v;
    if (hints[id] >= 0) solver_.set_phase(v, hints[id] != 0);
    ins.clear();
    ins.reserve(n.fanin.size());
    for (const NodeId f : n.fanin) ins.push_back(Lit::make(vars[f]));
    encode_node(solver_, n.type, Lit::make(v), ins);
    // Near-miss at a rewrite frontier: the a side has a gate of the same
    // name but the cones diverged below it. A bounded sweep query can often
    // prove the pair equal anyway; merging with a biconditional lets the
    // structural matcher resume on the fanout side of the rewrite.
    if (side_b && opts_.structural_match && twin != kNoNode &&
        va_[twin] != -1 && sweep_equal(va_[twin], v)) {
      vb_repr_[id] = va_[twin];
      ++stats_.sweep_merges;
    }
  }
  return vars[root];
}

bool IncrementalMiter::run_prepass(EquivalenceResult& res) {
  const std::size_t num_patterns = 64 * kPrepassWords;
  const PatternSet pats =
      random_patterns(a_.inputs().size(), num_patterns, 0x54505245u);
  std::vector<std::uint64_t> st_a(a_.dffs().size(), 0);
  std::vector<std::uint64_t> st_b(b_.dffs().size(), 0);
  std::mt19937_64 rng(0x5EED5A7Full);
  for (std::size_t i = 0; i < common_dffs_; ++i) st_a[i] = st_b[i] = rng();
  // Extra DFFs stay 0: the SAT miter pins them to reset, and the pre-pass
  // must not report differences the miter would rule out.
  const BitSimulator sim_a(a_);
  const BitSimulator sim_b(b_);
  const NodeValues vals_a = sim_a.run(pats, st_a.empty() ? nullptr : &st_a);
  const NodeValues vals_b = sim_b.run(pats, st_b.empty() ? nullptr : &st_b);

  for (std::size_t o = 0; o < a_.outputs().size(); ++o) {
    const NodeId oa = a_.outputs()[o];
    const NodeId ob = b_.outputs()[o];
    for (std::size_t p = 0; p < num_patterns; ++p) {
      if (vals_a.bit(oa, p) == vals_b.bit(ob, p)) continue;
      // Replayable witness straight from simulation: no SAT call needed.
      res.equivalent = false;
      res.failing_output = static_cast<int>(o);
      res.counterexample.assign(a_.inputs().size(), false);
      for (std::size_t i = 0; i < a_.inputs().size(); ++i) {
        res.counterexample[i] = pats.get(p, i);
      }
      // DFF rows are one state word broadcast across pattern words, so
      // pattern p saw bit (p % 64) of the state word.
      res.dff_values.assign(a_.dffs().size(), false);
      for (std::size_t i = 0; i < common_dffs_; ++i) {
        res.dff_values[i] = ((st_a[i] >> (p % 64)) & 1) != 0;
      }
      stats_.prepass_hit = true;
      return true;
    }
  }
  // Both sides agree on every sampled pattern: seed decision phases with the
  // pattern-0 trace so the solver searches near a consistent assignment.
  for (NodeId id = 0; id < a_.raw_size(); ++id) {
    if (a_.is_alive(id)) hint_a_[id] = vals_a.bit(id, 0) ? 1 : 0;
  }
  for (NodeId id = 0; id < b_.raw_size(); ++id) {
    if (b_.is_alive(id)) hint_b_[id] = vals_b.bit(id, 0) ? 1 : 0;
  }
  return false;
}

void IncrementalMiter::extract_witness(EquivalenceResult& res,
                                       int failing_output) {
  res.equivalent = false;
  res.failing_output = failing_output;
  res.counterexample.assign(a_.inputs().size(), false);
  for (std::size_t i = 0; i < a_.inputs().size(); ++i) {
    // PIs outside every encoded cone are unconstrained: default false.
    if (pi_vars_[i] >= 0) {
      res.counterexample[i] = solver_.model_value(pi_vars_[i]);
    }
  }
  res.dff_values.assign(a_.dffs().size(), false);
  for (std::size_t i = 0; i < common_dffs_; ++i) {
    if (dff_vars_[i] >= 0) {
      res.dff_values[i] = solver_.model_value(dff_vars_[i]);
    }
  }
  // a-side extra DFFs are pinned to 0 (reset) — already false.
}

EquivalenceResult IncrementalMiter::check() {
  EquivalenceResult res;
  stats_.outputs_total = a_.outputs().size();

  const auto finish = [this](EquivalenceResult r) {
    if (!opts_.dimacs_path.empty()) {
      std::ofstream os(opts_.dimacs_path);
      solver_.write_dimacs(os);
    }
    if (check_enabled()) {
      VerifyReport rep = SatChecker::run(solver_);
      if (!rep.ok()) throw VerifyError("sat-miter", std::move(rep));
    }
    return r;
  };

  if (opts_.prepass && run_prepass(res)) return finish(res);

  // Check output pairs in topological order of the a-side cones, so learnt
  // clauses and committed equalities flow from shallow cones to deep ones.
  std::vector<std::size_t> order(a_.outputs().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t x, std::size_t y) {
    return topo_pos_a_[a_.outputs()[x]] < topo_pos_a_[a_.outputs()[y]];
  });

  std::int64_t budget = opts_.conflict_limit;
  for (const std::size_t o : order) {
    const Var oa = ensure_var(false, a_.outputs()[o]);
    const Var ob = ensure_var(true, b_.outputs()[o]);
    const Var obr = vb_repr_[b_.outputs()[o]];
    if (oa == ob || oa == obr) {
      ++stats_.outputs_shared;  // proved equal purely structurally
      continue;
    }
    const Lit la = Lit::make(oa);
    const Lit lb = Lit::make(ob);
    const Lit d = Lit::make(solver_.new_var());
    solver_.add_ternary(~d, la, lb);
    solver_.add_ternary(~d, ~la, ~lb);
    solver_.add_ternary(d, ~la, lb);
    solver_.add_ternary(d, la, ~lb);
    ++stats_.sat_calls;
    const SolveResult r = solver_.solve({d}, budget);
    if (budget >= 0) {
      budget = std::max<std::int64_t>(0, budget - solver_.conflicts());
    }
    if (r == SolveResult::Sat) {
      extract_witness(res, static_cast<int>(o));
      return finish(res);
    }
    if (r == SolveResult::Unknown) {
      res.decided = false;
      return finish(res);
    }
    // UNSAT: commit the proved equality so later cones reuse it.
    solver_.add_unit(~d);
    ++stats_.outputs_proved;
  }
  res.equivalent = true;
  return finish(res);
}

}  // namespace tz::sat
