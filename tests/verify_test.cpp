// Adversarial tests for tz::verify: every CheckId has a corruption test that
// plants exactly that defect (via the friend test peers) and asserts the
// checker names it, plus zero-violation gates over the real benchmarks and a
// checked-vs-unchecked salvage A/B proving the TZ_CHECK hooks are pure
// observers (bit-identical flow results). The Camp* CheckIds are covered by
// their own corruption tests in campaign_test.cpp next to the driver tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atpg/fault_sim_backend.hpp"
#include "core/flow_engine.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "netlist/bench_io.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "verify/verify.hpp"

namespace tz {

// The corruption hatches. Declared friends of Netlist/EvalPlan so the tests
// can plant a single targeted defect without the public API repairing the
// bookkeeping around it.
struct NetlistTestPeer {
  static std::vector<Node>& nodes(Netlist& nl) { return nl.nodes_; }
  static std::vector<NodeId>& inputs(Netlist& nl) { return nl.inputs_; }
  static std::vector<NodeId>& outputs(Netlist& nl) { return nl.outputs_; }
  static std::vector<NodeId>& dffs(Netlist& nl) { return nl.dffs_; }
  static std::vector<NodeId>& by_name(Netlist& nl) { return nl.by_name_; }
  static std::size_t name_slot(const Netlist& nl, const std::string& name) {
    return nl.name_slot(name);
  }
  static std::size_t& live_count(Netlist& nl) { return nl.live_count_; }
};

struct PlanTestPeer {
  static std::vector<EvalOp>& ops(EvalPlan& p) { return p.ops_; }
  static std::vector<NodeId>& node_of(EvalPlan& p) { return p.node_of_; }
  static std::vector<SlotId>& slot_of(EvalPlan& p) { return p.slot_of_; }
  static std::vector<std::uint32_t>& fanin_offset(EvalPlan& p) {
    return p.fanin_offset_;
  }
  static std::vector<SlotId>& fanin_slots(EvalPlan& p) {
    return p.fanin_slots_;
  }
  static std::vector<std::uint32_t>& fanout_offset(EvalPlan& p) {
    return p.fanout_offset_;
  }
  static std::vector<SlotId>& fanout_slots(EvalPlan& p) {
    return p.fanout_slots_;
  }
  static std::vector<SlotId>& input_slots(EvalPlan& p) {
    return p.input_slots_;
  }
  static std::vector<SlotId>& output_slots(EvalPlan& p) {
    return p.output_slots_;
  }
};

namespace sat {

struct SatTestPeer {
  static ClauseArena& arena(Solver& s) { return s.arena_; }
  static std::vector<ClauseRef>& clauses(Solver& s) { return s.clauses_; }
  static std::vector<ClauseRef>& learnts(Solver& s) { return s.learnts_; }
  static std::vector<std::vector<Solver::Watcher>>& watches(Solver& s) {
    return s.watches_;
  }
  static std::vector<std::vector<Solver::BinWatcher>>& bin_watches(Solver& s) {
    return s.bin_watches_;
  }
};

}  // namespace sat

namespace {

using test::two_gate;

// Restores the TZ_CHECK env default on scope exit so a fatal assertion in
// one test cannot leak a forced mode into the aggregated runner.
struct CheckGuard {
  explicit CheckGuard(int mode) { set_check_enabled(mode); }
  ~CheckGuard() { set_check_enabled(-1); }
  CheckGuard(const CheckGuard&) = delete;
  CheckGuard& operator=(const CheckGuard&) = delete;
};

void erase_one(IdList& v, NodeId x) {
  const auto it = std::find(v.begin(), v.end(), x);
  ASSERT_NE(it, v.end());
  v.erase(it);
}

// ---- zero-violation gates ---------------------------------------------------

TEST(VerifyGate, BenchmarksAreClean) {
  for (const char* name : {"c880", "c1908", "c6288"}) {
    const Netlist nl = make_benchmark(name);
    const VerifyReport nrep = NetlistChecker::run(nl);  // strict: no orphans
    EXPECT_TRUE(nrep.ok()) << name << "\n" << nrep.format();
    const EvalPlan plan(nl);
    const VerifyReport prep = PlanChecker::run(plan, nl);
    EXPECT_TRUE(prep.ok()) << name << "\n" << prep.format();
  }
}

TEST(VerifyGate, Rand100kIsClean) {
  const Netlist nl = make_benchmark("rand100k");
  const VerifyReport nrep = NetlistChecker::run(nl);
  EXPECT_TRUE(nrep.ok()) << nrep.format();
  const EvalPlan plan(nl);
  const VerifyReport prep = PlanChecker::run(plan, nl);
  EXPECT_TRUE(prep.ok()) << prep.format();
}

TEST(VerifyGate, ReportFormatNamesTheCheck) {
  Netlist nl = two_gate();
  ++NetlistTestPeer::live_count(nl);
  const VerifyReport r = NetlistChecker::run(nl);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.format().find("net-live-count"), std::string::npos)
      << r.format();
  EXPECT_EQ(r.count(CheckId::NetLiveCount), 1u);
}

// ---- NetlistChecker corruption tests (one per check id) --------------------

TEST(NetlistCheckerCorrupt, DanglingFanin) {
  Netlist nl = two_gate();
  const NodeId h = nl.find("h");
  NetlistTestPeer::nodes(nl)[h].fanin[0] = 999;  // far out of range
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetDanglingFanin)) << r.format();
}

TEST(NetlistCheckerCorrupt, DuplicateName) {
  Netlist nl = two_gate();
  // Lost entry: g's slot emptied without the backward shift, so probing "g"
  // stops at the hole.
  NetlistTestPeer::by_name(nl)[NetlistTestPeer::name_slot(nl, "g")] = kNoNode;
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetDuplicateName)) << r.format();
}

TEST(NetlistCheckerCorrupt, NameSlotHoldsAnotherNode) {
  Netlist nl = two_gate();
  const NodeId h = nl.find("h");
  // g's slot now holds h: probing "g" no longer finds g, and of h's two
  // slots only the first on its probe path is reachable.
  NetlistTestPeer::by_name(nl)[NetlistTestPeer::name_slot(nl, "g")] = h;
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetDuplicateName)) << r.format();
  EXPECT_EQ(r.count(CheckId::NetDuplicateName), 2u) << r.format();
}

TEST(NetlistCheckerCorrupt, BadArity) {
  Netlist nl = two_gate();
  const NodeId g = nl.find("g");
  const NodeId b = nl.find("b");
  // Drop one leg of the AND (and its fanout record, so only arity is wrong).
  NetlistTestPeer::nodes(nl)[g].fanin.pop_back();
  erase_one(NetlistTestPeer::nodes(nl)[b].fanout, g);
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetBadArity)) << r.format();
}

TEST(NetlistCheckerCorrupt, InputList) {
  Netlist nl = two_gate();
  NetlistTestPeer::inputs(nl).pop_back();  // live Input no longer listed
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetInputList)) << r.format();
}

TEST(NetlistCheckerCorrupt, OutputList) {
  Netlist nl = two_gate();
  NetlistTestPeer::outputs(nl).push_back(nl.outputs()[0]);  // duplicate PO
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetOutputList)) << r.format();
}

TEST(NetlistCheckerCorrupt, DffList) {
  Netlist nl = two_gate();
  const NodeId q = nl.add_gate(GateType::Dff, "q", {nl.find("g")});
  nl.mark_output(q);
  ASSERT_TRUE(NetlistChecker::run(nl).ok());
  NetlistTestPeer::dffs(nl).clear();  // live DFF no longer listed
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetDffList)) << r.format();
}

TEST(NetlistCheckerCorrupt, FanoutSync) {
  Netlist nl = two_gate();
  const NodeId g = nl.find("g");
  const NodeId h = nl.find("h");
  erase_one(NetlistTestPeer::nodes(nl)[g].fanout, h);  // h still reads g
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetFanoutSync)) << r.format();
}

TEST(NetlistCheckerCorrupt, PhantomFanout) {
  Netlist nl = two_gate();
  // 'a' records reader h, but h reads only g.
  NetlistTestPeer::nodes(nl)[nl.find("a")].fanout.push_back(nl.find("h"));
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetPhantomFanout)) << r.format();
}

TEST(NetlistCheckerCorrupt, Cycle) {
  Netlist nl = two_gate();
  const NodeId a = nl.find("a");
  const NodeId g = nl.find("g");
  const NodeId h = nl.find("h");
  // Rewire g's first leg from a to h (edge-consistent: both fanin and fanout
  // are updated), creating the combinational loop g -> h -> g.
  NetlistTestPeer::nodes(nl)[g].fanin[0] = h;
  erase_one(NetlistTestPeer::nodes(nl)[a].fanout, g);
  NetlistTestPeer::nodes(nl)[h].fanout.push_back(g);
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetCycle)) << r.format();
  EXPECT_FALSE(r.has(CheckId::NetFanoutSync)) << r.format();
}

TEST(NetlistCheckerCorrupt, OrphanStrictOnly) {
  Netlist nl = two_gate();
  nl.add_gate(GateType::And, "orph", {nl.find("a"), nl.find("b")});
  const VerifyReport strict = NetlistChecker::run(nl);
  EXPECT_TRUE(strict.has(CheckId::NetOrphan)) << strict.format();
  // The FlowEngine boundary option accepts mid-surgery unread gates.
  const VerifyReport lax =
      NetlistChecker::run(nl, {.allow_unread_gates = true});
  EXPECT_FALSE(lax.has(CheckId::NetOrphan)) << lax.format();
}

TEST(NetlistCheckerCorrupt, LiveCount) {
  Netlist nl = two_gate();
  ++NetlistTestPeer::live_count(nl);
  const VerifyReport r = NetlistChecker::run(nl);
  EXPECT_TRUE(r.has(CheckId::NetLiveCount)) << r.format();
}

// ---- PlanChecker corruption tests (one per check id) -----------------------

TEST(PlanCheckerCorrupt, SlotBijection) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  PlanTestPeer::slot_of(p)[nl.find("g")] = kNoSlot;
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanSlotBijection)) << r.format();
}

TEST(PlanCheckerCorrupt, Opcode) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  const SlotId sg = p.slot_of(nl.find("g"));
  ASSERT_EQ(p.op(sg), EvalOp::And2);
  PlanTestPeer::ops(p)[sg] = EvalOp::Or2;  // same arity, wrong function
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanOpcode)) << r.format();
}

TEST(PlanCheckerCorrupt, CsrBounds) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  PlanTestPeer::fanin_offset(p).back() += 3;  // closes past the edge array
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanCsrBounds)) << r.format();
}

TEST(PlanCheckerCorrupt, CsrStale) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  const SlotId sh = p.slot_of(nl.find("h"));
  // h's single fanin row now reads 'a'; the netlist still reads 'g'.
  PlanTestPeer::fanin_slots(p)[PlanTestPeer::fanin_offset(p)[sh]] =
      p.slot_of(nl.find("a"));
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanCsrStale)) << r.format();
}

TEST(PlanCheckerCorrupt, FanoutSync) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  const SlotId sg = p.slot_of(nl.find("g"));
  ASSERT_EQ(p.fanout(sg).size(), 1u);  // schedules h
  // g's fanout row now schedules 'a' instead of its real reader h.
  PlanTestPeer::fanout_slots(p)[PlanTestPeer::fanout_offset(p)[sg]] =
      p.slot_of(nl.find("a"));
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanFanoutSync)) << r.format();
}

TEST(PlanCheckerCorrupt, TopoOrder) {
  // NOT-chain so both swapped slots carry identical 1-entry fanin rows: the
  // swap leaves every pointwise netlist agreement intact and violates only
  // the slot-order-is-topo-order rule.
  Netlist nl("chain");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Not, "g1", {a});
  const NodeId g2 = nl.add_gate(GateType::Not, "g2", {g1});
  nl.mark_output(g2);
  EvalPlan p(nl);
  const SlotId sa = p.slot_of(a);
  const SlotId s1 = p.slot_of(g1);
  const SlotId s2 = p.slot_of(g2);
  ASSERT_LT(s1, s2);
  // Relabel the two NOT slots completely — node maps, fanin rows, fanout CSR
  // and the output list all agree on the swapped placement, so the one
  // remaining defect is that g2's fanin slot no longer precedes it.
  std::swap(PlanTestPeer::node_of(p)[s1], PlanTestPeer::node_of(p)[s2]);
  std::swap(PlanTestPeer::slot_of(p)[g1], PlanTestPeer::slot_of(p)[g2]);
  PlanTestPeer::fanin_slots(p)[PlanTestPeer::fanin_offset(p)[s1]] = s2;
  PlanTestPeer::fanin_slots(p)[PlanTestPeer::fanin_offset(p)[s2]] = sa;
  PlanTestPeer::fanout_offset(p) = {0, 1, 1, 2};
  PlanTestPeer::fanout_slots(p) = {s2, s1};
  PlanTestPeer::output_slots(p)[0] = s1;
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanTopoOrder)) << r.format();
  EXPECT_EQ(r.violations.size(), 1u) << r.format();
}

TEST(PlanCheckerCorrupt, IoLists) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  PlanTestPeer::output_slots(p).pop_back();
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanIoLists)) << r.format();

  EvalPlan p2(nl);
  PlanTestPeer::input_slots(p2)[0] = p2.slot_of(nl.find("g"));  // wrong slot
  const VerifyReport r2 = PlanChecker::run(p2, nl);
  EXPECT_TRUE(r2.has(CheckId::PlanIoLists)) << r2.format();
}

TEST(PlanCheckerCorrupt, BlockLayout) {
  const Netlist nl = two_gate();
  auto plan = std::make_shared<EvalPlan>(nl);
  NodeValues vals(plan, 4);
  EXPECT_TRUE(check_values_layout(vals).ok());
  // Grow the plan under the matrix: a consistent extra Dead slot, so only
  // the rows-vs-slots contract is broken.
  PlanTestPeer::ops(*plan).push_back(EvalOp::Dead);
  PlanTestPeer::node_of(*plan).push_back(kNoNode);
  PlanTestPeer::fanin_offset(*plan).push_back(
      PlanTestPeer::fanin_offset(*plan).back());
  PlanTestPeer::fanout_offset(*plan).push_back(
      PlanTestPeer::fanout_offset(*plan).back());
  const VerifyReport r = check_values_layout(vals);
  EXPECT_TRUE(r.has(CheckId::PlanBlockLayout)) << r.format();
}

TEST(PlanCheckerCorrupt, Equivalence) {
  const Netlist nl = two_gate();
  EvalPlan p(nl);
  const SlotId sg = p.slot_of(nl.find("g"));
  // Swap the AND's fanin row order: fanin order is semantic (MUX), so the
  // canonical per-node diff against a fresh recompile must flag it.
  auto& row = PlanTestPeer::fanin_slots(p);
  const std::uint32_t off = PlanTestPeer::fanin_offset(p)[sg];
  std::swap(row[off], row[off + 1]);
  const VerifyReport r = PlanChecker::run(p, nl);
  EXPECT_TRUE(r.has(CheckId::PlanEquivalence)) << r.format();
  // The diff is skippable for hot boundaries that only need local checks.
  const VerifyReport local = PlanChecker::run(p, nl, {.equivalence = false});
  EXPECT_FALSE(local.has(CheckId::PlanEquivalence));
}

// ---- FaultPackChecker corruption tests (one per check id) ------------------

// A healthy two-lane packed batch over the two_gate plan: lane 0 = g
// stuck-at-0, lane 1 = h stuck-at-1. The vectors own the storage the
// FaultPackBatch spans alias, so each test corrupts one field and re-runs
// the checker on the same fixture.
struct PackBatchFixture {
  Netlist nl = two_gate();
  EvalPlan plan{nl};
  std::uint64_t lanes_mask = 0b11;
  std::uint64_t sa1_lanes = 0b10;
  std::vector<NodeId> lane_node;
  std::vector<std::size_t> lane_fault{0, 1};
  std::vector<SlotId> site_slot;
  std::vector<std::uint64_t> site_mask{0b01, 0b10};
  std::vector<std::uint64_t> site_force_one{0b00, 0b10};
  std::vector<char> dropped;

  PackBatchFixture() {
    const NodeId g = nl.find("g");
    const NodeId h = nl.find("h");
    lane_node = {g, h};
    site_slot = {plan.slot_of(g), plan.slot_of(h)};
  }

  FaultPackBatch batch() const {
    return {.plan = &plan,
            .lanes_mask = lanes_mask,
            .sa1_lanes = sa1_lanes,
            .lane_node = lane_node,
            .lane_fault = lane_fault,
            .site_slot = site_slot,
            .site_mask = site_mask,
            .site_force_one = site_force_one,
            .dropped = dropped};
  }
};

TEST(FaultPackCorrupt, HealthyBatchPasses) {
  const PackBatchFixture f;
  const VerifyReport r = FaultPackChecker::run(f.batch());
  EXPECT_TRUE(r.ok()) << r.format();
}

TEST(FaultPackCorrupt, SiteSlot) {
  // Move lane 0's forcing mask to the slot of input `a`: still a valid,
  // ascending site list, but the lane is now forced somewhere that is not
  // its fault site (and never at its own site).
  PackBatchFixture f;
  f.site_slot[0] = f.plan.slot_of(f.nl.find("a"));
  const VerifyReport r = FaultPackChecker::run(f.batch());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::PackSiteSlot)) << r.format();

  // Polarity flavor: forcing a one on a stuck-at-0 lane.
  PackBatchFixture g;
  g.site_force_one[0] = 0b01;
  const VerifyReport r2 = FaultPackChecker::run(g.batch());
  EXPECT_TRUE(r2.has(CheckId::PackSiteSlot)) << r2.format();
}

TEST(FaultPackCorrupt, LaneBleed) {
  // Forcing a padding lane would overwrite the good machine that padding
  // lanes carry.
  PackBatchFixture f;
  f.site_mask[1] = 0b110;
  const VerifyReport r = FaultPackChecker::run(f.batch());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::PackLaneBleed)) << r.format();
  EXPECT_FALSE(r.has(CheckId::PackSiteSlot)) << r.format();

  // Overlap flavor: two sites forcing the same lane is cross-fault bleed.
  PackBatchFixture g;
  g.site_mask[1] = 0b11;
  g.site_force_one[1] = 0b10;
  const VerifyReport r2 = FaultPackChecker::run(g.batch());
  EXPECT_TRUE(r2.has(CheckId::PackLaneBleed)) << r2.format();
}

TEST(FaultPackCorrupt, LaneBijection) {
  // One fault occupying two lanes breaks the drop-list <-> lane bijection.
  PackBatchFixture f;
  f.lane_fault = {0, 0};
  const VerifyReport r = FaultPackChecker::run(f.batch());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::PackLaneBijection)) << r.format();

  // A lane simulating an already-dropped fault wastes the lane and lets a
  // stale detection flag alias a live one.
  PackBatchFixture g;
  g.dropped = {1, 0};
  const VerifyReport r2 = FaultPackChecker::run(g.batch());
  EXPECT_TRUE(r2.has(CheckId::PackLaneBijection)) << r2.format();

  // Non-dense live lanes: the packed sweep assumes low bits.
  PackBatchFixture h;
  h.lanes_mask = 0b101;
  const VerifyReport r3 = FaultPackChecker::run(h.batch());
  EXPECT_TRUE(r3.has(CheckId::PackLaneBijection)) << r3.format();
}

TEST(FaultPackChecked, EngineBatchesPassUnderCheck) {
  // The packed engine builds a FaultPackBatch per 64-fault batch when
  // TZ_CHECK is armed; on a clean benchmark every batch must satisfy the
  // checker (no throw) and the checked run must be bit-identical to the
  // unchecked one — the hook is an observer.
  const Netlist nl = make_benchmark("c880");
  const auto faults = collapse_faults(nl, fault_universe(nl));
  const PatternSet ps = random_patterns(nl.inputs().size(), 96, 5);

  std::vector<bool> plain_flags;
  std::vector<std::vector<std::uint64_t>> plain_matrix;
  {
    CheckGuard off(0);
    const auto backend = make_fault_sim_backend(nl, FaultSimMode::Packed);
    backend->set_patterns(ps);
    plain_flags = test::detect_flags(*backend, faults);
    plain_matrix = backend->detection_matrix(faults);
  }
  CheckGuard on(1);
  const auto backend = make_fault_sim_backend(nl, FaultSimMode::Packed);
  backend->set_patterns(ps);
  EXPECT_EQ(backend->detection_matrix(faults), plain_matrix);
  std::vector<bool> detected(faults.size(), false);
  EXPECT_GT(backend->drop_sim(faults, detected), 0u);
  EXPECT_EQ(detected, plain_flags);
}

// ---- structured JSON report -------------------------------------------------

/// A small solver with one ternary and one binary clause, plus a solved
/// pigeonhole instance for the "battle-worn" clean check (reduce_db and
/// arena GC have both had a chance to run by then).
sat::Solver small_sat_fixture() {
  sat::Solver s;
  const sat::Var a = s.new_var();
  const sat::Var b = s.new_var();
  const sat::Var c = s.new_var();
  s.add_ternary(sat::Lit::make(a), sat::Lit::make(b), sat::Lit::make(c));
  s.add_binary(~sat::Lit::make(a), ~sat::Lit::make(b));
  return s;
}

TEST(SatCheckerCorrupt, CleanSolverPasses) {
  sat::Solver s = small_sat_fixture();
  EXPECT_TRUE(SatChecker::run(s).ok());

  // After a learning-heavy solve the watch structures have been rebuilt by
  // propagation swaps, clause-DB reduction and possibly arena GC.
  sat::Solver hard;
  std::vector<std::vector<sat::Var>> p(7, std::vector<sat::Var>(6));
  for (auto& row : p) {
    for (sat::Var& v : row) v = hard.new_var();
  }
  for (int i = 0; i < 7; ++i) {
    std::vector<sat::Lit> cl;
    for (int j = 0; j < 6; ++j) cl.push_back(sat::Lit::make(p[i][j]));
    hard.add_clause(cl);
  }
  for (int j = 0; j < 6; ++j) {
    for (int i = 0; i < 7; ++i) {
      for (int k = i + 1; k < 7; ++k) {
        hard.add_binary(~sat::Lit::make(p[i][j]), ~sat::Lit::make(p[k][j]));
      }
    }
  }
  EXPECT_EQ(hard.solve(), sat::SolveResult::Unsat);
  const VerifyReport r = SatChecker::run(hard);
  EXPECT_TRUE(r.ok()) << r.format();
}

TEST(SatCheckerCorrupt, ArenaBounds) {
  sat::Solver s = small_sat_fixture();
  sat::SatTestPeer::clauses(s).push_back(
      sat::SatTestPeer::arena(s).size_words() + 17);
  const VerifyReport r = SatChecker::run(s);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::SatArenaBounds)) << r.format();
}

TEST(SatCheckerCorrupt, WatchBijection) {
  // Drop one watcher of the ternary clause: a propagation on that literal
  // will silently skip the clause.
  sat::Solver s = small_sat_fixture();
  auto& watches = sat::SatTestPeer::watches(s);
  for (auto& list : watches) {
    if (!list.empty()) {
      list.clear();
      break;
    }
  }
  const VerifyReport r = SatChecker::run(s);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::SatWatchBijection)) << r.format();

  // Blocker flavor: a blocker that is not even a literal of the clause.
  sat::Solver s2 = small_sat_fixture();
  for (auto& list : sat::SatTestPeer::watches(s2)) {
    if (!list.empty()) {
      list[0].blocker = sat::Lit::make(s2.new_var());
      break;
    }
  }
  const VerifyReport r2 = SatChecker::run(s2);
  EXPECT_TRUE(r2.has(CheckId::SatWatchBijection)) << r2.format();
}

TEST(SatCheckerCorrupt, BinaryWatch) {
  // Flip the implied literal of one binary watcher: propagation would then
  // enqueue the falsified literal instead of the implied one.
  sat::Solver s = small_sat_fixture();
  for (auto& list : sat::SatTestPeer::bin_watches(s)) {
    if (!list.empty()) {
      list[0].other = ~list[0].other;
      break;
    }
  }
  const VerifyReport r = SatChecker::run(s);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has(CheckId::SatBinaryWatch)) << r.format();
}

TEST(VerifyReportJson, GoldenOutput) {
  // tz_check --json embeds to_json() verbatim; the exact shape (stable
  // kebab-case check ids, null for unset node/slot, escaped messages) is the
  // machine-readable contract CI diffs against.
  VerifyReport r;
  EXPECT_EQ(r.to_json(), "{\"ok\": true, \"violations\": []}");
  r.add(CheckId::PackSiteSlot, "say \"hi\"\n", 3, 7);
  r.add(CheckId::NetCycle, "loop");
  EXPECT_EQ(r.to_json(),
            "{\"ok\": false, \"violations\": ["
            "{\"check\": \"pack-site-slot\", \"node\": 3, \"slot\": 7, "
            "\"message\": \"say \\\"hi\\\"\\n\"}, "
            "{\"check\": \"net-cycle\", \"node\": null, \"slot\": null, "
            "\"message\": \"loop\"}]}");
}

// ---- values-layout positive coverage ---------------------------------------

TEST(ValuesLayout, CleanLayoutsPass) {
  EXPECT_TRUE(check_values_layout(NodeValues()).ok());  // default: empty
  const Netlist nl = make_benchmark("c880");
  auto plan = std::make_shared<EvalPlan>(nl);
  EXPECT_TRUE(check_values_layout(NodeValues(plan, 64)).ok());
  const NodeValues striped(plan, 4096);
  ASSERT_TRUE(striped.striped());
  EXPECT_TRUE(check_values_layout(striped).ok());
}

// ---- verify_or_throw / flow integration ------------------------------------

TEST(VerifyOrThrow, CarriesPhaseAndReport) {
  Netlist nl = two_gate();
  ++NetlistTestPeer::live_count(nl);
  try {
    verify_or_throw(nl, nullptr, "unit test");
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.phase(), "unit test");
    EXPECT_TRUE(e.report().has(CheckId::NetLiveCount));
    EXPECT_NE(std::string(e.what()).find("net-live-count"),
              std::string::npos);
  }
}

TEST(VerifyFlow, C6288SalvageCheckedBitIdentical) {
  // The acceptance run: salvage on the c6288-class multiplier with the
  // per-commit checkers (including the plan-equivalence diff) enabled must
  // produce the bit-identical result of the unchecked run — the hooks are
  // observers, not participants.
  const Netlist original = make_benchmark("c6288");
  const DefenderSuite suite =
      make_defender_suite(original, FlowOptions::atpg_only_defender());
  const PowerModel pm(CellLibrary::tsmc65_like());
  SalvageOptions sopt;
  sopt.pth = spec_for("c6288").pth;

  SalvageResult plain, checked;
  {
    CheckGuard off(0);
    FlowEngine engine(original, suite, pm);
    plain = engine.salvage(sopt);
  }
  {
    CheckGuard on(1);
    FlowEngine engine(original, suite, pm);
    checked = engine.salvage(sopt);  // throws VerifyError on any violation
  }
  EXPECT_EQ(plain.candidates, checked.candidates);
  EXPECT_EQ(plain.rejected, checked.rejected);
  EXPECT_EQ(plain.expendable_gates, checked.expendable_gates);
  ASSERT_EQ(plain.accepted.size(), checked.accepted.size());
  for (std::size_t i = 0; i < plain.accepted.size(); ++i) {
    EXPECT_EQ(plain.accepted[i].node_name, checked.accepted[i].node_name);
    EXPECT_EQ(plain.accepted[i].tie_value, checked.accepted[i].tie_value);
  }
  EXPECT_EQ(write_bench_string(plain.modified),
            write_bench_string(checked.modified));
}

TEST(VerifyFlow, C880CommitsAreChecked) {
  // c880 accepts removals under its Table I threshold, so this run proves
  // the commit hook actually fires on accepted ties (not just a no-op pass).
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(original, FlowOptions::atpg_only_defender());
  const PowerModel pm(CellLibrary::tsmc65_like());
  SalvageOptions sopt;
  sopt.pth = spec_for("c880").pth;
  CheckGuard on(1);
  FlowEngine engine(original, suite, pm);
  const SalvageResult r = engine.salvage(sopt);
  EXPECT_GT(r.accepted.size(), 0u);
  EXPECT_TRUE(NetlistChecker::run(r.modified).ok());
}

TEST(VerifyFlow, SalvageCommitRejectsUnreadGate) {
  // Salvage holds its netlist to the strict lint: tie_to_constant sweeps
  // only the tied gate's dead cone, so an input that already carries an
  // unread gate breaks its precondition and fails at the first commit.
  Netlist original = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(original, FlowOptions::atpg_only_defender());
  original.add_gate(GateType::And, "unread",
                    {original.inputs()[0], original.inputs()[1]});
  const PowerModel pm(CellLibrary::tsmc65_like());
  SalvageOptions sopt;
  sopt.pth = spec_for("c880").pth;
  CheckGuard on(1);
  FlowEngine engine(original, suite, pm);
  try {
    engine.salvage(sopt);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.phase(), "salvage commit");
    EXPECT_TRUE(e.report().has(CheckId::NetOrphan));
  }
}

}  // namespace
}  // namespace tz
