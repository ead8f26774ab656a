// Tests for the incremental FlowEngine layer: SuiteOracle equivalence with
// a full functional test on the reference evaluator and its
// combinational-host contract, PowerTracker parity with from-scratch
// analysis, and the dummy-balancing loop's cap discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow_engine.hpp"
#include "core/ht_library.hpp"
#include "core/insertion.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "netlist/rewrite.hpp"
#include "prob/signal_prob.hpp"
#include "sim/simulator.hpp"
#include "tech/power_tracker.hpp"
#include "testutil.hpp"

namespace tz {
namespace {

PowerModel model() { return PowerModel(CellLibrary::tsmc65_like()); }

TestGenOptions defender_defaults() { return FlowOptions::atpg_only_defender(); }

// ---- SuiteOracle -----------------------------------------------------------

TEST(SuiteOracle, TieVerdictMatchesFullFunctionalTest) {
  // For every Algorithm 1 candidate, the oracle's cone re-simulation must
  // agree with streaming the whole suite over the tied netlist.
  for (const char* name : {"c432", "c880"}) {
    const Netlist original = make_benchmark(name);
    const DefenderSuite suite = make_defender_suite(original, defender_defaults());
    const Netlist work = original.compact();
    const SignalProb sp(work);
    const auto cands = find_candidates(work, sp, spec_for(name).pth);
    ASSERT_FALSE(cands.empty());
    SuiteOracle oracle(work, suite);
    for (const Candidate& c : cands) {
      Netlist reference = work;
      tie_to_constant(reference, c.node, c.tie_value);
      const bool expect_visible =
          !test::reference_functional_test(reference, suite);
      EXPECT_EQ(oracle.tie_visible(c.node, c.tie_value), expect_visible)
          << name << " candidate " << work.node(c.node).name;
    }
  }
}

TEST(SuiteOracle, CommittedTiesKeepLaterVerdictsExact) {
  // Accepted ties must leave the cache describing the updated netlist, so a
  // later candidate in the same run is judged against the right baseline.
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  Netlist work = original.compact();
  const SignalProb sp(work);
  const auto cands = find_candidates(work, sp, 0.992);
  SuiteOracle oracle(work, suite);
  for (const Candidate& c : cands) {
    if (!work.is_alive(c.node)) continue;
    Netlist reference = work;
    tie_to_constant(reference, c.node, c.tie_value);
    const bool expect_visible =
        !test::reference_functional_test(reference, suite);
    ASSERT_EQ(!oracle.try_tie(work, c.node, c.tie_value), expect_visible);
  }
  EXPECT_TRUE(functional_test(work, suite));
}

TEST(SuiteOracle, CommittedTieFoldsMaskedRows) {
  // y = AND(XOR(AND(a, b), c), BUF(e)). Tying t = AND(a, b) to 0 moves m on
  // the one pattern with a = b = 1, where e = 0 masks it: invisible. Tying
  // d = BUF(e) to 1 next unmasks m there, so it is visible only if the
  // first commit folded m's moved row into the cache.
  Netlist nl;
  const std::vector<NodeId> in = test::add_inputs(nl, 4);  // a b c e
  const NodeId t = nl.add_gate(GateType::And, "t", {in[0], in[1]});
  const NodeId m = nl.add_gate(GateType::Xor, "m", {t, in[2]});
  const NodeId d = nl.add_gate(GateType::Buf, "d", {in[3]});
  nl.mark_output(nl.add_gate(GateType::And, "y", {m, d}));
  DefenderTestSet ts;
  ts.patterns = PatternSet(4, 0);
  for (const std::array<bool, 4>& p : {std::array{true, true, true, false},
                                       std::array{false, false, false, true},
                                       std::array{true, false, false, false}}) {
    ts.patterns.append(p);
  }
  ts.golden = BitSimulator(nl).outputs(ts.patterns);
  DefenderSuite suite;
  suite.algorithms.push_back(std::move(ts));
  SuiteOracle oracle(nl, suite);
  ASSERT_TRUE(oracle.try_tie(nl, t, false).has_value());
  Netlist reference = nl;
  tie_to_constant(reference, d, true);
  ASSERT_FALSE(test::reference_functional_test(reference, suite));
  EXPECT_FALSE(oracle.try_tie(nl, d, true).has_value());
}

TEST(SuiteOracle, TryTieRejectsForeignNetlist) {
  // The oracle's rows and plan describe the netlist it was built on; a tie
  // applied to any other netlist (even an identical copy) is refused before
  // either netlist or the cache changes.
  const Netlist original = make_benchmark("c17");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  Netlist work = original.compact();
  Netlist copy = work;
  SuiteOracle oracle(work, suite);
  const NodeId target = work.find("10");
  EXPECT_THROW(oracle.try_tie(copy, target, false), std::invalid_argument);
  EXPECT_TRUE(copy.is_alive(target));
  EXPECT_TRUE(work.is_alive(target));
  EXPECT_EQ(oracle.tie_visible(target, false),
            SuiteOracle(work, suite).tie_visible(target, false));
}

TEST(SuiteOracle, HtVerdictMatchesMaterializedFunctionalTest) {
  // The pre-materialisation replay (trigger AND + counter + masked payload
  // deviation) must agree with building the HT and streaming the suite on
  // the reference evaluator, for every payload location Algorithm 2 walks
  // on the flow circuits of EvalPlanFlow.SalvageAndInsertionMatchReference.
  struct Case {
    const char* name;
    double rare_p1;
  };
  const PowerModel pm = model();
  int visible = 0;
  int hidden = 0;
  for (const Case& c : {Case{"c880", 0.05}, Case{"c1908", 0.05},
                        Case{"c6288", 0.25}}) {
    const Netlist original = make_benchmark(c.name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const SalvageResult sal = salvage_power_area(
        original, suite, pm, {.pth = spec_for(c.name).pth});
    const Netlist& nprime = sal.modified;
    const auto rare = rare_net_list(nprime, SignalProb(nprime), c.rare_p1);
    const auto locations = payload_locations(nprime, 8);
    SuiteOracle oracle(nprime, suite);
    for (const TrojanDesc& desc :
         {counter_trojan(2), counter_trojan(3), counter_trojan(0, 2)}) {
      for (NodeId victim : locations) {
        const auto pool = trigger_pool(nprime, rare, victim);
        if (pool.size() < static_cast<std::size_t>(desc.trigger_width)) {
          continue;
        }
        Netlist reference = nprime;
        build_trojan(reference, desc, pool, victim);
        const bool expect_visible =
            !test::reference_functional_test(reference, suite);
        EXPECT_EQ(oracle.ht_visible(
                      std::span<const NodeId>(
                          pool.data(),
                          static_cast<std::size_t>(desc.trigger_width)),
                      desc.counter_bits, victim),
                  expect_visible)
            << c.name << " " << desc.name << " at "
            << nprime.node(victim).name;
        ++(expect_visible ? visible : hidden);
      }
    }
  }
  // Both verdicts occur (the visible ones on c6288, whose wider rare cut
  // admits triggers the suite fires).
  EXPECT_GT(visible, 0);
  EXPECT_GT(hidden, 0);
}

// The message of the std::invalid_argument `fn` throws ("" when it does
// not throw one).
template <class Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SuiteOracle, RejectsSequentialHostsAndMismatchedSuites) {
  // TrojanZero's hosts are combinational. A host with DFFs, or a suite
  // generated for another interface, is a caller error: the oracle and
  // every FlowEngine phase that builds one throw, and the message names the
  // case.
  const PowerModel pm = model();
  const Netlist c17 = make_benchmark("c17");
  const DefenderSuite suite = make_defender_suite(c17, defender_defaults());
  const DefenderSuite wide =
      make_defender_suite(make_benchmark("c432"), defender_defaults());
  // Same interface as c17, plus one register nobody reads.
  Netlist seq = c17;
  seq.add_gate(GateType::Dff, "q", {seq.outputs().front()});
  ASSERT_EQ(seq.inputs().size(), c17.inputs().size());
  ASSERT_EQ(seq.outputs().size(), c17.outputs().size());

  const auto dff = [](const std::string& msg) {
    return msg.find("DFF") != std::string::npos;
  };
  const auto width = [](const std::string& msg) {
    return msg.find("inputs") != std::string::npos;
  };
  EXPECT_TRUE(
      dff(invalid_argument_message([&] { SuiteOracle o(seq, suite); })));
  EXPECT_TRUE(
      width(invalid_argument_message([&] { SuiteOracle o(c17, wide); })));
  EXPECT_TRUE(dff(invalid_argument_message(
      [&] { FlowEngine(seq, suite, pm).salvage(); })));
  EXPECT_TRUE(width(invalid_argument_message(
      [&] { FlowEngine(c17, wide, pm).salvage(); })));
  const SalvageResult salvaged = FlowEngine(c17, suite, pm).salvage();
  EXPECT_TRUE(width(invalid_argument_message(
      [&] { FlowEngine(c17, wide, pm).insert(salvaged); })));
}

// ---- PowerTracker ----------------------------------------------------------

// Every row of `tracker` equals a from-scratch analyze of `nl`, and every
// live P1 equals the whole-netlist reference pass (as SignalProb's must),
// bit for bit.
void expect_tracker_exact(const PowerTracker& tracker, const Netlist& nl,
                          const PowerModel& pm) {
  const PowerBreakdown full = pm.analyze(nl);
  const PowerBreakdown inc = tracker.breakdown();
  EXPECT_EQ(inc.dynamic_uw, full.dynamic_uw);
  EXPECT_EQ(inc.leakage_uw, full.leakage_uw);
  EXPECT_EQ(inc.area_ge, full.area_ge);
  EXPECT_EQ(inc.totals.dynamic_uw, full.totals.dynamic_uw);
  EXPECT_EQ(inc.totals.leakage_uw, full.totals.leakage_uw);
  EXPECT_EQ(inc.totals.area_ge, full.totals.area_ge);
  const std::vector<double> want = test::reference_signal_prob(nl);
  EXPECT_EQ(SignalProb(nl).all_p1(), want);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (nl.is_alive(id)) {
      ASSERT_EQ(tracker.p1(id), want[id]) << nl.node(id).name;
    }
  }
}

// Resync `tracker` after an edit that appended the nodes from `size_before`
// on and changed the readers of `cap_changed`.
void resync_appended(PowerTracker& tracker, const Netlist& nl,
                     std::size_t size_before,
                     std::span<const NodeId> cap_changed) {
  std::vector<NodeId> fresh;
  for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size(); ++id) {
    fresh.push_back(id);
  }
  tracker.resync(fresh, cap_changed);
}

TEST(PowerTracker, MatchesAnalyzeThroughHtInsertionAndDummies) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  Netlist work = sal.modified;
  PowerTracker tracker(work, pm);
  expect_tracker_exact(tracker, work, pm);
  // Materialise a counter HT and resync: the tracker must agree with a
  // from-scratch analysis, counter DFFs included.
  const SignalProb sp(work);
  const auto locations = payload_locations(work, 4);
  ASSERT_FALSE(locations.empty());
  const NodeId victim = locations[0];
  const auto pool = trigger_pool(work, rare_net_list(work, sp, 0.05), victim);
  ASSERT_GE(pool.size(), 2u);
  const std::size_t size_before = work.raw_size();
  build_trojan(work, counter_trojan(3), pool, victim);
  std::vector<NodeId> cap_changed(pool.begin(), pool.begin() + 2);
  cap_changed.push_back(victim);
  resync_appended(tracker, work, size_before, cap_changed);
  expect_tracker_exact(tracker, work, pm);
  // And through a handful of dummy gates (tie-fed and PI-fed flavours).
  for (int k = 0; k < 4; ++k) {
    const std::size_t before = work.raw_size();
    const NodeId src =
        k % 2 ? work.const_node(false) : work.inputs()[k % work.inputs().size()];
    add_dummy_gate(work, src, k % 2 ? GateType::Nand : GateType::Buf, "tz_dummy");
    resync_appended(tracker, work, before, {{src}});
  }
  expect_tracker_exact(tracker, work, pm);
}

TEST(PowerTracker, CounterHtsMatchWholeNetlistReference) {
  // Counter HTs of 2, 3 and 4 bits built one after another into N' (so the
  // later ones land in a multi-DFF netlist). A transaction first retaps the
  // 2-bit HT's trigger onto two primary inputs, which moves the trigger's
  // P1 but stops at the counter's DFFs (they read their reset value), then
  // builds the 4-bit HT, and is rolled back.
  const PowerModel pm = model();
  for (const char* name : {"c880", "rand1k"}) {
    SCOPED_TRACE(name);
    const Netlist original = make_benchmark(name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    Netlist work =
        salvage_power_area(original, suite, pm, {.pth = 0.99}).modified;
    PowerTracker tracker(work, pm);
    // Victims and trigger pools come from N' itself, before any HT.
    const auto rare = rare_net_list(work, SignalProb(work), 0.05);
    const auto locations = payload_locations(work, 3);
    ASSERT_EQ(locations.size(), 3u);
    std::vector<std::vector<NodeId>> pools;
    for (NodeId victim : locations) {
      pools.push_back(trigger_pool(work, rare, victim));
      ASSERT_GE(pools.back().size(), 2u);
    }
    std::vector<InsertedHT> hts;
    const auto build = [&](int bits) {
      const NodeId victim = locations[hts.size()];
      const std::vector<NodeId>& pool = pools[hts.size()];
      const std::size_t size_before = work.raw_size();
      hts.push_back(build_trojan(work, counter_trojan(bits), pool, victim));
      std::vector<NodeId> cap_changed(pool.begin(), pool.begin() + 2);
      cap_changed.push_back(victim);
      resync_appended(tracker, work, size_before, cap_changed);
      expect_tracker_exact(tracker, work, pm);
    };
    build(2);
    build(3);
    ASSERT_EQ(work.dffs().size(), 5u);
    const Netlist saved = work;
    const NodeId trig = hts[0].trigger_in;
    const double trig_p1 = tracker.p1(trig);
    tracker.begin();
    const IdList& taps = work.node(trig).fanin;
    std::vector<NodeId> cap_changed(taps.begin(), taps.end());
    for (std::size_t k = 0; k < 2; ++k) {
      work.relink_fanin(trig, k, work.inputs()[k]);
      cap_changed.push_back(work.inputs()[k]);
    }
    const std::vector<NodeId> fresh{trig};
    tracker.resync(fresh, cap_changed);
    expect_tracker_exact(tracker, work, pm);
    ASSERT_NE(tracker.p1(trig), trig_p1);
    ASSERT_EQ(tracker.p1(hts[0].fire), 0.0);
    build(4);
    tracker.rollback();
    work = saved;
    expect_tracker_exact(tracker, work, pm);
  }
}

TEST(PowerTracker, RollbackRestoresRowsBitExact) {
  Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerTracker tracker(nl, pm);
  const PowerReport before = tracker.totals();
  tracker.begin();
  const std::size_t size_before = nl.raw_size();
  const NodeId src = nl.inputs()[0];
  add_dummy_gate(nl, src, GateType::Xor, "tz_dummy");
  std::vector<NodeId> fresh;
  for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size(); ++id) {
    fresh.push_back(id);
  }
  tracker.resync(fresh, {{src}});
  EXPECT_GT(tracker.totals().total_uw(), before.total_uw());
  tracker.rollback();
  for (NodeId id = static_cast<NodeId>(nl.raw_size()); id-- > size_before;) {
    if (nl.is_alive(id)) nl.remove_node(id);
  }
  const PowerReport after = tracker.totals();
  EXPECT_EQ(after.dynamic_uw, before.dynamic_uw);  // bit-exact, not NEAR
  EXPECT_EQ(after.leakage_uw, before.leakage_uw);
  EXPECT_EQ(after.area_ge, before.area_ge);
}

// ---- balance_with_dummies --------------------------------------------------

TEST(BalanceWithDummies, NeverExceedsAnyComponentCap) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const PowerReport threshold = pm.analyze(original).totals;
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  Netlist work = sal.modified;
  PowerTracker tracker(work, pm);
  const std::size_t added = balance_with_dummies(work, tracker, threshold);
  EXPECT_GT(added, 0u);
  const PowerReport p = pm.analyze(work).totals;
  EXPECT_LE(p.total_uw(), threshold.total_uw());
  EXPECT_LE(p.dynamic_uw, threshold.dynamic_uw);
  EXPECT_LE(p.leakage_uw, threshold.leakage_uw);
  EXPECT_LE(p.area_ge, threshold.area_ge);
  // Tracker stayed in sync through the whole loop.
  EXPECT_NEAR(tracker.totals().total_uw(), p.total_uw(), 1e-9);
}

TEST(BalanceWithDummies, PicksFlavourByDeficitShape) {
  const PowerModel pm = model();
  auto first_dummy_fed_by_tie = [&](const PowerReport& threshold) {
    Netlist nl = make_benchmark("c432");
    PowerTracker tracker(nl, pm);
    const std::size_t size_before = nl.raw_size();
    const std::size_t added = balance_with_dummies(nl, tracker, threshold);
    EXPECT_GT(added, 0u);
    for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size();
         ++id) {
      if (!nl.is_alive(id) || is_const(nl.node(id).type)) continue;
      return is_const(nl.node(nl.node(id).fanin[0]).type);
    }
    ADD_FAILURE() << "no dummy placed";
    return false;
  };
  const PowerReport base = pm.analyze(make_benchmark("c432")).totals;
  // Leakage-shaped deficit (dp == dl): tie-fed gates top up leakage without
  // burning the dynamic budget.
  PowerReport leak_shape = base;
  leak_shape.leakage_uw += 0.5;
  leak_shape.area_ge += 50.0;
  EXPECT_TRUE(first_dummy_fed_by_tie(leak_shape));
  // Dynamic-shaped deficit (dp >> dl): PI-fed gates burn switching power.
  // (A little leakage headroom is required — every cell leaks — but the
  // dominant gap is dynamic, so the PI-fed menu leads.)
  PowerReport dyn_shape = base;
  dyn_shape.dynamic_uw += 1.0;
  dyn_shape.leakage_uw += 0.1;
  dyn_shape.area_ge += 50.0;
  EXPECT_FALSE(first_dummy_fed_by_tie(dyn_shape));
}

// ---- Algorithm 2 cap regression (the headline bugfix) ----------------------

TEST(Insertion, SuccessImpliesComponentwisePowerCaps) {
  // The TrojanZero contract: N'' never exceeds N on total, dynamic or
  // leakage power, or area. The pre-fix code let leakage drift to 1.02x and
  // never checked dynamic at all.
  for (const char* name : {"c432", "c499", "c880", "c1908", "c3540"}) {
    const FlowResult r = run_trojanzero_flow(name);
    ASSERT_TRUE(r.insertion.success) << name;
    const PowerReport& p = r.insertion.power;
    const PowerReport& t = r.insertion.threshold;
    EXPECT_LE(p.total_uw(), t.total_uw()) << name;
    EXPECT_LE(p.dynamic_uw, t.dynamic_uw) << name;
    EXPECT_LE(p.leakage_uw, t.leakage_uw) << name;
    EXPECT_LE(p.area_ge, t.area_ge) << name;
  }
}

// ---- trigger pool invariants after the rewrite -----------------------------

TEST(TriggerPool, RareListFilterMatchesAndStaysLoopFree) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  const Netlist& nprime = sal.modified;
  const SignalProb sp(nprime);
  const auto rare = rare_net_list(nprime, sp, 0.05);
  ASSERT_FALSE(rare.empty());
  for (std::size_t i = 1; i < rare.size(); ++i) {
    EXPECT_LE(sp.p1(rare[i - 1]), sp.p1(rare[i]));
  }
  for (NodeId victim : payload_locations(nprime, 8)) {
    const auto mask = downstream_mask(nprime, victim);
    const auto pool = trigger_pool(nprime, rare, victim);
    // Never a net in the victim's transitive fanout (loop freedom)...
    for (NodeId p : pool) EXPECT_FALSE(mask[p]);
    // ...and exactly the rare list minus the masked nets, order preserved.
    std::vector<NodeId> expect;
    for (NodeId id : rare) {
      if (!mask[id]) expect.push_back(id);
    }
    EXPECT_EQ(pool, expect);
  }
}

// ---- parallel candidate scans: bit-identical to the sequential engine ------

void expect_same_salvage(const SalvageResult& a, const SalvageResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
  EXPECT_EQ(a.expendable_gates, b.expendable_gates) << label;
  ASSERT_EQ(a.accepted.size(), b.accepted.size()) << label;
  for (std::size_t i = 0; i < a.accepted.size(); ++i) {
    EXPECT_EQ(a.accepted[i].node_name, b.accepted[i].node_name) << label;
    EXPECT_EQ(a.accepted[i].tie_value, b.accepted[i].tie_value) << label;
    EXPECT_EQ(a.accepted[i].probability, b.accepted[i].probability) << label;
    EXPECT_EQ(a.accepted[i].gates_removed, b.accepted[i].gates_removed)
        << label;
  }
  // Reported power must be bit-identical, not merely close.
  EXPECT_EQ(a.power_after.dynamic_uw, b.power_after.dynamic_uw) << label;
  EXPECT_EQ(a.power_after.leakage_uw, b.power_after.leakage_uw) << label;
  EXPECT_EQ(a.power_after.area_ge, b.power_after.area_ge) << label;
}

void expect_same_insertion(const InsertionResult& a, const InsertionResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.ht_name, b.ht_name) << label;
  EXPECT_EQ(a.victim_name, b.victim_name) << label;
  EXPECT_EQ(a.dummy_gates, b.dummy_gates) << label;
  EXPECT_EQ(a.tried_hts, b.tried_hts) << label;
  EXPECT_EQ(a.tried_locations, b.tried_locations) << label;
  EXPECT_EQ(a.fail_build, b.fail_build) << label;
  EXPECT_EQ(a.fail_test, b.fail_test) << label;
  EXPECT_EQ(a.fail_caps, b.fail_caps) << label;
  EXPECT_EQ(a.trigger_p1, b.trigger_p1) << label;
  EXPECT_EQ(a.power.dynamic_uw, b.power.dynamic_uw) << label;
  EXPECT_EQ(a.power.leakage_uw, b.power.leakage_uw) << label;
  EXPECT_EQ(a.power.area_ge, b.power.area_ge) << label;
  if (a.success && b.success) {
    EXPECT_EQ(a.infected.live_count(), b.infected.live_count()) << label;
    EXPECT_EQ(a.infected.gate_count(), b.infected.gate_count()) << label;
  }
}

TEST(ThreadsOption, IgnoredBySalvageAndInsertion) {
  // SalvageOptions::threads and InsertionOptions::threads are no-ops: both
  // scans are one sequential walk, so accepted candidates, HT/victim/dummy
  // choices and reported power are the same at threads {1, 2, 8}. c6288 is
  // the >2k-gate array-multiplier stress (rare cut relaxed as in the bench,
  // so the trigger search walks a real pool).
  struct Case {
    const char* name;
    double rare_p1;
    std::vector<TrojanDesc> library;
  };
  const Case cases[] = {
      {"c880", 0.05, {}},
      {"c1908", 0.05, {}},
      {"c6288", 0.25, {counter_trojan(5), counter_trojan(3)}},
  };
  for (const Case& c : cases) {
    const Netlist original = make_benchmark(c.name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const PowerModel pm = model();
    SalvageOptions sopt;
    sopt.pth = spec_for(c.name).pth;
    InsertionOptions iopt;
    iopt.rare_p1 = c.rare_p1;
    iopt.library = c.library;

    sopt.threads = 1;
    iopt.threads = 1;
    const SalvageResult s1 = salvage_power_area(original, suite, pm, sopt);
    const InsertionResult r1 = insert_trojan(original, s1, suite, pm, iopt);

    for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(t);
      sopt.threads = t;
      iopt.threads = t;
      const SalvageResult st = salvage_power_area(original, suite, pm, sopt);
      expect_same_salvage(s1, st, label);
      const InsertionResult rt = insert_trojan(original, st, suite, pm, iopt);
      expect_same_insertion(r1, rt, label);
    }
  }
}

// Algorithm 1 replayed naively on the reference evaluator: visit the
// candidates in the flow's order, tie each on a copy and keep the tie iff
// the whole suite still passes.
struct ReferenceSalvage {
  std::vector<std::string> accepted;  ///< Accepted node names, in order.
  std::size_t rejected = 0;
};
ReferenceSalvage reference_salvage(const Netlist& original,
                                   const DefenderSuite& suite, double pth) {
  Netlist work = original.compact();
  const SignalProb sp(work);
  ReferenceSalvage out;
  for (const Candidate& c : find_candidates(work, sp, pth)) {
    if (!work.is_alive(c.node)) continue;
    Netlist trial = work;
    tie_to_constant(trial, c.node, c.tie_value);
    if (!test::reference_functional_test(trial, suite)) {
      ++out.rejected;
      continue;
    }
    out.accepted.push_back(work.node(c.node).name);
    work = std::move(trial);
  }
  return out;
}

// Algorithm 2 replayed naively on the reference evaluator: walk the HTs and
// payload locations in the flow's order, build each HT on a fresh copy of
// N', and take the first one the whole suite misses and that fits the caps
// of a from-scratch power analysis.
struct ReferenceInsertion {
  bool success = false;
  std::string ht_name;
  std::string victim_name;
  int tried_hts = 0;
  int tried_locations = 0;
  int fail_build = 0;
  int fail_test = 0;
  int fail_caps = 0;
};
ReferenceInsertion reference_insertion(const Netlist& original,
                                       const Netlist& salvaged,
                                       const DefenderSuite& suite,
                                       const PowerModel& pm,
                                       const InsertionOptions& opt) {
  const PowerReport threshold = pm.analyze(original).totals;
  const std::vector<NodeId> rare =
      rare_net_list(salvaged, SignalProb(salvaged), opt.rare_p1);
  const std::vector<NodeId> locations =
      payload_locations(salvaged, kMaxPayloadLocations);
  ReferenceInsertion out;
  for (const TrojanDesc& desc :
       opt.library.empty() ? default_ht_library() : opt.library) {
    ++out.tried_hts;
    for (const NodeId victim : locations) {
      ++out.tried_locations;
      const std::vector<NodeId> pool = trigger_pool(salvaged, rare, victim);
      if (pool.size() < static_cast<std::size_t>(desc.trigger_width)) {
        ++out.fail_build;
        continue;
      }
      Netlist trial = salvaged;
      try {
        build_trojan(trial, desc, pool, victim);
      } catch (const std::exception&) {
        ++out.fail_build;
        continue;
      }
      if (!test::reference_functional_test(trial, suite)) {
        ++out.fail_test;
        continue;
      }
      const PowerReport p = pm.analyze(trial).totals;
      if (p.total_uw() > threshold.total_uw() ||
          p.dynamic_uw > threshold.dynamic_uw ||
          p.leakage_uw > threshold.leakage_uw ||
          p.area_ge > threshold.area_ge) {
        ++out.fail_caps;
        continue;
      }
      out.success = true;
      out.ht_name = desc.name;
      out.victim_name = salvaged.node(victim).name;
      return out;
    }
  }
  return out;
}

TEST(EvalPlanFlow, SalvageAndInsertionMatchReference) {
  // The compiled-plan engines against the reference evaluator: Algorithm 1
  // must accept exactly the ties a naive apply-and-retest replay accepts,
  // and Algorithm 2 must make the choices (HT, victim, rejection counts) a
  // naive build-and-retest replay makes, with an N'' that passes the suite
  // on the reference evaluator.
  struct Case {
    const char* name;
    double rare_p1;
    std::vector<TrojanDesc> library;
    bool inserts;  ///< Expected Algorithm 2 outcome.
  };
  const Case cases[] = {
      {"c880", 0.05, {}, true},
      {"c1908", 0.05, {}, true},
      // Every c6288 placement passes the suite but breaks a power/area cap.
      {"c6288", 0.25, {counter_trojan(5), counter_trojan(3)}, false},
  };
  for (const Case& c : cases) {
    const Netlist original = make_benchmark(c.name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const PowerModel pm = model();
    SalvageOptions sopt;
    sopt.pth = spec_for(c.name).pth;
    InsertionOptions iopt;
    iopt.rare_p1 = c.rare_p1;
    iopt.library = c.library;

    const SalvageResult s = salvage_power_area(original, suite, pm, sopt);
    std::vector<std::string> accepted;
    for (const SalvageRecord& rec : s.accepted) {
      accepted.push_back(rec.node_name);
    }
    const ReferenceSalvage ref = reference_salvage(original, suite, sopt.pth);
    EXPECT_EQ(accepted, ref.accepted) << c.name;
    EXPECT_EQ(s.rejected, ref.rejected) << c.name;
    EXPECT_TRUE(test::reference_functional_test(s.modified, suite)) << c.name;
    const InsertionResult r = insert_trojan(original, s, suite, pm, iopt);
    const ReferenceInsertion ri =
        reference_insertion(original, s.modified, suite, pm, iopt);
    ASSERT_EQ(ri.success, c.inserts) << c.name;
    ASSERT_EQ(r.success, c.inserts) << c.name;
    EXPECT_EQ(r.ht_name, ri.ht_name) << c.name;
    EXPECT_EQ(r.victim_name, ri.victim_name) << c.name;
    EXPECT_EQ(r.tried_hts, ri.tried_hts) << c.name;
    EXPECT_EQ(r.tried_locations, ri.tried_locations) << c.name;
    EXPECT_EQ(r.fail_build, ri.fail_build) << c.name;
    EXPECT_EQ(r.fail_test, ri.fail_test) << c.name;
    EXPECT_EQ(r.fail_caps, ri.fail_caps) << c.name;
    if (r.success) {
      EXPECT_TRUE(test::reference_functional_test(r.infected, suite))
          << c.name;
    }
  }
}

TEST(EvalPlanFlow, FaultBackendBitIdenticalThroughFlow) {
  // The fault-simulation backend must be invisible end to end: the defender
  // suite ATPG generates and every downstream flow verdict (accepted ties,
  // HT/victim choices, power numbers) are bit-identical across Event and
  // Packed.
  const Netlist original = make_benchmark("c880");
  const PowerModel pm = model();
  SalvageOptions sopt;
  sopt.pth = spec_for("c880").pth;
  InsertionOptions iopt;
  iopt.rare_p1 = 0.05;

  const auto expect_same_suite = [](const DefenderSuite& a,
                                    const DefenderSuite& b,
                                    const std::string& label) {
    ASSERT_EQ(a.algorithms.size(), b.algorithms.size()) << label;
    for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
      EXPECT_TRUE(BitSimulator::responses_equal(a.algorithms[i].patterns,
                                                b.algorithms[i].patterns))
          << label << " algorithm " << a.algorithms[i].name;
      EXPECT_TRUE(BitSimulator::responses_equal(a.algorithms[i].golden,
                                                b.algorithms[i].golden))
          << label << " algorithm " << a.algorithms[i].name;
    }
  };

  // Baseline: event backend. Its golden responses are held to the reference
  // evaluator.
  DefenderSuite base_suite;
  SalvageResult s_base;
  InsertionResult r_base;
  {
    const test::FaultModeGuard event(1);
    base_suite = make_defender_suite(original, defender_defaults());
    for (const DefenderTestSet& ts : base_suite.algorithms) {
      EXPECT_TRUE(BitSimulator::responses_equal(
          ts.golden, reference_outputs(original, ts.patterns)))
          << ts.name;
    }
    s_base = salvage_power_area(original, base_suite, pm, sopt);
    r_base = insert_trojan(original, s_base, base_suite, pm, iopt);
  }

  const test::FaultModeGuard packed(2);
  const DefenderSuite suite =
      make_defender_suite(original, defender_defaults());
  expect_same_suite(suite, base_suite, "packed");
  const SalvageResult sp = salvage_power_area(original, suite, pm, sopt);
  expect_same_salvage(s_base, sp, "packed");
  const InsertionResult rp = insert_trojan(original, sp, suite, pm, iopt);
  expect_same_insertion(r_base, rp, "packed");
}

TEST(EvalPlanFlow, HundredKGateMatchesReference) {
  // The 100k-gate scale proof for the compiled-plan engines on a generated
  // circuit: a fixed random DAG ("rand100k", 100,000 gates) with a bounded
  // random defender suite (full ATPG is out of the tier-1 budget at this
  // size). Three layers, each held to the Node-walking reference evaluator:
  //  1. raw simulation: primary-output responses at a row width wide enough
  //     that the plan path goes stripe-major;
  //  2. a bounded Algorithm 1 walk (first 32 invisible ties, committed
  //     through the oracle's incremental plan patch): every verdict must
  //     match applying the tie and re-testing on the reference evaluator;
  //  3. Algorithm 2 into that salvaged slack must place an HT whose N''
  //     passes the suite on the reference evaluator.
  const Netlist nl = make_benchmark("rand100k");
  ASSERT_EQ(nl.gate_count(), 100000u);
  DefenderSuite suite;
  {
    DefenderTestSet ts;
    ts.name = "random";
    ts.patterns = random_patterns(nl.inputs().size(), 256, 11);
    ts.golden = BitSimulator(nl).outputs(ts.patterns);
    suite.algorithms.push_back(std::move(ts));
  }

  // Layer 1: outputs at 6400 patterns (100 words) — block_words splits this
  // width at 100k slots, so the plan run is genuinely stripe-major.
  const PatternSet wide = random_patterns(nl.inputs().size(), 6400, 3);
  {
    BitSimulator sim(nl);
    ASSERT_LT(sim.plan()->block_words(wide.num_words()), wide.num_words());
    ASSERT_TRUE(BitSimulator::responses_equal(
        reference_outputs(nl, wide), sim.outputs(wide)));
  }

  // Layer 2: bounded salvage walk, every verdict checked on the reference.
  Netlist work = nl;
  {
    const SignalProb sp(work);
    const auto cands = find_candidates(work, sp, 0.99999999);
    SuiteOracle oracle(work, suite);
    std::size_t accepted = 0;
    for (const Candidate& c : cands) {
      if (accepted >= 32) break;
      if (!work.is_alive(c.node)) continue;
      Netlist trial = work;
      tie_to_constant(trial, c.node, c.tie_value);
      const bool expect_visible = !test::reference_functional_test(trial, suite);
      const std::string name = work.node(c.node).name;
      const bool visible = !oracle.try_tie(work, c.node, c.tie_value);
      ASSERT_EQ(visible, expect_visible) << name;
      if (!visible) ++accepted;
    }
    ASSERT_GE(accepted, 16u);
  }
  work.sweep_dead_gates();

  // Layer 3: insertion into the salvaged slack.
  SalvageResult sr;
  sr.modified = work.compact();
  const PowerModel pm = model();
  InsertionOptions iopt;
  iopt.rare_p1 = 0.05;
  iopt.library = {counter_trojan(3), counter_trojan(2)};
  const InsertionResult r = insert_trojan(nl, sr, suite, pm, iopt);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(test::reference_functional_test(r.infected, suite));
}

// ---- consolidated collision-avoidance naming -------------------------------

TEST(UniqueName, SharedSchemeHandlesCollisions) {
  Netlist nl("names");
  const NodeId a = nl.add_input("g");
  EXPECT_EQ(nl.unique_name("h"), "h");
  EXPECT_EQ(nl.unique_name("g"), "g_1");
  nl.add_gate(GateType::Not, "g_1", {a});
  EXPECT_EQ(nl.unique_name("g"), "g_2");
  // build_trojan and add_dummy_gate derive names through the same utility:
  // pre-existing collisions must not throw.
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist tb = test::payload_testbed(&victim, &rare);
  tb.add_gate(GateType::Not, "ht_payload", {tb.inputs()[0]});
  tb.mark_output(tb.find("ht_payload"));
  const InsertedHT ht = build_trojan(tb, counter_trojan(2, 2), rare, victim);
  EXPECT_EQ(tb.node(ht.payload_mux).name, "ht_payload_1");
  const NodeId d1 = add_dummy_gate(tb, tb.inputs()[0], GateType::Buf, "dmy");
  const NodeId d2 = add_dummy_gate(tb, tb.inputs()[0], GateType::Buf, "dmy");
  EXPECT_EQ(tb.node(d1).name, "dmy");
  EXPECT_EQ(tb.node(d2).name, "dmy_1");
}

}  // namespace
}  // namespace tz
