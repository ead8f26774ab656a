// Unit tests for the netlist IR.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen/iscas.hpp"
#include "netlist/netlist.hpp"
#include "testutil.hpp"
#include "verify/verify.hpp"

namespace tz {
namespace {

using test::two_gate;

TEST(GateType, RoundTripStrings) {
  for (int i = 0; i < kGateTypeCount; ++i) {
    const auto t = static_cast<GateType>(i);
    const auto parsed = gate_type_from_string(to_string(t));
    ASSERT_TRUE(parsed.has_value()) << to_string(t);
    EXPECT_EQ(*parsed, t);
  }
}

TEST(GateType, ParseIsCaseInsensitive) {
  EXPECT_EQ(gate_type_from_string("nand"), GateType::Nand);
  EXPECT_EQ(gate_type_from_string("NaNd"), GateType::Nand);
  EXPECT_EQ(gate_type_from_string("BUFF"), GateType::Buf);
}

TEST(GateType, UnknownMnemonicRejected) {
  EXPECT_FALSE(gate_type_from_string("FROB").has_value());
  EXPECT_FALSE(gate_type_from_string("").has_value());
}

TEST(GateType, Classification) {
  EXPECT_TRUE(is_source(GateType::Input));
  EXPECT_TRUE(is_source(GateType::Const0));
  EXPECT_TRUE(is_const(GateType::Const1));
  EXPECT_FALSE(is_const(GateType::Input));
  EXPECT_TRUE(is_sequential(GateType::Dff));
  EXPECT_TRUE(is_combinational(GateType::Nand));
  EXPECT_FALSE(is_combinational(GateType::Dff));
  EXPECT_FALSE(is_combinational(GateType::Input));
}

TEST(Netlist, BuildAndQuery) {
  Netlist nl = two_gate();
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.live_count(), 4u);
  EXPECT_NE(nl.find("g"), kNoNode);
  EXPECT_EQ(nl.find("nope"), kNoNode);
  EXPECT_TRUE(nl.is_output(nl.find("h")));
  EXPECT_FALSE(nl.is_output(nl.find("g")));
  nl.check();
}

TEST(Netlist, DuplicateNameThrows) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::runtime_error);
  EXPECT_THROW(nl.add_gate(GateType::Not, "a", {nl.find("a")}),
               std::runtime_error);
}

TEST(Netlist, ArityChecked) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::And, "g", {a}), std::runtime_error);
  EXPECT_THROW(nl.add_gate(GateType::Not, "g", {a, a}), std::runtime_error);
  EXPECT_THROW(nl.add_gate(GateType::Mux, "g", {a, a}), std::runtime_error);
  EXPECT_NO_THROW(nl.add_gate(GateType::Mux, "m", {a, a, a}));
}

TEST(Netlist, FanoutTracksFanin) {
  Netlist nl = two_gate();
  const NodeId a = nl.find("a");
  const NodeId g = nl.find("g");
  ASSERT_EQ(nl.node(a).fanout.size(), 1u);
  EXPECT_EQ(nl.node(a).fanout[0], g);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl = two_gate();
  const auto order = nl.topo_order();
  EXPECT_EQ(order.size(), nl.live_count());
  std::vector<int> pos(nl.raw_size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = int(i);
  for (NodeId id : order) {
    for (NodeId f : nl.node(id).fanin) {
      if (!is_sequential(nl.node(id).type)) {
        EXPECT_LT(pos[f], pos[id]);
      }
    }
  }
}

TEST(Netlist, RemoveNodeRequiresNoReaders) {
  Netlist nl = two_gate();
  EXPECT_THROW(nl.remove_node(nl.find("g")), std::runtime_error);
  const NodeId h = nl.find("h");
  EXPECT_THROW(nl.remove_node(h), std::runtime_error);  // primary output
}

TEST(Netlist, RewireAndRemove) {
  Netlist nl = two_gate();
  const NodeId g = nl.find("g");
  const NodeId tie = nl.const_node(false);
  nl.rewire_and_remove(g, tie);
  EXPECT_EQ(nl.find("g"), kNoNode);
  const NodeId h = nl.find("h");
  EXPECT_EQ(nl.node(h).fanin[0], tie);
  nl.check();
}

TEST(Netlist, SweepRemovesDeadCone) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::And, "g1", {a, b});
  const NodeId g2 = nl.add_gate(GateType::Or, "g2", {g1, a});
  (void)g2;  // g2 is unused and not an output: whole cone dies
  const NodeId keep = nl.add_gate(GateType::Not, "keep", {a});
  nl.mark_output(keep);
  EXPECT_EQ(nl.sweep_dead_gates(), 2u);
  EXPECT_EQ(nl.find("g1"), kNoNode);
  EXPECT_EQ(nl.find("g2"), kNoNode);
  EXPECT_NE(nl.find("keep"), kNoNode);
  EXPECT_EQ(nl.inputs().size(), 2u);  // PIs always survive
  nl.check();
}

TEST(Netlist, ConstNodeIsCached) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c0 = nl.const_node(false);
  EXPECT_EQ(nl.const_node(false), c0);
  EXPECT_NE(nl.const_node(true), c0);
}

TEST(Netlist, ReplaceUsesMovesOutputs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  const NodeId h = nl.add_gate(GateType::Buf, "h", {a});
  nl.mark_output(g);
  nl.replace_uses(g, h);
  EXPECT_TRUE(nl.is_output(h));
  EXPECT_FALSE(nl.is_output(g));
}

TEST(Netlist, RelinkFanin) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Not, "g", {a});
  nl.relink_fanin(g, 0, b);
  EXPECT_EQ(nl.node(g).fanin[0], b);
  EXPECT_TRUE(nl.node(a).fanout.empty());
  ASSERT_EQ(nl.node(b).fanout.size(), 1u);
  nl.check();
}

TEST(Netlist, CompactRenumbersDensely) {
  Netlist nl = two_gate();
  const NodeId tie = nl.const_node(true);
  nl.rewire_and_remove(nl.find("g"), tie);
  const Netlist packed = nl.compact();
  EXPECT_EQ(packed.live_count(), packed.raw_size());
  EXPECT_EQ(packed.live_count(), nl.live_count());
  EXPECT_NE(packed.find("h"), kNoNode);
  EXPECT_EQ(packed.outputs().size(), 1u);
  packed.check();
}

TEST(Netlist, CompactPreservesDffs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_gate(GateType::Dff, "q", {a});
  const NodeId x = nl.add_gate(GateType::Xor, "x", {q, a});
  nl.mark_output(x);
  const Netlist packed = nl.compact();
  ASSERT_EQ(packed.dffs().size(), 1u);
  EXPECT_EQ(packed.node(packed.dffs()[0]).name, "q");
  packed.check();
}

TEST(Netlist, DffBreaksCycles) {
  Netlist nl;
  const NodeId a = nl.add_input("en");
  const NodeId tie = nl.const_node(false);
  const NodeId q = nl.add_gate(GateType::Dff, "q", {tie});
  const NodeId d = nl.add_gate(GateType::Xor, "d", {q, a});
  nl.relink_fanin(q, 0, d);  // q <- d <- q: sequential loop, fine
  nl.sweep_dead_gates();
  nl.mark_output(d);
  EXPECT_NO_THROW(nl.topo_order());
  nl.check();
}

TEST(Netlist, DepthsIncreaseAlongPaths) {
  Netlist nl = two_gate();
  const auto d = nl.depths();
  EXPECT_EQ(d[nl.find("a")], 0);
  EXPECT_EQ(d[nl.find("g")], 1);
  EXPECT_EQ(d[nl.find("h")], 2);
}

TEST(Netlist, FaninCone) {
  Netlist nl = two_gate();
  const NodeId h = nl.find("h");
  const auto cone = nl.fanin_cone(std::vector<NodeId>{h});
  EXPECT_EQ(cone.size(), 4u);  // h, g, a, b
}

TEST(Netlist, TypeHistogram) {
  Netlist nl = two_gate();
  const auto h = nl.type_histogram();
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::Input)], 2u);
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::And)], 1u);
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::Not)], 1u);
}

TEST(Netlist, RetypeChecksArityAndClass) {
  Netlist nl = two_gate();
  const NodeId g = nl.find("g");
  nl.retype(g, GateType::Or);
  EXPECT_EQ(nl.node(g).type, GateType::Or);
  EXPECT_THROW(nl.retype(g, GateType::Not), std::runtime_error);   // arity
  EXPECT_THROW(nl.retype(g, GateType::Dff), std::runtime_error);   // class
}


// ---- IdList: two ids inline, heap beyond ----------------------------------

void expect_same(const IdList& got, const std::vector<NodeId>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.empty(), want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want);
}

TEST(IdList, SpillsToHeapAtThirdId) {
  IdList l;
  EXPECT_EQ(l.capacity(), IdList::kInline);
  l.push_back(7);
  l.push_back(8);
  EXPECT_EQ(l.capacity(), IdList::kInline);
  const NodeId* inline_data = l.data();
  l.push_back(9);
  EXPECT_GT(l.capacity(), IdList::kInline);
  EXPECT_NE(l.data(), inline_data);
  expect_same(l, {7, 8, 9});
  for (NodeId i = 10; i < 40; ++i) l.push_back(i);
  EXPECT_EQ(l.size(), 33u);
  EXPECT_EQ(l.front(), 7u);
  EXPECT_EQ(l.back(), 39u);
}

TEST(IdList, EditsAcrossInlineBoundary) {
  // Every edit is mirrored on a std::vector, starting from each size around
  // the spill point.
  for (std::size_t n = 0; n <= 5; ++n) {
    std::vector<NodeId> ref(n);
    for (std::size_t i = 0; i < n; ++i) ref[i] = static_cast<NodeId>(10 * i);
    IdList l;
    l.assign(ref.begin(), ref.end());
    expect_same(l, ref);

    // insert at the front, the middle and the end
    for (const std::size_t at : {std::size_t{0}, ref.size() / 2, ref.size()}) {
      IdList li = l;
      std::vector<NodeId> ri = ref;
      const auto it = li.insert(li.begin() + at, 99);
      ri.insert(ri.begin() + static_cast<std::ptrdiff_t>(at), 99);
      EXPECT_EQ(*it, 99u);
      EXPECT_EQ(it - li.begin(), static_cast<std::ptrdiff_t>(at));
      expect_same(li, ri);
    }
    // erase one id at each position, then a range down to one id
    for (std::size_t at = 0; at < ref.size(); ++at) {
      IdList le = l;
      std::vector<NodeId> re = ref;
      le.erase(le.begin() + at);
      re.erase(re.begin() + static_cast<std::ptrdiff_t>(at));
      expect_same(le, re);
    }
    if (n > 1) {
      IdList le = l;
      le.erase(le.begin() + 1, le.end());
      expect_same(le, {ref[0]});
    }
    // resize up past the boundary (zero fill, like std::vector) and back
    for (const std::size_t to : {0, 1, 2, 3, 6}) {
      IdList lr = l;
      std::vector<NodeId> rr = ref;
      lr.resize(to);
      rr.resize(to);
      expect_same(lr, rr);
    }
    // assign over a list of another size
    IdList la = l;
    la.assign(ref.rbegin(), ref.rend());
    expect_same(la, std::vector<NodeId>(ref.rbegin(), ref.rend()));
    const std::vector<NodeId> five{1, 2, 3, 4, 5};
    la.assign(five.begin(), five.end());
    expect_same(la, five);
    la.assign(five.begin(), five.begin() + 1);
    expect_same(la, {1});
    la.pop_back();
    EXPECT_TRUE(la.empty());
  }
}

TEST(IdList, CopyAndMoveInlineAndSpilled) {
  for (const std::vector<NodeId>& ids :
       {std::vector<NodeId>{}, std::vector<NodeId>{4},
        std::vector<NodeId>{4, 5}, std::vector<NodeId>{4, 5, 6, 7, 8}}) {
    IdList src;
    src.assign(ids.begin(), ids.end());

    IdList copy(src);
    expect_same(copy, ids);
    if (!ids.empty()) {
      EXPECT_NE(copy.data(), src.data());  // deep copy, even when spilled
      copy[0] = 100;
      EXPECT_EQ(src[0], ids[0]);
    }

    IdList assigned{1, 2, 3};  // spilled target
    assigned = src;
    expect_same(assigned, ids);
    IdList small{1};  // inline target
    small = src;
    expect_same(small, ids);

    IdList moved_from = src;
    const NodeId* heap = moved_from.data();
    IdList moved(std::move(moved_from));
    expect_same(moved, ids);
    if (ids.size() > IdList::kInline) {
      EXPECT_EQ(moved.data(), heap);  // the buffer changed hands
    }
    EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved_from.capacity(), IdList::kInline);
    moved_from.push_back(3);  // still usable
    expect_same(moved_from, {3});

    IdList target{9, 9, 9, 9};
    target = std::move(moved);
    expect_same(target, ids);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    IdList& self = target;
    target = self;
    expect_same(target, ids);
  }
}

std::size_t span_size(std::span<const NodeId> s) { return s.size(); }

TEST(IdList, EqualityAndSpanView) {
  IdList a{1, 2};
  IdList b{1, 2, 3};
  EXPECT_FALSE(a == b);
  b.pop_back();  // spilled capacity, same contents
  EXPECT_GT(b.capacity(), a.capacity());
  EXPECT_TRUE(a == b);
  b[1] = 5;
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(IdList{} == IdList{});

  const std::span<const NodeId> view = b;
  EXPECT_EQ(view.data(), b.data());
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view[1], 5u);
  IdList big{1, 2, 3, 4};
  EXPECT_EQ(span_size(big), 4u);
  EXPECT_EQ(std::span<const NodeId>(big).back(), 4u);
}

TEST(IdList, NodeLayoutStaysSmall) {
  EXPECT_EQ(sizeof(IdList), 16u);
  EXPECT_LE(sizeof(Node), 80u);
}

// ---- flat name index ------------------------------------------------------

using NameMap = std::unordered_map<std::string, NodeId>;

/// unique_name computed from the reference map alone.
std::string ref_unique(const NameMap& ref, const std::string& base) {
  if (!ref.contains(base)) return base;
  for (int k = 1;; ++k) {
    std::string name = base + "_" + std::to_string(k);
    if (!ref.contains(name)) return name;
  }
}

/// The index against the reference: every live name found at its id, every
/// dead name that was not retaken absent, and the same live count.
void expect_index_matches(const Netlist& nl, const NameMap& ref) {
  ASSERT_EQ(nl.live_count(), ref.size());
  for (const auto& [name, id] : ref) {
    ASSERT_EQ(nl.find(name), id) << name;
  }
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (n.dead && !ref.contains(n.name)) {
      ASSERT_EQ(nl.find(n.name), kNoNode) << "dead " << n.name;
    }
  }
}

/// compact() renumbers ids but keeps every live name, type and fanin (by
/// name), and no dead name.
void expect_compact_keeps_names(const Netlist& nl, const NameMap& ref) {
  const Netlist c = nl.compact();
  ASSERT_EQ(c.live_count(), ref.size());
  for (const auto& [name, id] : ref) {
    const NodeId cid = c.find(name);
    ASSERT_NE(cid, kNoNode) << name;
    EXPECT_EQ(c.node(cid).name, name);
    EXPECT_EQ(c.node(cid).type, nl.node(id).type) << name;
    ASSERT_EQ(c.node(cid).fanin.size(), nl.node(id).fanin.size()) << name;
    for (std::size_t k = 0; k < c.node(cid).fanin.size(); ++k) {
      EXPECT_EQ(c.node(c.node(cid).fanin[k]).name,
                nl.node(nl.node(id).fanin[k]).name);
    }
  }
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    if (nl.node(i).dead && !ref.contains(nl.node(i).name)) {
      EXPECT_EQ(c.find(nl.node(i).name), kNoNode) << nl.node(i).name;
    }
  }
}

void run_name_index_sequence(const std::string& circuit, std::uint64_t seed) {
  SCOPED_TRACE(circuit);
  Netlist nl = make_benchmark(circuit);
  NameMap ref;
  for (const NodeId id : nl.live_nodes()) ref.emplace(nl.node(id).name, id);
  expect_index_matches(nl, ref);

  std::mt19937_64 rng(seed);
  auto pick = [&](const std::vector<NodeId>& v) { return v[rng() % v.size()]; };
  std::vector<NodeId> removed;  // restore_node undoes these LIFO
  std::vector<std::string> dead_names;
  std::size_t retaken = 0, restored = 0, refused = 0;

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE(step);
    const std::vector<NodeId> live = nl.live_nodes();
    switch (rng() % 5) {
      case 0: {  // add_gate under a fresh, a retaken or a derived name
        std::string name = "idx" + std::to_string(step);
        const int kind = static_cast<int>(rng() % 3);
        if (kind == 1 && !dead_names.empty()) {
          name = dead_names[rng() % dead_names.size()];
        } else if (kind == 2) {
          name = nl.unique_name(nl.node(pick(live)).name);
        }
        const NodeId a = pick(live), b = pick(live);
        if (ref.contains(name)) {
          EXPECT_THROW(nl.add_gate(GateType::And, name, {a, b}),
                       std::runtime_error);
          break;
        }
        if (std::find(dead_names.begin(), dead_names.end(), name) !=
            dead_names.end()) {
          ++retaken;
        }
        const NodeId id = nl.add_gate(GateType::Xor, name, {a, b});
        ref.emplace(name, id);
        break;
      }
      case 1: {  // remove an unread, non-output gate
        std::vector<NodeId> sinks;
        for (const NodeId id : live) {
          const Node& n = nl.node(id);
          if (n.fanout.empty() && !nl.is_output(id) &&
              n.type != GateType::Input) {
            sinks.push_back(id);
          }
        }
        if (sinks.empty()) break;
        const NodeId id = pick(sinks);
        const std::string name = nl.node(id).name;
        nl.remove_node(id);
        ref.erase(name);
        removed.push_back(id);
        dead_names.push_back(name);
        break;
      }
      case 2: {  // restore the latest removal, refused once its name is retaken
        if (removed.empty()) break;
        const NodeId id = removed.back();
        removed.pop_back();
        const Node& n = nl.node(id);
        bool fanin_alive = true;
        for (const NodeId f : n.fanin) fanin_alive &= nl.is_alive(f);
        if (ref.contains(n.name) || !fanin_alive) {
          EXPECT_THROW(nl.restore_node(id), std::runtime_error);
          ++refused;
          break;
        }
        nl.restore_node(id);
        ref.emplace(n.name, id);
        ++restored;
        break;
      }
      case 3: {  // unique_name from a live, a dead or a tie base
        std::string base = nl.node(pick(live)).name;
        if (rng() % 3 == 0 && !dead_names.empty()) {
          base = dead_names[rng() % dead_names.size()];
        } else if (rng() % 3 == 0) {
          base = "tie0";
        }
        EXPECT_EQ(nl.unique_name(base), ref_unique(ref, base)) << base;
        break;
      }
      case 4: {  // const_node: cached, or a new tie named through unique_name
        const bool value = rng() % 2 == 1;
        const std::string expect = ref_unique(ref, value ? "tie1" : "tie0");
        const std::size_t before = nl.raw_size();
        const NodeId id = nl.const_node(value);
        ASSERT_TRUE(nl.is_alive(id));
        EXPECT_EQ(nl.node(id).type, value ? GateType::Const1 : GateType::Const0);
        if (nl.raw_size() > before) {
          EXPECT_EQ(nl.node(id).name, expect);
          ref.emplace(expect, id);
        } else {
          EXPECT_EQ(ref.at(nl.node(id).name), id);
        }
        break;
      }
    }
    expect_index_matches(nl, ref);
    if (step % 150 == 149) {
      expect_compact_keeps_names(nl, ref);
      NetlistCheckOptions lax;
      lax.allow_unread_gates = true;
      EXPECT_TRUE(NetlistChecker::run(nl, lax).ok())
          << NetlistChecker::run(nl, lax).format();
    }
  }
  expect_compact_keeps_names(nl, ref);
  // The sequence exercised every path the index has.
  EXPECT_GT(retaken, 0u);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(NameIndex, MatchesReferenceMapOnRand1k) {
  run_name_index_sequence("rand1k", test::kTestSeed);
}

TEST(NameIndex, MatchesReferenceMapOnWallace8) {
  run_name_index_sequence("wallace8", test::kTestSeed + 1);
}

TEST(NameIndex, TieNamesAvoidTakenNames) {
  Netlist nl;
  nl.add_input("tie0");
  nl.add_input("tie0_1");
  const NodeId t = nl.const_node(false);
  EXPECT_EQ(nl.node(t).name, "tie0_2");
  EXPECT_EQ(nl.const_node(false), t);
  EXPECT_EQ(nl.node(nl.const_node(true)).name, "tie1");
}

TEST(NameIndex, CopyKeepsIndexIndependent) {
  Netlist a = make_benchmark("c432");
  const std::string name = "spare";
  const NodeId id =
      a.add_gate(GateType::And, name, {a.inputs()[0], a.inputs()[1]});
  const Netlist b = a;
  a.remove_node(id);
  EXPECT_EQ(a.find(name), kNoNode);
  EXPECT_EQ(b.find(name), id);
  a.add_input(name);
  EXPECT_NE(a.find(name), id);
  EXPECT_EQ(b.find(name), id);
}

}  // namespace
}  // namespace tz
