// NetlistChecker: structural sanity sweeps over a (possibly corrupt) Netlist.
//
// Unlike Netlist::check() — which throws on the first violation — every sweep
// here collects findings into the report and guards all indexing, so a badly
// corrupted structure still yields a complete diagnosis instead of a crash.
#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "verify/verify.hpp"

namespace tz {

namespace {

std::string node_label(const Netlist& nl, NodeId id) {
  if (id >= nl.raw_size()) return "<out-of-range>";
  return "'" + nl.node(id).name + "'";
}

void check_fanin_edges(const Netlist& nl, VerifyReport& r) {
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (n.dead) continue;

    const Arity a = arity_of(n.type);
    const int nf = static_cast<int>(n.fanin.size());
    if (nf < a.min || (a.max >= 0 && nf > a.max)) {
      r.add(CheckId::NetBadArity,
            node_label(nl, i) + " (" + std::string(to_string(n.type)) +
                ") has " + std::to_string(nf) + " fanins",
            i);
    }

    for (NodeId f : n.fanin) {
      if (!nl.is_alive(f)) {
        r.add(CheckId::NetDanglingFanin,
              node_label(nl, i) + " reads " +
                  (f < nl.raw_size() ? "dead node " + node_label(nl, f)
                                     : "invalid id " + std::to_string(f)),
              i);
        continue;
      }
      // Count-aware: a node reading the same signal twice must appear twice
      // in that signal's fanout (remove/restore keeps multiplicity).
      const auto& fo = nl.node(f).fanout;
      const auto reads =
          std::count(n.fanin.begin(), n.fanin.end(), f);
      if (std::count(fo.begin(), fo.end(), i) < reads) {
        r.add(CheckId::NetFanoutSync,
              "fanout of " + node_label(nl, f) + " is missing reader " +
                  node_label(nl, i),
              f);
      }
    }

    for (NodeId reader : n.fanout) {
      if (!nl.is_alive(reader)) {
        r.add(CheckId::NetPhantomFanout,
              node_label(nl, i) + " records dead/invalid reader " +
                  std::to_string(reader),
              i);
        continue;
      }
      const auto& fi = nl.node(reader).fanin;
      if (std::find(fi.begin(), fi.end(), i) == fi.end()) {
        r.add(CheckId::NetPhantomFanout,
              node_label(nl, i) + " records reader " +
                  node_label(nl, reader) + " that does not read it",
              i);
      }
    }
  }
}

/// Audits the flat name index in both directions: every live node is found
/// at its own id by probing its name, and every occupied slot holds a live
/// node that probing its name reaches (a lost, stale, duplicate or displaced
/// entry fails one of the two). `probe` is Netlist::name_slot.
template <class Probe>
void check_name_index(const Netlist& nl, const std::vector<NodeId>& slots,
                      const Probe& probe, VerifyReport& r) {
  if ((slots.size() & (slots.size() - 1)) != 0) {
    r.add(CheckId::NetDuplicateName,
          "name index has " + std::to_string(slots.size()) +
              " slots (not a power of two)");
    return;
  }
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (n.dead) continue;
    const std::size_t s = probe(n.name);
    const NodeId found = s < slots.size() ? slots[s] : kNoNode;
    if (found == kNoNode) {
      r.add(CheckId::NetDuplicateName,
            "live node " + node_label(nl, i) + " missing from name index", i);
    } else if (found != i) {
      r.add(CheckId::NetDuplicateName,
            "name " + node_label(nl, i) + " indexed to node " +
                std::to_string(found) + " (duplicate or stale entry)",
            i);
    }
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const NodeId id = slots[s];
    if (id == kNoNode) continue;
    if (!nl.is_alive(id)) {
      r.add(CheckId::NetDuplicateName,
            "name index slot " + std::to_string(s) +
                " points at dead/invalid node " + std::to_string(id),
            id < nl.raw_size() ? id : kNoNode);
    } else if (probe(nl.node(id).name) != s) {
      r.add(CheckId::NetDuplicateName,
            "name index slot " + std::to_string(s) + " holds " +
                node_label(nl, id) +
                ", which probing its name does not reach (duplicate or "
                "displaced entry)",
            id);
    }
  }
}

void check_role_list(const Netlist& nl, VerifyReport& r, CheckId id,
                     const std::vector<NodeId>& list, GateType role,
                     const char* what) {
  std::vector<std::uint8_t> listed(nl.raw_size(), 0);
  for (NodeId e : list) {
    if (!nl.is_alive(e)) {
      r.add(id, std::string(what) + " list entry " + std::to_string(e) +
                    " is dead or invalid");
      continue;
    }
    if (nl.node(e).type != role) {
      r.add(id, std::string(what) + " list entry " + node_label(nl, e) +
                    " has type " + std::string(to_string(nl.node(e).type)),
            e);
    }
    if (listed[e]++) {
      r.add(id, std::string(what) + " list entry " + node_label(nl, e) +
                    " duplicated",
            e);
    }
  }
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (!n.dead && n.type == role && !listed[i]) {
      r.add(id, "live " + std::string(to_string(role)) + " node " +
                    node_label(nl, i) + " missing from " + what + " list",
            i);
    }
  }
}

void check_output_list(const Netlist& nl, VerifyReport& r) {
  std::vector<std::uint8_t> listed(nl.raw_size(), 0);
  for (NodeId o : nl.outputs()) {
    if (!nl.is_alive(o)) {
      r.add(CheckId::NetOutputList,
            "output list entry " + std::to_string(o) + " is dead or invalid");
      continue;
    }
    // mark_output is idempotent, so a duplicate means a broken swap/restore.
    if (listed[o]++) {
      r.add(CheckId::NetOutputList,
            "output list entry " + node_label(nl, o) + " duplicated", o);
    }
  }
}

/// Kahn's sweep with DFF edges cut, mirroring Netlist::topo_order() but
/// collecting the stuck nodes instead of throwing. Edges already reported as
/// dangling are skipped so a corrupt id cannot crash the walk.
void check_acyclic(const Netlist& nl, VerifyReport& r) {
  std::vector<std::uint32_t> indeg(nl.raw_size(), 0);
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (n.dead || is_source(n.type) || is_sequential(n.type)) continue;
    for (NodeId f : n.fanin) {
      if (nl.is_alive(f)) ++indeg[i];
    }
  }
  std::vector<NodeId> ready;
  std::vector<std::uint8_t> done(nl.raw_size(), 0);
  std::size_t processed = 0, live = 0;
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    if (!nl.node(i).dead) {
      ++live;
      if (indeg[i] == 0) {
        ready.push_back(i);
        done[i] = 1;
      }
    }
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++processed;
    for (NodeId reader : nl.node(id).fanout) {
      if (!nl.is_alive(reader)) continue;
      const Node& rd = nl.node(reader);
      if (is_sequential(rd.type) || is_source(rd.type)) continue;
      // Only decrement for edges that were counted in indeg (the reader
      // actually reads id): a phantom fanout entry must not release a node
      // early and mask a real cycle.
      const auto& fi = rd.fanin;
      if (std::find(fi.begin(), fi.end(), id) == fi.end()) continue;
      if (indeg[reader] > 0) --indeg[reader];
      if (indeg[reader] == 0 && !done[reader]) {
        ready.push_back(reader);
        done[reader] = 1;  // guard against duplicate fanout entries
      }
    }
  }
  if (processed < live) {
    NodeId first = kNoNode;
    for (NodeId i = 0; i < nl.raw_size(); ++i) {
      if (!nl.node(i).dead && !done[i]) {
        first = i;
        break;
      }
    }
    r.add(CheckId::NetCycle,
          std::to_string(live - processed) +
              " live node(s) unreachable in the combinational topo sweep "
              "(cycle through " +
              node_label(nl, first) + ")",
          first);
  }
}

void check_orphans(const Netlist& nl, VerifyReport& r) {
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    const Node& n = nl.node(i);
    if (n.dead || !is_combinational(n.type) || is_const(n.type)) continue;
    if (n.fanout.empty() && !nl.is_output(i)) {
      r.add(CheckId::NetOrphan,
            node_label(nl, i) +
                " is a live gate with no readers and no output marking",
            i);
    }
  }
}

}  // namespace

VerifyReport NetlistChecker::run(const Netlist& nl,
                                 const NetlistCheckOptions& opt) {
  VerifyReport r;
  check_fanin_edges(nl, r);
  check_name_index(
      nl, nl.by_name_,
      [&nl](std::string_view name) { return nl.name_slot(name); }, r);
  check_role_list(nl, r, CheckId::NetInputList, nl.inputs(), GateType::Input,
                  "input");
  check_role_list(nl, r, CheckId::NetDffList, nl.dffs(), GateType::Dff,
                  "dff");
  check_output_list(nl, r);
  check_acyclic(nl, r);
  if (!opt.allow_unread_gates) check_orphans(nl, r);

  std::size_t live = 0;
  for (NodeId i = 0; i < nl.raw_size(); ++i) {
    if (!nl.node(i).dead) ++live;
  }
  if (live != nl.live_count()) {
    r.add(CheckId::NetLiveCount,
          "live_count() is " + std::to_string(nl.live_count()) + " but " +
              std::to_string(live) + " nodes are live");
  }
  return r;
}

}  // namespace tz
