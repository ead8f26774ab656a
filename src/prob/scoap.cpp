#include "prob/scoap.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

namespace tz {
namespace {

using U = std::uint32_t;

U min_of(std::span<const NodeId> xs, const std::vector<U>& v) {
  U m = kScoapInf;
  for (NodeId x : xs) m = std::min(m, v[x]);
  return m;
}

U sum_of(std::span<const NodeId> xs, const std::vector<U>& v) {
  U s = 0;
  for (NodeId x : xs) s = Scoap::sat_add(s, v[x]);
  return s;
}

}  // namespace

Scoap::Scoap(const Netlist& nl)
    : cc0_(nl.raw_size(), kScoapInf),
      cc1_(nl.raw_size(), kScoapInf),
      co_(nl.raw_size(), kScoapInf) {
  const std::vector<NodeId> order = nl.topo_order();

  // ---- controllability, forward pass ----
  auto forward_pass = [&](bool seed_dffs) {
    for (NodeId id : order) {
      const Node& n = nl.node(id);
      switch (n.type) {
        case GateType::Input:
          cc0_[id] = 1;
          cc1_[id] = 1;
          break;
        case GateType::Const0:
          cc0_[id] = 0;
          cc1_[id] = kScoapInf;
          break;
        case GateType::Const1:
          cc0_[id] = kScoapInf;
          cc1_[id] = 0;
          break;
        case GateType::Dff:
          // One clock of sequential depth on top of the data input; the
          // d-input may be later in the order, so seed conservatively (as if
          // the d-input were a primary input) and refine in the fixpoint
          // below.
          if (seed_dffs) {
            cc0_[id] = 2;
            cc1_[id] = 2;
          }
          break;
        case GateType::Buf:
          cc0_[id] = sat_add(cc0_[n.fanin[0]], 1);
          cc1_[id] = sat_add(cc1_[n.fanin[0]], 1);
          break;
        case GateType::Not:
          cc0_[id] = sat_add(cc1_[n.fanin[0]], 1);
          cc1_[id] = sat_add(cc0_[n.fanin[0]], 1);
          break;
        case GateType::And:
          cc1_[id] = sat_add(sum_of(n.fanin, cc1_), 1);
          cc0_[id] = sat_add(min_of(n.fanin, cc0_), 1);
          break;
        case GateType::Nand:
          cc0_[id] = sat_add(sum_of(n.fanin, cc1_), 1);
          cc1_[id] = sat_add(min_of(n.fanin, cc0_), 1);
          break;
        case GateType::Or:
          cc0_[id] = sat_add(sum_of(n.fanin, cc0_), 1);
          cc1_[id] = sat_add(min_of(n.fanin, cc1_), 1);
          break;
        case GateType::Nor:
          cc1_[id] = sat_add(sum_of(n.fanin, cc0_), 1);
          cc0_[id] = sat_add(min_of(n.fanin, cc1_), 1);
          break;
        case GateType::Xor:
        case GateType::Xnor: {
          // Cheapest parity assignment: for each polarity take, over all
          // fanins, the cheaper of (even #ones) patterns — approximated by
          // the standard two-input recurrence folded left.
          U c0 = cc0_[n.fanin[0]];
          U c1 = cc1_[n.fanin[0]];
          for (std::size_t i = 1; i < n.fanin.size(); ++i) {
            const U a0 = c0, a1 = c1;
            const U b0 = cc0_[n.fanin[i]], b1 = cc1_[n.fanin[i]];
            c0 = std::min(sat_add(a0, b0), sat_add(a1, b1));
            c1 = std::min(sat_add(a0, b1), sat_add(a1, b0));
          }
          if (n.type == GateType::Xnor) std::swap(c0, c1);
          cc0_[id] = sat_add(c0, 1);
          cc1_[id] = sat_add(c1, 1);
          break;
        }
        case GateType::Mux: {
          const U s0 = cc0_[n.fanin[0]], s1 = cc1_[n.fanin[0]];
          const U a0 = cc0_[n.fanin[1]], a1 = cc1_[n.fanin[1]];
          const U b0 = cc0_[n.fanin[2]], b1 = cc1_[n.fanin[2]];
          cc0_[id] = sat_add(std::min(sat_add(s0, a0), sat_add(s1, b0)), 1);
          cc1_[id] = sat_add(std::min(sat_add(s0, a1), sat_add(s1, b1)), 1);
          break;
        }
      }
    }
  };
  forward_pass(/*seed_dffs=*/true);

  // ---- DFF controllability fixpoint ----
  // Replace each DFF seed with the cost of its d-input plus one clock of
  // depth, then re-propagate; each round resolves one more level of
  // sequential depth (mirroring SignalProb's damped DFF iteration). The
  // iteration count is bounded because feedback loops (q' = NOT q) never
  // stabilise; truncation leaves a finite cost that *under*-estimates flops
  // deeper than the cap (or inside divergent loops), which only flattens
  // the ranking among the very deepest state bits.
  if (!nl.dffs().empty()) {
    const std::size_t max_iters =
        std::min<std::size_t>(nl.dffs().size() + 1, 64);
    for (std::size_t it = 0; it < max_iters; ++it) {
      bool changed = false;
      for (NodeId q : nl.dffs()) {
        const NodeId d = nl.node(q).fanin[0];
        const U n0 = sat_add(cc0_[d], 1);
        const U n1 = sat_add(cc1_[d], 1);
        if (n0 != cc0_[q] || n1 != cc1_[q]) {
          cc0_[q] = n0;
          cc1_[q] = n1;
          changed = true;
        }
      }
      if (!changed) break;
      forward_pass(/*seed_dffs=*/false);
    }
  }

  // ---- observability, backward pass ----
  for (NodeId po : nl.outputs()) co_[po] = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    const Node& n = nl.node(id);
    // Propagate from this gate's output to each of its inputs (PIs receive
    // observability from their readers like any other net).
    for (std::size_t i = 0; i < n.fanin.size(); ++i) {
      const NodeId in = n.fanin[i];
      U through = kScoapInf;
      switch (n.type) {
        case GateType::Buf:
        case GateType::Not:
          through = sat_add(co_[id], 1);
          break;
        case GateType::And:
        case GateType::Nand: {
          U side = 0;  // all other inputs non-controlling (1)
          for (std::size_t j = 0; j < n.fanin.size(); ++j) {
            if (j != i) side = sat_add(side, cc1_[n.fanin[j]]);
          }
          through = sat_add(sat_add(co_[id], side), 1);
          break;
        }
        case GateType::Or:
        case GateType::Nor: {
          U side = 0;  // all other inputs non-controlling (0)
          for (std::size_t j = 0; j < n.fanin.size(); ++j) {
            if (j != i) side = sat_add(side, cc0_[n.fanin[j]]);
          }
          through = sat_add(sat_add(co_[id], side), 1);
          break;
        }
        case GateType::Xor:
        case GateType::Xnor: {
          U side = 0;  // pin the other inputs to their cheaper value
          for (std::size_t j = 0; j < n.fanin.size(); ++j) {
            if (j != i) {
              side = sat_add(side, std::min(cc0_[n.fanin[j]], cc1_[n.fanin[j]]));
            }
          }
          through = sat_add(sat_add(co_[id], side), 1);
          break;
        }
        case GateType::Mux: {
          if (i == 0) {
            // Select observable when the two data inputs differ; cheapest
            // differing assignment.
            const U diff = std::min(
                sat_add(cc0_[n.fanin[1]], cc1_[n.fanin[2]]),
                sat_add(cc1_[n.fanin[1]], cc0_[n.fanin[2]]));
            through = sat_add(sat_add(co_[id], diff), 1);
          } else {
            // Data input observable when the select routes it through.
            const U sel = i == 1 ? cc0_[n.fanin[0]] : cc1_[n.fanin[0]];
            through = sat_add(sat_add(co_[id], sel), 1);
          }
          break;
        }
        case GateType::Dff:
          through = sat_add(co_[id], 1);  // one clock of depth
          break;
        default:
          break;
      }
      co_[in] = std::min(co_[in], through);
    }
  }
}

}  // namespace tz
