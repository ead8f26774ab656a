// Hardware-Trojan library.
//
// The paper's Algorithm 2 draws from a library {HT1..HTn}. The flagship
// design is the asynchronous-counter HT of Fig. 4 [Liu et al. 2011]: an
// n-bit counter advances whenever a trigger condition — an AND over
// rarely-activated nets — is observed; when the counter saturates, a MUX
// swaps the victim net S for its negation (the payload). We additionally
// provide purely combinational comparator-trigger variants.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace tz {

struct TrojanDesc {
  std::string name;
  int counter_bits = 0;   ///< 0 = combinational (comparator) trigger.
  int trigger_width = 4;  ///< Number of rare nets ANDed into the trigger.
};

/// The default library, ordered small to large (Algorithm 2 walks it).
std::vector<TrojanDesc> default_ht_library();

/// The counter size Table I uses for each benchmark.
TrojanDesc counter_trojan(int bits, int trigger_width = 2);

/// Handle to an HT embedded in a netlist.
struct InsertedHT {
  std::string name;
  std::vector<NodeId> added_nodes;  ///< Every cell the insertion created.
  NodeId trigger_in = kNoNode;      ///< AND of the rare trigger nets.
  NodeId fire = kNoNode;            ///< Payload-enable (counter full).
  NodeId payload_mux = kNoNode;     ///< MUX output now driving S's readers.
  NodeId victim = kNoNode;          ///< The original net S.
};

/// Embed `desc` into `nl`: trigger from `rare_nets` (first trigger_width
/// used), payload on `victim` (its readers are rewired to the MUX).
/// The victim must be a live non-output node with at least one reader.
/// Throws std::runtime_error, with the HT left in `nl`, when a combinational
/// trigger taps the victim's fanout cone (the payload would close a loop);
/// the check walks that cone only, not the whole netlist.
InsertedHT build_trojan(Netlist& nl, const TrojanDesc& desc,
                        std::span<const NodeId> rare_nets, NodeId victim);

/// Dummy gate for power/area balancing (paper Sec. IV-4): a buffer reading a
/// primary input with its output unconnected. Returns the new node.
NodeId add_dummy_gate(Netlist& nl, NodeId primary_input, GateType type,
                      const std::string& name_hint);

}  // namespace tz
