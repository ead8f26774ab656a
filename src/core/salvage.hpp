// Algorithm 1: Salvaging Power and Area.
//
// Identifies candidate gates (never a primary output, which the defender
// observes directly) whose output signal probability is >= Pth (tie to 1)
// or whose zero-probability is >= Pth (tie to 0), then greedily
// replaces each with a constant and removes the logic cone that became
// unobservable — accepting a change only when every one of the defender's
// testing algorithms still passes on all test patterns, reverting otherwise.
// The freed power/area differential (ΔP, ΔA) funds the Trojan of Algorithm 2.
#pragma once

#include <string>
#include <vector>

#include "atpg/test_set.hpp"
#include "netlist/netlist.hpp"
#include "prob/signal_prob.hpp"
#include "tech/power_model.hpp"

namespace tz {

struct SalvageOptions {
  double pth = 0.992;  ///< Attacker threshold probability.
  /// Candidate visit order — the paper uses most-certain-first; the leakage
  /// ablation visits highest-leakage gates first instead.
  enum class Order { ByProbability, ByLeakage } order = Order::ByProbability;
  /// Ignored (the scan is one sequential walk); kept while tzbench still
  /// writes it.
  std::size_t threads = 0;
};

/// One accepted removal.
struct SalvageRecord {
  std::string node_name;
  bool tie_value = false;
  double probability = 0.0;      ///< Candidate probability (max(P0, P1)).
  std::size_t gates_removed = 0; ///< Candidate gate + dead predecessors.
};

struct SalvageResult {
  Netlist modified;                    ///< N' (tombstones compacted).
  std::size_t candidates = 0;          ///< |C|.
  std::vector<SalvageRecord> accepted; ///< Removals that survived testing.
  std::size_t rejected = 0;            ///< Candidates reverted by testing.
  std::size_t expendable_gates = 0;    ///< Eg: total gates removed.
  PowerReport power_before;            ///< P/A of N.
  PowerReport power_after;             ///< P/A of N'.

  double delta_power_uw() const {
    return power_before.total_uw() - power_after.total_uw();
  }
  double delta_area_ge() const {
    return power_before.area_ge - power_after.area_ge;
  }
};

/// Run Algorithm 1. `suite` must have been generated on `original` (the
/// verified HT-free circuit N).
SalvageResult salvage_power_area(const Netlist& original,
                                 const DefenderSuite& suite,
                                 const PowerModel& pm,
                                 const SalvageOptions& opt = {});

}  // namespace tz
