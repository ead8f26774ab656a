// Algorithm 2: HT insertion using the TrojanZero methodology.
//
// Walks the HT library and the candidate payload locations; after each
// placement the defender's full suite must pass and the infected circuit's
// power (total, dynamic, leakage) and area must not exceed the HT-free
// thresholds. A perceptible *negative* differential is topped up with
// dummy gates so that ΔP(TZ) ≈ 0 and ΔA(TZ) ≈ 0.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "atpg/test_set.hpp"
#include "core/ht_library.hpp"
#include "core/salvage.hpp"
#include "netlist/netlist.hpp"
#include "tech/power_model.hpp"

namespace tz {

struct InsertionOptions {
  /// HTs to try, in order; empty = default_ht_library().
  std::vector<TrojanDesc> library;
  /// Rare-net pool: nets with P1 <= rare_p1 (or >= 1-rare_p1 are inverted
  /// conceptually by choosing the AND polarity; we keep it simple and use
  /// low-P1 nets directly).
  double rare_p1 = 0.05;
  std::size_t max_locations = 8;       ///< m in Algorithm 2.
  double power_slack_rel = 0.02;       ///< Allowed |ΔP|/P(N) after balancing.
  double area_slack_rel = 0.02;        ///< Allowed |ΔA|/A(N).
  std::size_t max_dummy_gates = 256;
  /// Ignored (the scan is one sequential walk); kept while tzbench still
  /// writes it.
  std::size_t threads = 0;
};

struct InsertionResult {
  bool success = false;
  Netlist infected;           ///< N'' (valid only when success).
  InsertedHT ht;              ///< Node handles into `infected`.
  TrojanDesc ht_desc;
  std::string ht_name;
  std::string victim_name;
  int tried_hts = 0;
  int tried_locations = 0;
  int fail_build = 0;  ///< Structural rejections (loops, pool too small).
  int fail_test = 0;   ///< Defender suite caught the HT.
  int fail_caps = 0;   ///< Power/area cap exceeded.
  std::size_t dummy_gates = 0;
  PowerReport power;          ///< P/A of N''.
  PowerReport threshold;      ///< P/A of N (the caps).
  double trigger_p1 = 0.0;    ///< Analytic per-cycle trigger probability.

  double delta_power_uw() const { return threshold.total_uw() - power.total_uw(); }
  double delta_area_ge() const { return threshold.area_ge - power.area_ge; }
};

/// Run Algorithm 2 on the salvaged circuit N' with thresholds from N.
/// Success implies `power <= threshold` component-wise: total, dynamic and
/// leakage power and area never exceed the HT-free circuit.
/// (Thin wrapper over FlowEngine::insert — see core/flow_engine.hpp.)
InsertionResult insert_trojan(const Netlist& original,
                              const SalvageResult& salvaged,
                              const DefenderSuite& suite,
                              const PowerModel& pm,
                              const InsertionOptions& opt = {});

/// Candidate payload locations: internal nets that feed primary-output
/// cones, deepest first (the c880 case study targets the ALU carry-in).
std::vector<NodeId> payload_locations(const Netlist& nl, std::size_t limit);

/// Every rare net (P1 <= rare_p1), lowest P1 first — computed once per
/// netlist; trigger_pool filters it per victim.
std::vector<NodeId> rare_net_list(const Netlist& nl, const SignalProb& sp,
                                  double rare_p1);

/// Transitive-fanout membership mask of `victim` (victim included), indexed
/// by NodeId.
std::vector<char> downstream_mask(const Netlist& nl, NodeId victim);

/// Rare-net pool for trigger construction, lowest P1 first. Nets in the
/// transitive fanout of `victim` are excluded to keep the payload loop-free.
std::vector<NodeId> trigger_pool(const Netlist& nl, const SignalProb& sp,
                                 double rare_p1, NodeId victim);

}  // namespace tz
