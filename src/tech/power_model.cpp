#include "tech/power_model.hpp"

#include <cstdint>

#include "sim/simulator.hpp"

namespace tz {

double PowerModel::load_cap_ff(const Netlist& nl, NodeId id) const {
  const Node& n = nl.node(id);
  double cap = 0.0;
  for (NodeId reader : n.fanout) {
    cap += lib_.pin_cap_ff(nl.node(reader)) + lib_.wire_cap_ff();
  }
  return cap;
}

PowerReport PowerModel::node_power(const Netlist& nl, NodeId id,
                                   double activity) const {
  if (!nl.is_alive(id)) return {};
  const Node& n = nl.node(id);
  const double vdd = lib_.vdd();
  const double f = lib_.clock_hz();
  // Energy per toggle in femtojoules.
  const double energy_fj =
      lib_.internal_energy_fj(n) + 0.5 * load_cap_ff(nl, id) * vdd * vdd;
  double p_dyn_w = activity * f * energy_fj * 1e-15;
  if (n.type == GateType::Dff) {
    // Clock pin switches every cycle regardless of data activity.
    p_dyn_w += f * lib_.dff_clock_energy_fj() * 1e-15;
  }
  return {.dynamic_uw = p_dyn_w * 1e6,             // W -> µW
          .leakage_uw = lib_.leakage_nw(n) * 1e-3,  // nW -> µW
          .area_ge = lib_.area_ge(n)};
}

PowerBreakdown PowerModel::analyze_with_activity(
    const Netlist& nl, const std::vector<double>& activity) const {
  PowerBreakdown b;
  b.dynamic_uw.assign(nl.raw_size(), 0.0);
  b.leakage_uw.assign(nl.raw_size(), 0.0);
  b.area_ge.assign(nl.raw_size(), 0.0);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    const PowerReport r = node_power(nl, id, activity[id]);
    b.dynamic_uw[id] = r.dynamic_uw;
    b.leakage_uw[id] = r.leakage_uw;
    b.area_ge[id] = r.area_ge;
    b.totals.dynamic_uw += r.dynamic_uw;
    b.totals.leakage_uw += r.leakage_uw;
    b.totals.area_ge += r.area_ge;
  }
  return b;
}

PowerBreakdown PowerModel::analyze(const Netlist& nl,
                                   const SignalProb& sp) const {
  std::vector<double> activity(nl.raw_size(), 0.0);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (nl.is_alive(id)) activity[id] = sp.activity(id);
  }
  return analyze_with_activity(nl, activity);
}

PowerBreakdown PowerModel::analyze(const Netlist& nl) const {
  const SignalProb sp(nl);
  return analyze(nl, sp);
}

PowerBreakdown PowerModel::analyze_simulated(const Netlist& nl,
                                             const PatternSet& stimulus) const {
  const std::vector<std::uint64_t> toggles = count_toggles(nl, stimulus);
  std::vector<double> activity(nl.raw_size(), 0.0);
  const double steps =
      stimulus.num_patterns() > 1
          ? static_cast<double>(stimulus.num_patterns() - 1)
          : 1.0;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (nl.is_alive(id)) {
      activity[id] = static_cast<double>(toggles[id]) / steps;
    }
  }
  return analyze_with_activity(nl, activity);
}

}  // namespace tz
