#include "tech/variation.hpp"

#include <cmath>

namespace tz {

DieSample VariationModel::sample_die(std::size_t raw_size) {
  DieSample die;
  die.leakage_scale.resize(raw_size);
  die.dynamic_scale.resize(raw_size);
  std::normal_distribution<double> g01(0.0, 1.0);
  die.die_scale = std::exp(spec_.die_sigma * g01(rng_));
  for (std::size_t i = 0; i < raw_size; ++i) {
    die.leakage_scale[i] = std::exp(spec_.leakage_sigma * g01(rng_));
    die.dynamic_scale[i] = 1.0 + spec_.dynamic_sigma * g01(rng_);
    if (die.dynamic_scale[i] < 0.5) die.dynamic_scale[i] = 0.5;
  }
  return die;
}

// Measurement noise is the multiplicative factor N(1, measurement_sigma),
// drawn as z * sigma + 1.0 from a unit normal z. That is the expression
// std::normal_distribution(1.0, sigma) evaluates in libstdc++, so the RNG
// stream and every sigma > 0 value are unchanged, while sigma == 0 (which
// that distribution's precondition forbids) is legal and yields exactly 1.

PowerReport VariationModel::measure(const Netlist& nl,
                                    const PowerBreakdown& nominal,
                                    const DieSample& die) {
  PowerReport r;
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    r.dynamic_uw += nominal.dynamic_uw[id] * die.dynamic_scale[id];
    r.leakage_uw += nominal.leakage_uw[id] * die.leakage_scale[id];
    r.area_ge += nominal.area_ge[id];
  }
  r.dynamic_uw *= die.die_scale;
  r.leakage_uw *= die.die_scale;
  std::normal_distribution<double> unit(0.0, 1.0);
  r.dynamic_uw *= unit(rng_) * spec_.measurement_sigma + 1.0;
  r.leakage_uw *= unit(rng_) * spec_.measurement_sigma + 1.0;
  return r;
}

std::vector<double> VariationModel::noisy_leakage(const Netlist& nl,
                                                  const PowerBreakdown& nominal,
                                                  const DieSample& die) {
  std::vector<double> leak(nl.raw_size(), 0.0);
  std::normal_distribution<double> unit(0.0, 1.0);
  for (NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    leak[id] = nominal.leakage_uw[id] * die.leakage_scale[id] *
               die.die_scale * (unit(rng_) * spec_.measurement_sigma + 1.0);
  }
  return leak;
}

}  // namespace tz
