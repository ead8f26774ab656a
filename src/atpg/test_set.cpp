#include "atpg/test_set.hpp"

#include <algorithm>
#include <cstdint>
#include <random>

#include "prob/signal_prob.hpp"
#include "sim/simulator.hpp"

namespace tz {

DefenderTestSet generate_atpg_tests(const Netlist& nl,
                                    const TestGenOptions& opt) {
  DefenderTestSet ts;
  ts.name = "atpg-stuck-at";
  const std::vector<Fault> faults = collapse_faults(nl, fault_universe(nl));
  ts.coverage.total_faults = faults.size();

  // One fault-simulation engine serves both phases: the static netlist
  // analyses and the compiled plan are computed once and carried from the
  // bootstrap through deterministic-phase dropping.
  FaultSimEngine engine(nl);

  // Phase 1: random bootstrap with static compaction — only patterns that
  // are some fault's first detection are kept in the shipped TP set, as a
  // production pattern-compaction flow would do.
  const PatternSet bootstrap =
      random_patterns(nl.inputs().size(), opt.random_patterns, opt.seed);
  engine.set_patterns(bootstrap);
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::size_t> first_detect(faults.size());
  std::size_t covered = engine.drop_sim(faults, detected, first_detect);
  std::vector<std::size_t> kept;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detected[f]) kept.push_back(first_detect[f]);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  PatternSet patterns(nl.inputs().size(), kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    for (std::size_t s = 0; s < nl.inputs().size(); ++s) {
      patterns.set(k, s, bootstrap.get(kept[k], s));
    }
  }

  // Phase 2: PODEM on survivors, dropping newly covered faults as we go and
  // stopping at the defender's coverage target. The shared engine carries
  // the static netlist analyses across candidate patterns (drop_sim only
  // re-simulates still-undetected faults), and one PODEM engine reuses the
  // topological order and implication scratch across target faults —
  // incremental work per pattern instead of a full fault-universe sweep.
  PodemEngine podem_engine(nl);
  std::vector<std::size_t> order(faults.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Testability-first: sort by descending excitation probability of the
  // fault site (P of the site holding the activation value).
  const SignalProb sp(nl);
  std::vector<double> excitation(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    excitation[i] = faults[i].value == StuckAt::Zero
                        ? sp.p1(faults[i].node)
                        : 1.0 - sp.p1(faults[i].node);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return excitation[a] > excitation[b];
                   });
  for (std::size_t i : order) {
    if (detected[i]) continue;
    if (static_cast<double>(covered) >=
        opt.coverage_target * static_cast<double>(faults.size())) {
      break;  // coverage goal met
    }
    if (patterns.num_patterns() >= opt.max_patterns) {
      break;  // tester-time budget exhausted
    }
    const PodemResult r = podem_engine.run(faults[i], opt.podem);
    if (r.status == PodemStatus::Untestable) {
      ++ts.untestable;
      continue;
    }
    if (r.status == PodemStatus::Aborted) {
      ++ts.aborted;
      continue;
    }
    PatternSet one(nl.inputs().size(), 1);
    std::mt19937_64 fill_rng(opt.seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    for (std::size_t s = 0; s < r.pattern.size(); ++s) {
      // Random-fill the don't-care inputs, as production ATPG does.
      const bool bit = r.assigned[s] ? r.pattern[s] : (fill_rng() & 1);
      one.set(0, s, bit);
    }
    // Drop every remaining fault this new pattern detects.
    engine.set_patterns(one);
    const std::size_t newly = engine.drop_sim(faults, detected);
    covered += newly;
    if (newly > 0) patterns.append_all(one);
  }

  for (bool d : detected) {
    if (d) ++ts.coverage.detected;
  }
  ts.patterns = std::move(patterns);
  ts.golden = BitSimulator(nl).outputs(ts.patterns);
  return ts;
}

DefenderSuite make_defender_suite(const Netlist& nl,
                                  const TestGenOptions& opt) {
  DefenderSuite suite;
  suite.algorithms.push_back(generate_atpg_tests(nl, opt));

  BitSimulator sim(nl);
  if (opt.with_random_validation) {
    DefenderTestSet rnd;
    rnd.name = "random-validation";
    rnd.patterns = random_patterns(nl.inputs().size(),
                                   opt.validation_patterns, opt.seed ^ 0x5EEDu);
    rnd.golden = sim.outputs(rnd.patterns);
    suite.algorithms.push_back(std::move(rnd));
  }
  if (opt.with_walking) {
    DefenderTestSet walk;
    walk.name = "walking-bits";
    walk.patterns = walking_patterns(nl.inputs().size());
    walk.golden = sim.outputs(walk.patterns);
    suite.algorithms.push_back(std::move(walk));
  }
  return suite;
}

bool functional_test(const Netlist& dut, const DefenderTestSet& ts) {
  if (dut.inputs().size() != ts.patterns.num_signals() ||
      dut.outputs().size() != ts.golden.num_signals()) {
    return false;
  }
  if (dut.dffs().empty()) {
    const PatternSet got = BitSimulator(dut).outputs(ts.patterns);
    return BitSimulator::responses_equal(got, ts.golden);
  }
  // Sequential DUT: stream patterns as consecutive clock cycles from reset.
  CycleSimulator cs(dut);
  std::vector<bool> in(dut.inputs().size());
  for (std::size_t p = 0; p < ts.patterns.num_patterns(); ++p) {
    for (std::size_t s = 0; s < in.size(); ++s) {
      in[s] = ts.patterns.get(p, s);
    }
    const std::vector<bool> out = cs.step(in);
    for (std::size_t o = 0; o < out.size(); ++o) {
      if (out[o] != ts.golden.get(p, o)) return false;
    }
  }
  return true;
}

bool functional_test(const Netlist& dut, const DefenderSuite& suite) {
  for (const DefenderTestSet& ts : suite.algorithms) {
    if (!functional_test(dut, ts)) return false;
  }
  return true;
}

}  // namespace tz
