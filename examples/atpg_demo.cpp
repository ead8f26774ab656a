// ATPG substrate demo: fault universe, PODEM, fault simulation, compaction
// and coverage — the defender-side tooling on its own.
#include <iomanip>
#include <iostream>

#include "atpg/fault_sim_backend.hpp"
#include "atpg/test_set.hpp"
#include "gen/iscas.hpp"
#include "verify/verify.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace tz;
  const std::string name = argc > 1 ? argv[1] : "c880";
  const Netlist nl = make_benchmark(name);
  std::cout << "ATPG demo on " << name << " (" << nl.gate_count()
            << " gates)\n";

  const auto universe = fault_universe(nl);
  const auto faults = collapse_faults(nl, universe);
  std::cout << "fault universe: " << universe.size() << " -> "
            << faults.size() << " after collapsing\n";

  // Random grading through a reusable backend (Auto picks between the
  // event-driven and word-packed engines by measuring the workload):
  // the good machine is simulated once and shared by every fault, and the
  // same backend answers the per-fault queries below without re-running it.
  const PatternSet rnd = random_patterns(nl.inputs().size(), 64, 1);
  const auto engine = make_fault_sim_backend(nl);
  engine->set_patterns(rnd);
  std::cout << "fault-sim backend: " << engine->name() << "\n";
  const std::vector<bool> rnd_det = engine->simulate(faults);
  std::size_t rnd_covered = 0;
  for (const bool d : rnd_det) rnd_covered += d ? 1 : 0;
  std::cout << "64 random patterns cover "
            << 100.0 * static_cast<double>(rnd_covered) /
                   static_cast<double>(faults.size())
            << "%\n";

  // A single PODEM run, narrated: target the first random-resistant fault.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (rnd_det[i]) continue;
    const Fault& f = faults[i];
    const PodemResult r = podem(nl, f);
    if (r.status == PodemStatus::Detected) {
      std::cout << "PODEM targets random-resistant fault "
                << to_string(nl, f) << " in " << r.backtracks
                << " backtracks; pattern:";
      for (std::size_t b = 0; b < std::min<std::size_t>(16, r.pattern.size());
           ++b) {
        std::cout << (b ? "" : " ") << r.pattern[b];
      }
      std::cout << (r.pattern.size() > 16 ? "...\n" : "\n");
      break;
    }
  }

  // The full defender flow.
  TestGenOptions opt;
  opt.random_patterns = 64;
  opt.max_patterns = 96;
  const DefenderTestSet ts = generate_atpg_tests(nl, opt);
  std::cout << "defender set: " << ts.patterns.num_patterns()
            << " compacted patterns, coverage " << std::fixed
            << std::setprecision(1) << 100.0 * ts.coverage.coverage()
            << "% (" << ts.untestable << " proven untestable, " << ts.aborted
            << " aborted)\n";
  std::cout << "functional self-test passes: "
            << (functional_test(nl, ts) ? "yes" : "NO") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const tz::VerifyError& e) {
    // TZ_CHECK boundary check tripped: name the corrupted invariant instead
    // of dying with an unexplained exception message.
    std::cerr << "invariant check failed at " << e.phase() << ":\n"
              << e.report().format();
    return 1;
  }
}
