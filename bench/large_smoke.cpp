// Large-circuit CI smoke: generate a 100k-gate netlist, simulate a pattern
// sample through the compiled plan, and fail on any response that differs
// from the Node-walking reference_simulate; then hold the fault-simulation
// engine's detect flags and first detecting patterns on a fault sample to
// reference fault injection. Bounded to seconds — this is a correctness
// gate for the stripe-major + SIMD path and the event-driven cone pass at
// the scale the microbenchmarks measure, not a performance run.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "gen/iscas.hpp"
#include "sim/simulator.hpp"

namespace {

long long ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace tz;
  auto t0 = std::chrono::steady_clock::now();
  const Netlist nl = make_benchmark("rand100k");
  std::printf("rand100k: %zu gates, generated in %lld ms\n", nl.gate_count(),
              ms_since(t0));
  if (nl.gate_count() != 100000) {
    std::fprintf(stderr, "FAIL: expected exactly 100000 gates\n");
    return 1;
  }

  // 6400 patterns = 100 words: wide enough that the plan path splits the row
  // width into stripes at this slot count.
  const PatternSet ps = random_patterns(nl.inputs().size(), 6400, 17);
  t0 = std::chrono::steady_clock::now();
  const PatternSet reference = reference_outputs(nl, ps);
  std::printf("reference node-walk:   %5lld ms\n", ms_since(t0));
  BitSimulator sim(nl);
  if (sim.plan()->block_words(ps.num_words()) >= ps.num_words()) {
    std::fprintf(stderr, "FAIL: sample width does not exercise striping\n");
    return 1;
  }
  t0 = std::chrono::steady_clock::now();
  const PatternSet out = sim.outputs(ps);
  std::printf("plan stripe-major:     %5lld ms\n", ms_since(t0));
  if (!BitSimulator::responses_equal(reference, out)) {
    std::fprintf(stderr, "FAIL: plan diverges from the reference responses\n");
    return 1;
  }
  std::printf("OK: plan bit-identical to the reference on %zu patterns\n",
              ps.num_patterns());

  // Engine-vs-reference fault-simulation parity at the same scale: each
  // sampled fault's first detecting pattern (and so its flag) must equal the
  // one reference fault injection finds — the fault site's readers and
  // output markings moved onto a tie cell in a netlist copy, evaluated by
  // reference_simulate. The good machine comes from the engine's plan run,
  // so CI runs this binary under TZ_SIMD=1 and TZ_SIMD=0 to cover both
  // stripe-kernel families.
  const auto universe = fault_universe(nl);
  std::vector<Fault> faults;
  const std::size_t stride = std::max<std::size_t>(1, universe.size() / 256);
  for (std::size_t i = 0; i < universe.size(); i += stride) {
    faults.push_back(universe[i]);
  }
  const PatternSet fps = random_patterns(nl.inputs().size(), 128, 23);
  constexpr std::size_t kUndetected = ~std::size_t{0};
  t0 = std::chrono::steady_clock::now();
  FaultSimEngine engine(nl);
  engine.set_patterns(fps);
  std::vector<bool> flags(faults.size(), false);
  std::vector<std::size_t> first(faults.size(), kUndetected);
  const std::size_t newly = engine.drop_sim(faults, flags, first);
  std::printf("engine fault-sim:      %5lld ms (%zu faults, %zu detected)\n",
              ms_since(t0), faults.size(), newly);

  t0 = std::chrono::steady_clock::now();
  const PatternSet good = reference_outputs(nl, fps);
  std::vector<std::size_t> want(faults.size(), kUndetected);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    Netlist faulty = nl;
    const NodeId tie = faulty.const_node(faults[i].value == StuckAt::One);
    if (tie != faults[i].node) faulty.replace_uses(faults[i].node, tie);
    const PatternSet bad = reference_outputs(faulty, fps);
    for (std::size_t w = 0; w < fps.num_words() && want[i] == kUndetected;
         ++w) {
      std::uint64_t diff = 0;
      for (std::size_t o = 0; o < good.num_signals(); ++o) {
        diff |= good.words(o)[w] ^ bad.words(o)[w];
      }
      if (diff) {
        want[i] = 64 * w + static_cast<std::size_t>(std::countr_zero(diff));
      }
    }
  }
  std::printf("reference injection:   %5lld ms\n", ms_since(t0));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (flags[i] != (want[i] != kUndetected) || first[i] != want[i]) {
      std::fprintf(stderr,
                   "FAIL: %s: engine first detect %zu, reference %zu\n",
                   to_string(nl, faults[i]).c_str(), first[i], want[i]);
      return 1;
    }
  }
  std::printf(
      "OK: engine detect flags and first detections equal reference fault "
      "injection\n");
  return 0;
}
