// Large-circuit CI smoke: generate a 100k-gate netlist, simulate a pattern
// sample through the compiled plan, and fail on any response that differs
// from the Node-walking reference_simulate; then diff the event-driven and
// word-packed fault-simulation backends' detect flags and first detecting
// patterns on a fault sample. Bounded to a few seconds — this is a correctness gate for the
// stripe-major + SIMD path and the packed fault sweep at the scale the
// microbenchmarks measure, not a performance run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/fault_sim_backend.hpp"
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

  // Packed-vs-event fault-simulation parity at the same scale: detect flags
  // and first detecting patterns over a fault sample must be identical
  // between the two backends. CI runs this binary under TZ_SIMD=1 and
  // TZ_SIMD=0, so the parity also covers both kernel families the packed
  // sweep dispatches to.
  const auto universe = fault_universe(nl);
  std::vector<Fault> faults;
  const std::size_t stride = std::max<std::size_t>(1, universe.size() / 256);
  for (std::size_t i = 0; i < universe.size(); i += stride) {
    faults.push_back(universe[i]);
  }
  const PatternSet fps = random_patterns(nl.inputs().size(), 128, 23);
  std::vector<bool> flags[2];
  std::vector<std::size_t> first[2];
  const FaultSimMode modes[] = {FaultSimMode::Event, FaultSimMode::Packed};
  for (int m = 0; m < 2; ++m) {
    t0 = std::chrono::steady_clock::now();
    const auto backend = make_fault_sim_backend(nl, modes[m]);
    backend->set_patterns(fps);
    flags[m].assign(faults.size(), false);
    first[m].assign(faults.size(), fps.num_patterns());
    const std::size_t newly = backend->drop_sim(faults, flags[m], first[m]);
    std::printf("%-6s fault-sim:      %5lld ms (%zu faults, %zu detected)\n",
                std::string(backend->name()).c_str(), ms_since(t0),
                faults.size(), newly);
  }
  if (flags[0] != flags[1] || first[0] != first[1]) {
    std::fprintf(stderr,
                 "FAIL: packed detect flags or first detections diverge "
                 "from event\n");
    return 1;
  }
  std::printf(
      "OK: packed and event detect flags and first detections identical\n");
  return 0;
}
