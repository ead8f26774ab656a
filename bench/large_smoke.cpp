// Large-circuit CI smoke: generate a 100k-gate netlist, simulate a pattern
// sample through the compiled plan in every value-matrix layout, and fail on
// any response that differs from the Node-walking reference_simulate; then
// diff the event-driven and
// word-packed fault-simulation backends' detection matrices on a fault
// sample. Bounded to a few seconds — this is a correctness gate for the
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
  // width and the Auto layout goes stripe-major at this slot count.
  const PatternSet ps = random_patterns(nl.inputs().size(), 6400, 17);
  t0 = std::chrono::steady_clock::now();
  const PatternSet reference = reference_outputs(nl, ps);
  std::printf("reference node-walk:   %5lld ms\n", ms_since(t0));
  BitSimulator sim(nl);
  if (sim.plan()->block_words(ps.num_words()) >= ps.num_words()) {
    std::fprintf(stderr, "FAIL: sample width does not exercise striping\n");
    return 1;
  }
  struct Case {
    const char* name;
    ValueLayout layout;
  };
  const Case cases[] = {{"plan contiguous", ValueLayout::Contiguous},
                        {"plan stripe-major", ValueLayout::Striped}};
  NodeValues vals;
  for (const Case& c : cases) {
    t0 = std::chrono::steady_clock::now();
    sim.run_into(vals, ps, nullptr, c.layout);
    const long long elapsed = ms_since(t0);
    PatternSet out(nl.outputs().size(), ps.num_patterns());
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      auto dst = out.words(o);
      vals.copy_row(nl.outputs()[o], dst.data());
      if (!dst.empty()) dst.back() &= out.tail_mask();
    }
    std::printf("%-22s %5lld ms\n", c.name, elapsed);
    if (!BitSimulator::responses_equal(reference, out)) {
      std::fprintf(stderr, "FAIL: %s diverges from the reference responses\n",
                   c.name);
      return 1;
    }
  }
  std::printf("OK: every layout bit-identical to the reference on %zu "
              "patterns\n",
              ps.num_patterns());

  // Packed-vs-event fault-simulation parity at the same scale: detection
  // matrices over a fault sample must be word-identical between the two
  // backends. CI runs this binary under TZ_SIMD=1 and TZ_SIMD=0, so the
  // parity also covers both kernel families the packed sweep dispatches to.
  const auto universe = fault_universe(nl);
  std::vector<Fault> faults;
  const std::size_t stride = std::max<std::size_t>(1, universe.size() / 256);
  for (std::size_t i = 0; i < universe.size(); i += stride) {
    faults.push_back(universe[i]);
  }
  const PatternSet fps = random_patterns(nl.inputs().size(), 128, 23);
  std::vector<std::vector<std::uint64_t>> matrices[2];
  const FaultSimMode modes[] = {FaultSimMode::Event, FaultSimMode::Packed};
  for (int m = 0; m < 2; ++m) {
    t0 = std::chrono::steady_clock::now();
    const auto backend = make_fault_sim_backend(nl, modes[m]);
    backend->set_patterns(fps);
    matrices[m] = backend->detection_matrix(faults);
    std::printf("%-6s fault-sim:      %5lld ms (%zu faults)\n",
                std::string(backend->name()).c_str(), ms_since(t0),
                faults.size());
  }
  if (matrices[0] != matrices[1]) {
    std::fprintf(stderr,
                 "FAIL: packed detection matrices diverge from event\n");
    return 1;
  }
  std::printf("OK: packed and event detection matrices bit-identical\n");
  return 0;
}
