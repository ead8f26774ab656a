// google-benchmark microbenchmarks for the engine kernels: bit-parallel
// simulation, signal probability, fault simulation, PODEM and suite ATPG,
// SAT equivalence and the two TrojanZero algorithms.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "atpg/test_set.hpp"
#include "campaign/driver.hpp"
#include "core/flow_engine.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "prob/signal_prob.hpp"
#include "sat/equivalence.hpp"
#include "sat/miter.hpp"
#include "sim/eval_plan.hpp"
#include "sim/simulator.hpp"
#include "verify/verify.hpp"

namespace {

const tz::Netlist& circuit(const std::string& name) {
  static std::map<std::string, tz::Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, tz::make_benchmark(name)).first;
  }
  return it->second;
}

void BM_BitSimulator(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c3540");
  const tz::PatternSet ps =
      tz::random_patterns(nl.inputs().size(), state.range(0), 1);
  tz::BitSimulator sim(nl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.outputs(ps));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitSimulator)->Arg(64)->Arg(1024)->Arg(8192);

// 100k-gate run of the stripe-major + SIMD evaluation path on the mult96
// array multiplier (108,960 gates) over 32,768 patterns — a 512-word row
// width whose value matrix (~427 MB) falls far out of LLC, so the stripes
// are what keep the walk cache-resident. run_into() reuses one warm matrix
// so the row times the evaluation walk itself; a fresh allocation per
// iteration would add ~400 MB of kernel page-fault zeroing.
void BM_BitSimulator100k(benchmark::State& state) {
  const tz::Netlist& nl = circuit("mult96");
  const tz::PatternSet ps =
      tz::random_patterns(nl.inputs().size(), 64 * 512, 1);
  tz::BitSimulator sim(nl);
  tz::NodeValues vals;
  sim.run_into(vals, ps);  // warm-up: allocate + fault in
  for (auto _ : state) {
    sim.run_into(vals, ps);
    benchmark::DoNotOptimize(vals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 512);
}
BENCHMARK(BM_BitSimulator100k)->Unit(benchmark::kMillisecond);

// Regression guard for the quadratic PatternSet::append: one pattern at a
// time into an initially empty set, the ATPG top-up access pattern. With
// geometric capacity growth each append is amortized O(signals) words; the
// old full-matrix relayout per pattern made the loop O(P^2) and this row
// blows up superlinearly between its two args if that ever comes back.
void BM_PatternSetAppend(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSignals = 64;
  std::unique_ptr<bool[]> bits(new bool[n * kSignals]);
  std::mt19937_64 rng(42);
  for (std::size_t i = 0; i < n * kSignals; ++i) bits[i] = rng() & 1;
  for (auto _ : state) {
    tz::PatternSet acc(kSignals, 0);
    for (std::size_t p = 0; p < n; ++p) {
      acc.append({bits.get() + p * kSignals, kSignals});
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PatternSetAppend)->ArgName("patterns")->Arg(1024)->Arg(16384);

// One-time cost of compiling a netlist into the flat SoA evaluation plan
// (opcode stream + fanin/fanout CSR) every bit-parallel engine now walks.
void BM_EvalPlanCompile(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c6288");
  for (auto _ : state) {
    tz::EvalPlan plan(nl);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_EvalPlanCompile);

// The SuiteOracle's fused cone pass at defender-suite widths of 1/4/16
// words (64/256/1024 patterns): one tie verdict per combinational gate, the
// steady-state cost of an Algorithm 1 candidate screen.
void BM_ConePassWords(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c3540");
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  tz::DefenderSuite suite;
  tz::DefenderTestSet ts;
  ts.name = "random";
  ts.patterns = tz::random_patterns(nl.inputs().size(), 64 * words, 11);
  ts.golden = tz::BitSimulator(nl).outputs(ts.patterns);
  suite.algorithms.push_back(std::move(ts));
  tz::SuiteOracle oracle(nl, suite);
  std::vector<tz::NodeId> gates;
  for (tz::NodeId id = 0; id < nl.raw_size(); ++id) {
    if (nl.is_alive(id) && tz::is_combinational(nl.node(id).type)) {
      gates.push_back(id);
    }
  }
  for (auto _ : state) {
    std::size_t visible = 0;
    for (tz::NodeId g : gates) visible += oracle.tie_visible(g, true) ? 1 : 0;
    benchmark::DoNotOptimize(visible);
  }
  state.SetItemsProcessed(state.iterations() * gates.size());
}
BENCHMARK(BM_ConePassWords)->ArgName("words")->Arg(1)->Arg(4)->Arg(16);

void BM_SignalProb(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c3540");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::SignalProb(nl));
  }
}
BENCHMARK(BM_SignalProb);

void BM_MonteCarloProb(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c3540");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::monte_carlo_p1(nl, state.range(0), 7));
  }
}
BENCHMARK(BM_MonteCarloProb)->Arg(1024)->Arg(16384);

void BM_FaultSimulation(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c880");
  const auto faults = tz::collapse_faults(nl, tz::fault_universe(nl));
  const tz::PatternSet ps = tz::random_patterns(nl.inputs().size(), 64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::grade_patterns(nl, faults, ps));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_FaultSimulation);

// Engine reuse: good machine and static analyses amortised over iterations,
// the steady-state cost of grading inside a salvage/ATPG loop (one drop_sim
// from all-false flags per iteration).
void BM_FaultSimEngineReuse(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c880");
  const auto faults = tz::collapse_faults(nl, tz::fault_universe(nl));
  const tz::PatternSet ps = tz::random_patterns(nl.inputs().size(), 64, 3);
  tz::FaultSimEngine engine(nl);
  engine.set_patterns(ps);
  for (auto _ : state) {
    std::vector<bool> detected(faults.size(), false);
    benchmark::DoNotOptimize(engine.drop_sim(faults, detected));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_FaultSimEngineReuse);

// Incremental drop-sim: stream single patterns through one engine, dropping
// detected faults — the ATPG phase-2 access pattern.
void BM_FaultSimDropSim(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c880");
  const auto faults = tz::collapse_faults(nl, tz::fault_universe(nl));
  const tz::PatternSet ps = tz::random_patterns(nl.inputs().size(), 64, 3);
  tz::FaultSimEngine engine(nl);
  for (auto _ : state) {
    std::vector<bool> detected(faults.size(), false);
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
      engine.set_patterns(ps.slice(p, 1));
      benchmark::DoNotOptimize(engine.drop_sim(faults, detected));
    }
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_FaultSimDropSim);

void BM_PodemPerFault(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c880");
  const auto faults = tz::fault_universe(nl);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::podem(nl, faults[i % faults.size()]));
    ++i;
  }
}
BENCHMARK(BM_PodemPerFault);

void BM_AtpgFlow(benchmark::State& state) {
  const tz::Netlist& nl = circuit("c432");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::generate_atpg_tests(nl));
  }
}
BENCHMARK(BM_AtpgFlow)->Unit(benchmark::kMillisecond);

// Defender-suite ATPG at campaign scale: generate_atpg_tests with the
// testgen a seed-1 campaign job resolves for the circuit. PODEM aborts set
// the cost on these circuits, so the rows are the same-run A/B for PODEM
// changes (an incremental D-frontier, a SAT fallback for aborts).
void BM_AtpgSuite(benchmark::State& state, const std::string& name) {
  const tz::Netlist& nl = circuit(name);
  tz::JobSpec spec;
  spec.circuit = name;
  spec.seed = 1;
  const tz::TestGenOptions opt = spec.testgen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::generate_atpg_tests(nl, opt));
  }
}
BENCHMARK_CAPTURE(BM_AtpgSuite, rand2k, "rand2k")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AtpgSuite, rand5k, "rand5k")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AtpgSuite, wallace48, "wallace48")
    ->Unit(benchmark::kMillisecond);

// The arena CDCL solver driving the incremental cone-sliced miter, proving
// the c880 self-miter UNSAT. The `search` row disables structural matching
// and the simulation pre-pass, so every output pair is proved by actual CDCL
// search over the Tseitin structure — it measures the solver core (watched
// literals with blockers, dedicated binary lists, VSIDS heap, first-UIP +
// minimization, restarts, LBD-kept learnts) plus the per-output slicing, not
// the shortcuts. The `production` row is the default check_equivalence
// configuration with all accelerations on.
void BM_SatEquivalence(benchmark::State& state, bool accelerated) {
  const tz::Netlist& nl = circuit("c880");
  for (auto _ : state) {
    tz::sat::MiterOptions opts;
    opts.prepass = accelerated;
    opts.structural_match = accelerated;
    tz::sat::IncrementalMiter miter(nl, nl, opts);
    benchmark::DoNotOptimize(miter.check());
  }
  state.SetLabel("self-miter UNSAT");
}
BENCHMARK_CAPTURE(BM_SatEquivalence, search, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SatEquivalence, production, true)
    ->Unit(benchmark::kMillisecond);

// Equivalence checking at 100k-gate scale, a regime a monolithic one-shot
// miter cannot touch (its CNF over two full copies never returns).
//
// `rewritten_unsat` is the salvage-shaped UNSAT case: rand100k against a
// copy with 32 local DeMorgan rewrites (And(a,b) -> Nor(~a,~b)) spread
// through the circuit. Structural matching shares everything outside the
// rewrite cones, the bounded sweep queries re-merge the frontiers just
// above each rewrite, and the per-output checks ride the shared variables —
// the whole proof is a few thousand tiny UNSAT calls instead of one
// monolithic solve.
//
// `edited_sat` is the witness case: one mid-circuit gate negated. The
// simulation pre-pass is disabled so the row times the SAT path — cones are
// encoded output by output in topo order until the first affected output
// yields a model, which becomes the replayable counterexample.
const tz::Netlist& rand100k_rewritten() {
  static const tz::Netlist rewritten = [] {
    tz::Netlist nl = circuit("rand100k");
    std::vector<tz::NodeId> ands;
    for (const tz::NodeId id : nl.topo_order()) {
      if (nl.node(id).type == tz::GateType::And &&
          nl.node(id).fanin.size() == 2) {
        ands.push_back(id);
      }
    }
    const std::size_t step = std::max<std::size_t>(1, ands.size() / 32);
    int done = 0;
    for (std::size_t i = 0; i < ands.size() && done < 32; i += step, ++done) {
      const tz::NodeId g = ands[i];
      const auto fan = nl.node(g).fanin;
      const std::string tag = "dm" + std::to_string(done);
      const tz::NodeId na =
          nl.add_gate(tz::GateType::Not, tag + "_a", {fan[0]});
      const tz::NodeId nb =
          nl.add_gate(tz::GateType::Not, tag + "_b", {fan[1]});
      const tz::NodeId ng =
          nl.add_gate(tz::GateType::Nor, tag + "_g", {na, nb});
      nl.replace_uses(g, ng);
      nl.remove_node(g);
    }
    return nl;
  }();
  return rewritten;
}

const tz::Netlist& rand100k_edited() {
  static const tz::Netlist edited = [] {
    tz::Netlist nl = circuit("rand100k");
    const std::vector<tz::NodeId> order = nl.topo_order();
    for (std::size_t i = order.size() / 2; i < order.size(); ++i) {
      if (nl.node(order[i]).type == tz::GateType::And) {
        nl.retype(order[i], tz::GateType::Nand);
        break;
      }
    }
    return nl;
  }();
  return edited;
}

void BM_SatEquivalence100k(benchmark::State& state, bool unsat_case) {
  const tz::Netlist& nl = circuit("rand100k");
  const tz::Netlist& other =
      unsat_case ? rand100k_rewritten() : rand100k_edited();
  for (auto _ : state) {
    tz::sat::MiterOptions opts;
    opts.prepass = false;  // time the SAT path, not the simulator
    tz::sat::IncrementalMiter miter(nl, other, opts);
    const tz::sat::EquivalenceResult res = miter.check();
    if (res.equivalent != unsat_case || !res.decided) {
      state.SkipWithError("wrong verdict");
      break;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetLabel(unsat_case ? "32 DeMorgan rewrites proved equal"
                            : "1 negated gate, witness found");
}
BENCHMARK_CAPTURE(BM_SatEquivalence100k, rewritten_unsat, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SatEquivalence100k, edited_sat, false)
    ->Unit(benchmark::kMillisecond);

// ---- TrojanZero flow phases on the incremental FlowEngine ----
// The defender suite and salvage result are built once per circuit so the
// benchmarks time Algorithm 1/2 themselves, not the ATPG setup.

struct FlowFixture {
  tz::Netlist nl;
  tz::DefenderSuite suite;
  tz::PowerModel pm{tz::CellLibrary::tsmc65_like()};
  tz::SalvageOptions sopt;
  tz::SalvageResult salvage;
};

// `pth` = 0 takes the Table I threshold, which only the ISCAS-class
// circuits carry.
const FlowFixture& flow_fixture(const std::string& name, double pth = 0.0) {
  static std::map<std::string, FlowFixture> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    FlowFixture f;
    f.nl = tz::make_benchmark(name);
    f.suite =
        tz::make_defender_suite(f.nl, tz::FlowOptions::atpg_only_defender());
    f.sopt.pth = pth > 0.0 ? pth : tz::spec_for(name).pth;
    f.salvage = tz::salvage_power_area(f.nl, f.suite, f.pm, f.sopt);
    it = cache.emplace(name, std::move(f)).first;
  }
  return it->second;
}

/// Heap bytes in use (small-chunk arenas plus mmapped blocks).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// The two netlist copies every campaign job pays: a deep copy (the salvage
// work netlist's source, N'' from N') and compact(). copy_ms and compact_ms
// split the iteration time; bytes_per_node is the heap one copy holds,
// divided by its node count.
void BM_NetlistCopy(benchmark::State& state, const std::string& name) {
  const tz::Netlist nl = tz::make_benchmark(name);
  double bytes = 0.0;
  {
    const std::size_t before = heap_in_use();
    const tz::Netlist copy = nl;
    bytes = static_cast<double>(heap_in_use() - before + sizeof(tz::Netlist));
    benchmark::DoNotOptimize(copy.raw_size());
  }
  double copy_s = 0.0, compact_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    tz::Netlist copy = nl;
    benchmark::DoNotOptimize(copy.raw_size());
    const auto t1 = std::chrono::steady_clock::now();
    tz::Netlist dense = copy.compact();
    benchmark::DoNotOptimize(dense.raw_size());
    const auto t2 = std::chrono::steady_clock::now();
    copy_s += std::chrono::duration<double>(t1 - t0).count();
    compact_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(std::max<benchmark::IterationCount>(
      state.iterations(), 1));
  state.counters["copy_ms"] = 1e3 * copy_s / n;
  state.counters["compact_ms"] = 1e3 * compact_s / n;
  state.counters["bytes_per_node"] = bytes / static_cast<double>(nl.raw_size());
}
BENCHMARK_CAPTURE(BM_NetlistCopy, wallace48, "wallace48")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NetlistCopy, rand5k, "rand5k")
    ->Unit(benchmark::kMillisecond);

void BM_SalvageFlow(benchmark::State& state, const std::string& name,
                    double pth) {
  const FlowFixture& f = flow_fixture(name, pth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tz::salvage_power_area(f.nl, f.suite, f.pm, f.sopt));
  }
}
BENCHMARK_CAPTURE(BM_SalvageFlow, c880, "c880", 0.0)
    ->Unit(benchmark::kMillisecond);
// >2k-gate array-multiplier stress: dense arithmetic where the defender's
// coverage leaves almost nothing salvageable — the oracle still has to judge
// every candidate cone.
BENCHMARK_CAPTURE(BM_SalvageFlow, c6288, "c6288", 0.0)
    ->Unit(benchmark::kMillisecond);
// The commit-heavy case (ht-sweep's first circuit at its lowest threshold):
// ~21.5k gates and thousands of accepted ties, so the per-commit cost of the
// tie sweep and plan patch shows; c6288 accepts none.
BENCHMARK_CAPTURE(BM_SalvageFlow, wallace48, "wallace48", 0.99)
    ->Unit(benchmark::kMillisecond);

// Same salvage with the tz::verify flow-boundary checks forced on: every
// accepted tie re-proves the netlist invariants and the patched-plan
// equivalence diff (one O(V+E) recompile per commit). Compare against
// BM_SalvageFlow/c6288 in the same run for the TZ_CHECK=1 overhead —
// documented in README (a few percent: commits are rare next to judging).
void BM_SalvageFlowChecked(benchmark::State& state, const std::string& name) {
  const FlowFixture& f = flow_fixture(name);
  tz::set_check_enabled(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tz::salvage_power_area(f.nl, f.suite, f.pm, f.sopt));
  }
  tz::set_check_enabled(-1);
}
BENCHMARK_CAPTURE(BM_SalvageFlowChecked, c6288, "c6288")
    ->Unit(benchmark::kMillisecond);
// c880 actually accepts removals under its Table I threshold, so this is the
// commit-heavy case where the per-commit checks genuinely run.
BENCHMARK_CAPTURE(BM_SalvageFlowChecked, c880, "c880")
    ->Unit(benchmark::kMillisecond);

void BM_InsertTrojan(benchmark::State& state, const std::string& name,
                     double pth, tz::InsertionOptions iopt) {
  const FlowFixture& f = flow_fixture(name, pth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tz::insert_trojan(f.nl, f.salvage, f.suite, f.pm, iopt));
  }
}
BENCHMARK_CAPTURE(BM_InsertTrojan, c880, "c880", 0.0,
                  tz::InsertionOptions{.library = {tz::counter_trojan(3),
                                                  tz::counter_trojan(2)}})
    ->Unit(benchmark::kMillisecond);
// The multiplier's signal probabilities hug 0.5, so the rare-net cut is
// relaxed to give the trigger search a real pool to walk.
BENCHMARK_CAPTURE(BM_InsertTrojan, c6288, "c6288", 0.0,
                  tz::InsertionOptions{.library = {tz::counter_trojan(5),
                                                  tz::counter_trojan(3)},
                                       .rare_p1 = 0.25})
    ->Unit(benchmark::kMillisecond);
// Insertion into wallace48's salvaged slack, where dummy balancing may
// commit up to kMaxDummyGates (256) gates, each judged on the tracker's
// totals.
BENCHMARK_CAPTURE(BM_InsertTrojan, wallace48, "wallace48", 0.99,
                  tz::InsertionOptions{.library = {tz::counter_trojan(3),
                                                  tz::counter_trojan(2)}})
    ->Unit(benchmark::kMillisecond);

void BM_FullTrojanZeroFlow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(tz::run_trojanzero_flow("c432"));
  }
}
BENCHMARK(BM_FullTrojanZeroFlow)->Unit(benchmark::kMillisecond);

// Campaign artifact sharing, same-run A/B: the same 8-job grid (c432+c499,
// counter_bits {2,3} × trigger_widths {2,4}) run cold — a fresh ArtifactStore
// per job, so every job re-parses the netlist, re-analyzes power, regenerates
// the defender suite and rebuilds the oracle rows — versus shared, one store
// for the whole grid (2 circuit entries + 2 suite entries amortized over 8
// jobs, which is the campaign driver's steady state). The shared/cold ratio
// is the artifact layer's win; the checked-in BENCH_perf_engines.json rows
// document it at >=2x.
const std::vector<tz::JobSpec>& campaign_grid_jobs() {
  static const std::vector<tz::JobSpec> jobs = [] {
    tz::CampaignGrid g;
    g.circuits = {"c432", "c499"};
    g.counter_bits = {2, 3};
    g.trigger_widths = {2, 4};
    return g.expand();
  }();
  return jobs;
}

void BM_Campaign(benchmark::State& state, bool shared) {
  const std::vector<tz::JobSpec>& jobs = campaign_grid_jobs();
  for (auto _ : state) {
    tz::ArtifactStore store;
    for (const tz::JobSpec& spec : jobs) {
      if (shared) {
        benchmark::DoNotOptimize(tz::run_flow_job(spec, store));
      } else {
        tz::ArtifactStore cold;
        benchmark::DoNotOptimize(tz::run_flow_job(spec, cold));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * jobs.size());
}
BENCHMARK_CAPTURE(BM_Campaign, cold, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Campaign, shared, true)->Unit(benchmark::kMillisecond);

// The campaign driver itself: run_campaign on a 2-circuit Pth × order grid
// (c432+c499 × pth {0.99, 0.995} × order {p, l} × counter_bits {2, 3} = 16
// jobs on 2 suites and 8 salvage entries) at 1 and 4 job-level threads,
// checkpoint file included. Unlike BM_Campaign's serial loop, this sees the
// artifact sharing, the suite/salvage build locks and the entry lifetimes
// as the driver schedules them.
void BM_CampaignDriver(benchmark::State& state) {
  tz::CampaignGrid grid;
  grid.circuits = {"c432", "c499"};
  grid.counter_bits = {2, 3};
  grid.pths = {0.99, 0.995};
  grid.orders = {'p', 'l'};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tz_bm_campaign_driver_" + std::to_string(::getpid()));
  tz::CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tz::run_campaign(grid, opt));
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * grid.expand().size());
}
BENCHMARK(BM_CampaignDriver)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
