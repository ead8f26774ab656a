// tzbench: the repository benchmark (see BENCHMARK.json and tzbench/README.md).
//
// Usage:
//   tzbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//           --work-dir <dir>
//
// Workloads: campaign1k, ht-sweep, flow-cold, plus the reduced smoke and
// smoke-flow used by tzbench/smoke_test.py. --seed N selects the sub-seeds
// the run measures (see subseeds()); every sub-seed shifts each defender
// testgen seed, and seed 0 starts with the grids exactly as written.
//
// Untraced (--trace 0): runs the workload through the public entry points a
// user calls (run_campaign + merge_campaign at the default thread count, or
// one run_trojanzero_flow per circuit), one pass per sub-seed and more while
// another pass fits in --seconds, and reports medians over the passes.
//
// Traced (--trace 1): one untraced pass for the waiting and parallelism
// figures, then a single-threaded replay of the same jobs in the same order
// that calls each layer's public functions directly and records a span around
// every call. Every layer time is taken from outside, around the call:
// FlowMeta::wall_ms starts after get_job_inputs, so it leaves out the suite
// build that dominates a campaign job and is never read here. The replay's
// per-job results must equal the untraced run's rows, so the per-layer
// numbers describe the same program. Spans are written as Chrome trace-event
// JSON to <work-dir>/trace-<workload>-seed<N>.json.
//
// Every run checks the outputs (merged rows parse, one row per job, zero
// footprint, Pft in [0,1], inserted N'' passes the defender suite on the cold
// flows, passes agree) and exits 1 on any violation. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/test_set.hpp"
#include "campaign/artifacts.hpp"
#include "campaign/driver.hpp"
#include "campaign/job.hpp"
#include "campaign/json.hpp"
#include "core/flow_engine.hpp"
#include "core/report.hpp"
#include "core/trigger_prob.hpp"
#include "gen/iscas.hpp"
#include "sim/eval_plan.hpp"
#include "tech/power_model.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeedStride = 1000;
/// Set-up takes under a millisecond, so it is repeated and the median kept.
constexpr int kSetupReps = 201;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Correctness gate: collects every violation; any one fails the run.
class Gate {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    if (violations_.size() < 20) std::cerr << "tzbench: VIOLATION: " << what << "\n";
    violations_.push_back(what);
  }
  bool ok() const { return violations_.empty(); }

 private:
  std::vector<std::string> violations_;
};

// ------------------------------------------------------------------ tracing

/// In-memory span recorder for the single-threaded replay. Spans nest by
/// scope; each records its name, job id, start/end and parent span.
class Tracer {
 public:
  struct Rec {
    std::string name;
    std::string job;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  int open(std::string name, std::string job) {
    Rec r;
    r.parent = stack_.empty() ? -1 : stack_.back();
    if (job.empty() && r.parent >= 0) job = spans_[r.parent].job;
    r.name = std::move(name);
    r.job = std::move(job);
    r.start_us = now_us();
    spans_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    spans_[idx].end_us = now_us();
    stack_.pop_back();
  }

  const std::vector<Rec>& spans() const { return spans_; }

  /// Durations in seconds of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Rec& r : spans_) {
      if (r.name == name) out.push_back(1e-6 * (r.end_us - r.start_us));
    }
    return out;
  }

  double total_s(const std::string& name) const {
    double t = 0.0;
    for (const double d : durations(name)) t += d;
    return t;
  }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing). One
  /// track per recording thread; the replay is single-threaded, so one.
  tz::Json chrome_json(const std::string& workload, std::uint64_t seed) const {
    tz::JsonArray events;
    tz::Json meta = tz::Json(tz::JsonObject{});
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", 1);
    tz::Json meta_args = tz::Json(tz::JsonObject{});
    meta_args.set("name", "replay");
    meta.set("args", std::move(meta_args));
    events.push_back(std::move(meta));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      tz::Json e = tz::Json(tz::JsonObject{});
      e.set("name", r.name);
      e.set("cat", r.name.substr(0, r.name.find('.')));
      e.set("ph", "X");
      e.set("ts", r.start_us);
      e.set("dur", r.end_us - r.start_us);
      e.set("pid", 1);
      e.set("tid", 1);
      tz::Json args = tz::Json(tz::JsonObject{});
      args.set("span", i);
      args.set("parent", r.parent);
      args.set("job", r.job);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    tz::Json doc = tz::Json(tz::JsonObject{});
    doc.set("traceEvents", tz::Json(std::move(events)));
    doc.set("displayTimeUnit", "ms");
    tz::Json other = tz::Json(tz::JsonObject{});
    other.set("workload", workload);
    other.set("seed", seed);
    doc.set("otherData", std::move(other));
    return doc;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& t, std::string name, std::string job = {})
      : t_(t), idx_(t.open(std::move(name), std::move(job))) {}
  ~Span() { t_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ---------------------------------------------------------------- workloads

std::uint64_t shift_seed(std::uint64_t grid_seed, std::uint64_t subseed) {
  const std::uint64_t base = grid_seed == 0 ? tz::TestGenOptions{}.seed : grid_seed;
  return base + kSeedStride * subseed;
}

/// A campaign workload runs `grid` through run_campaign; a cold workload
/// (empty grid.circuits) runs run_trojanzero_flow once per `cold` circuit.
struct Workload {
  tz::CampaignGrid grid;
  std::vector<std::string> cold;
  bool campaign() const { return !grid.circuits.empty(); }
};

/// Inputs per run: a run of seed s measures sub-seeds K*s .. K*s+K-1, each
/// shifting every testgen seed by 1000 * sub-seed, so sub-seed 0 of seed 0
/// is the grid as written. ht-sweep has only two defender suites, so one
/// input's cost swings with its seed; campaign1k already spans 256. smoke
/// takes two so the smoke test covers the sub-seed cycle.
std::size_t subseeds(const std::string& name) {
  if (name == "ht-sweep") return 4;
  if (name == "smoke") return 2;
  return 1;
}

Workload make_workload(const std::string& name, std::uint64_t subseed) {
  Workload w;
  if (name == "campaign1k" || name == "smoke") {
    w.grid = tz::CampaignGrid::preset(name);
  } else if (name == "ht-sweep") {
    // Two defender suites shared by 36 jobs each: salvage and insertion do
    // most of the work.
    w.grid.name = name;
    w.grid.circuits = {"wallace48", "rand5k"};
    w.grid.seeds = {1};
    w.grid.counter_bits = {2, 3, 4};
    w.grid.trigger_widths = {2, 4};
    w.grid.pths = {0.99, 0.992, 0.995};
    w.grid.orders = {'p', 'l'};
  } else if (name == "flow-cold") {
    w.cold = {"rand2k", "wallace16", "rand10k"};
  } else if (name == "smoke-flow") {
    w.cold = {"c17", "c432"};
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  for (std::uint64_t& s : w.grid.seeds) s = shift_seed(s, subseed);
  return w;
}

/// One sub-seed's jobs, in grid order (the campaign's canonical job order).
struct Inputs {
  Workload workload;
  std::vector<tz::JobSpec> jobs;
  std::vector<std::string> ids;
};

Inputs make_inputs(const std::string& name, std::uint64_t subseed) {
  Inputs in;
  in.workload = make_workload(name, subseed);
  if (in.workload.campaign()) {
    in.jobs = in.workload.grid.expand();
  } else {
    for (const std::string& c : in.workload.cold) {
      tz::JobSpec s;
      s.circuit = c;
      s.seed = shift_seed(0, subseed);
      s.threads = 0;  // the flow's default thread count
      in.jobs.push_back(s);
    }
  }
  for (const tz::JobSpec& j : in.jobs) in.ids.push_back(j.id());
  return in;
}

/// Everything the benchmark prepares before its first timed call.
struct Prepared {
  std::vector<Inputs> inputs;  ///< One per sub-seed.
  std::string run_dir;
  std::unique_ptr<tz::PowerModel> pm;  ///< The replay's shared model.
};

Prepared prepare(const std::string& name, std::uint64_t seed,
                 const std::string& run_dir) {
  Prepared p;
  const std::size_t k = subseeds(name);
  for (std::size_t i = 0; i < k; ++i) p.inputs.push_back(make_inputs(name, k * seed + i));
  p.run_dir = run_dir;
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  p.pm = std::make_unique<tz::PowerModel>(tz::CellLibrary::tsmc65_like());
  return p;
}

// ------------------------------------------------------------ output checks

/// A row's canonical text for comparisons: the volatile wall time and the
/// resolved thread count are zeroed.
std::string canonical(const tz::FlowResult& r) {
  tz::Json j = tz::flow_result_to_json(r);
  tz::Json& meta = *j.find("meta");
  *meta.find("wall_ms") = tz::Json(0.0);
  *meta.find("threads") = tz::Json(0);
  return j.dump();
}

bool in_unit(double v) { return v >= 0.0 && v <= 1.0; }

/// Zero footprint and Pft range for one successful insertion.
void check_row(const tz::FlowResult& r, const std::string& id, Gate& gate) {
  if (!r.insertion.success) return;
  gate.require(r.p_npp.dynamic_uw <= r.p_n.dynamic_uw &&
                   r.p_npp.leakage_uw <= r.p_n.leakage_uw &&
                   r.p_npp.area_ge <= r.p_n.area_ge,
               id + ": N'' exceeds N on dynamic, leakage or area");
  gate.require(in_unit(r.pft) && in_unit(r.pft_payload),
               id + ": pft or pft_payload outside [0,1]");
}

// ---------------------------------------------------------- untraced passes

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> flow_s;     ///< Cold workloads: per-circuit latency.
  std::vector<std::string> rows;  ///< canonical() per job, job order.
  std::size_t failed = 0;
  std::size_t inserted = 0;
  double merge_ms = 0.0;
  std::size_t artifact_bytes = 0;
};

PassResult campaign_pass(const Inputs& in, const std::string& dir, Gate& gate) {
  PassResult out;
  tz::CampaignOptions opt;
  opt.out_dir = dir;
  opt.threads = 0;  // nproc (TZ_THREADS-aware)
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  tz::run_campaign(in.workload.grid, opt);
  const auto t1 = Clock::now();
  const std::string merged = tz::merge_campaign(in.workload.grid, opt.out_dir, 1);
  const auto t2 = Clock::now();
  out.cpu_s = cpu_seconds() - c0;
  out.wall_s = seconds_between(t0, t2);
  out.merge_ms = 1e3 * seconds_between(t1, t2);
  out.artifact_bytes = merged.size();
  fs::remove_all(opt.out_dir);

  const std::vector<tz::CampaignRow> rows = tz::parse_campaign_artifact(merged);
  gate.require(rows.size() == in.jobs.size(),
               "merged artifact has " + std::to_string(rows.size()) +
                   " rows for " + std::to_string(in.jobs.size()) + " jobs");
  for (std::size_t i = 0; i < rows.size() && i < in.ids.size(); ++i) {
    gate.require(rows[i].id == in.ids[i], "row " + std::to_string(i) +
                                             " is " + rows[i].id +
                                             ", expected " + in.ids[i]);
    if (!rows[i].error.empty()) {
      ++out.failed;
      out.rows.push_back("error: " + rows[i].error);
      continue;
    }
    check_row(rows[i].result, rows[i].id, gate);
    out.inserted += rows[i].result.insertion.success ? 1 : 0;
    out.rows.push_back(canonical(rows[i].result));
  }
  return out;
}

PassResult cold_pass(const Inputs& in, Gate& gate) {
  PassResult out;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const tz::JobSpec spec = in.jobs[i].resolved();
    const tz::FlowOptions opt = spec.flow_options();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const tz::FlowResult r = tz::run_trojanzero_flow(spec.circuit, opt);
    const double wall = seconds_between(t0, Clock::now());
    out.cpu_s += cpu_seconds() - c0;
    out.wall_s += wall;
    out.flow_s.push_back(wall);

    check_row(r, in.ids[i], gate);
    if (r.insertion.success) {
      gate.require(tz::functional_test(r.insertion.infected, r.suite),
                   in.ids[i] + ": inserted N'' fails the defender suite");
      ++out.inserted;
    }
    // The cold flow's artifact: its rows in the campaign wire format.
    const auto s0 = Clock::now();
    out.rows.push_back(canonical(r));
    out.merge_ms += 1e3 * seconds_between(s0, Clock::now());
    out.artifact_bytes += out.rows.back().size() + 1;
  }
  return out;
}

/// Pass k runs sub-seed k mod K.
PassResult run_pass(const Prepared& p, std::size_t k, Gate& gate) {
  const Inputs& in = p.inputs[k % p.inputs.size()];
  return in.workload.campaign()
             ? campaign_pass(in, p.run_dir + "/pass-" + std::to_string(k), gate)
             : cold_pass(in, gate);
}

// ------------------------------------------------------------ traced replay

/// What the replay counted, from the public result structs.
struct Replay {
  std::vector<std::string> rows;  ///< canonical() per job, job order.
  double wall_s = 0.0;            ///< The direct-call loop.
  std::size_t gates = 0;
  std::size_t suites = 0, patterns = 0, aborted = 0, untestable = 0;
  double coverage_sum = 0.0;
  std::size_t candidates = 0, accepted = 0, locations = 0;
  std::size_t fail_test = 0, fail_caps = 0, dummies = 0;
};

void count_suite(const tz::DefenderSuite& suite, Replay& out) {
  ++out.suites;
  for (const tz::DefenderTestSet& ts : suite.algorithms) {
    out.patterns += ts.patterns.num_patterns();
    out.aborted += ts.aborted;
    out.untestable += ts.untestable;
  }
  if (!suite.algorithms.empty()) {
    out.coverage_sum += suite.algorithms.front().coverage.coverage();
  }
}

void count_job(const tz::FlowResult& r, Replay& out) {
  out.candidates += r.salvage.candidates;
  out.accepted += r.salvage.accepted.size();
  out.locations += static_cast<std::size_t>(r.insertion.tried_locations);
  out.fail_test += static_cast<std::size_t>(r.insertion.fail_test);
  out.fail_caps += static_cast<std::size_t>(r.insertion.fail_caps);
  out.dummies += r.insertion.dummy_gates;
  out.rows.push_back(canonical(r));
}

/// Algorithms 1 and 2, Pft and the provenance stamp, through FlowEngine's
/// public API in the order run_trojanzero_flow / run_flow_job use.
/// `r` already holds N, the suite, the coverage and P(N).
void run_engine(tz::FlowResult& r, const tz::FlowOptions& opt,
                const tz::PowerModel& pm, const tz::FlowSharedInputs* shared,
                Tracer& tr) {
  tz::FlowEngine engine(r.original, r.suite, pm);
  engine.set_shared(shared);
  tz::SalvageOptions sopt;
  sopt.pth = opt.pth;
  sopt.order = opt.order;
  sopt.threads = opt.threads;
  {
    Span s(tr, "core.salvage");
    r.salvage = engine.salvage(sopt);
  }
  r.p_np = r.salvage.power_after;
  tz::InsertionOptions iopt = opt.insertion;
  if (iopt.threads == 0) iopt.threads = opt.threads;
  {
    Span s(tr, "core.insert");
    r.insertion = engine.insert(r.salvage, iopt);
  }
  r.p_npp = r.insertion.power;
  if (r.insertion.success) {
    std::size_t test_len = 0;
    for (const tz::DefenderTestSet& ts : r.suite.algorithms) {
      test_len += ts.patterns.num_patterns();
    }
    r.pft = tz::analytic_pft(r.insertion.trigger_p1, test_len, 0);
    r.pft_payload = tz::analytic_pft(r.insertion.trigger_p1, test_len,
                                     r.insertion.ht_desc.counter_bits);
  }
  r.meta.circuit = r.benchmark;
  r.meta.seed = opt.testgen.seed;
  r.meta.gates = r.original.gate_count();
  r.meta.inputs = r.original.inputs().size();
  r.meta.outputs = r.original.outputs().size();
  for (const tz::DefenderTestSet& ts : r.suite.algorithms) {
    r.meta.suite_patterns.push_back(ts.patterns.num_patterns());
  }
  r.meta.eval_plan = tz::eval_plan_enabled();
  r.meta.fault_mode = std::string(tz::to_string(tz::fault_sim_mode()));
}

/// Campaign replay: build each circuit and suite artifact once, in job
/// order, as ArtifactStore does; run every job through FlowEngine; then run
/// every job again through run_flow_job on the same artifacts, which must
/// reproduce the direct result.
Replay replay_campaign(const Inputs& in, const tz::PowerModel& pm, Tracer& tr,
                       Gate& gate) {
  Replay out;
  std::map<std::string, tz::CircuitArtifacts> circuits;
  std::map<std::string, tz::SuiteArtifacts> suites;
  std::vector<tz::SharedArtifacts> job_arts;  // per job, for run_flow_job
  job_arts.reserve(in.jobs.size());
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < in.jobs.size(); ++k) {
    const tz::JobSpec spec = in.jobs[k].resolved();
    const std::string& id = in.ids[k];
    auto [cit, new_circuit] = circuits.try_emplace(spec.circuit);
    tz::CircuitArtifacts& ca = cit->second;
    if (new_circuit) {
      ca.name = spec.circuit;
      {
        Span s(tr, "gen.make_benchmark", id);
        ca.netlist = tz::make_benchmark(spec.circuit);
      }
      {
        Span s(tr, "netlist.compact", id);
        ca.compacted = ca.netlist.compact();
      }
      {
        Span s(tr, "tech.analyze", id);
        ca.golden_totals = pm.analyze(ca.netlist).totals;
      }
      out.gates += ca.netlist.gate_count();
    }
    const tz::TestGenOptions testgen = spec.testgen();
    auto [sit, new_suite] =
        suites.try_emplace(spec.circuit + "|" + tz::testgen_fingerprint(testgen));
    tz::SuiteArtifacts& sa = sit->second;
    if (new_suite) {
      sa.circuit = &ca;
      {
        Span s(tr, "atpg.make_defender_suite", id);
        sa.suite = tz::make_defender_suite(ca.netlist, testgen);
      }
      if (!sa.suite.algorithms.empty()) {
        sa.atpg_coverage = sa.suite.algorithms.front().coverage.coverage();
      }
      count_suite(sa.suite, out);
      Span s(tr, "core.oracle_build", id);
      auto oracle = std::make_unique<tz::SuiteOracle>(ca.compacted, sa.suite);
      if (!oracle->sequential()) sa.oracle = std::move(oracle);
    }
    tz::SharedArtifacts& arts = job_arts.emplace_back();
    arts.circuit = &ca;
    arts.defender = &sa;
    arts.pm = &pm;
    arts.shared.salvage_oracle = sa.oracle.get();
    arts.shared.golden_totals = &ca.golden_totals;

    tz::FlowResult r;
    {
      Span job(tr, "job", id);
      r.benchmark = spec.circuit;
      r.original = ca.netlist;
      r.suite = sa.suite;
      r.atpg_coverage = sa.atpg_coverage;
      r.p_n = ca.golden_totals;
      run_engine(r, spec.flow_options(), pm, &arts.shared, tr);
    }
    count_job(r, out);
  }
  out.wall_s = seconds_between(t0, Clock::now());

  for (std::size_t k = 0; k < in.jobs.size(); ++k) {
    tz::FlowResult r;
    {
      Span s(tr, "campaign.run_flow_job", in.ids[k]);
      r = tz::run_flow_job(in.jobs[k], job_arts[k]);
    }
    gate.require(canonical(r) == out.rows[k],
                 in.ids[k] + ": run_flow_job differs from the direct layer calls");
  }
  return out;
}

/// Cold replay: the same calls run_trojanzero_flow makes, in its order.
Replay replay_cold(const Inputs& in, Tracer& tr) {
  Replay out;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < in.jobs.size(); ++k) {
    const tz::JobSpec spec = in.jobs[k].resolved();
    const tz::FlowOptions opt = spec.flow_options();
    tz::FlowResult r;
    {
      Span flow(tr, "flow", in.ids[k]);
      r.benchmark = spec.circuit;
      {
        Span s(tr, "gen.make_benchmark");
        r.original = tz::make_benchmark(spec.circuit);
      }
      const tz::PowerModel pm(tz::CellLibrary::tsmc65_like());
      {
        Span s(tr, "atpg.make_defender_suite");
        r.suite = tz::make_defender_suite(r.original, opt.testgen);
      }
      r.atpg_coverage = r.suite.algorithms.front().coverage.coverage();
      {
        Span s(tr, "tech.analyze");
        r.p_n = pm.analyze(r.original).totals;
      }
      run_engine(r, opt, pm, nullptr, tr);
    }
    out.gates += r.original.gate_count();
    count_suite(r.suite, out);
    count_job(r, out);
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

// ------------------------------------------------------------------ metrics

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    tz::Json m = tz::Json(tz::JsonObject{});
    m.set("value", value);
    m.set("unit", unit);
    obj_.emplace_back(name, std::move(m));
    std::cerr << "  " << name << " = " << value << " " << unit << "\n";
  }
  tz::Json json() && { return tz::Json(std::move(obj_)); }

 private:
  tz::JsonObject obj_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
    } else if (key == "--trace") {
      a.trace = v != "0";
    } else if (key == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) {
    throw std::runtime_error(
        "usage: tzbench --workload <name> [--seed N] [--seconds S] "
        "[--trace 0|1] --work-dir <dir>");
  }
  return a;
}

/// Removes the run directory however main exits.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

void untraced_metrics(const Prepared& p, const std::vector<PassResult>& passes,
                      double setup_s, Metrics& m) {
  const Inputs& in = p.inputs.front();  // every sub-seed has the same jobs
  const double jobs = static_cast<double>(in.jobs.size());
  std::vector<double> wall, cpu, rate;
  std::size_t failed = 0;
  for (const PassResult& r : passes) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(jobs / r.wall_s);
    failed += r.failed;
  }
  m.add("setup_s", setup_s, "s");
  m.add("wall_s", median(wall), "s");
  m.add("jobs_per_s", median(rate), "1/s");
  m.add("cpu_s", median(cpu), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ok_ratio", 1.0 - static_cast<double>(failed) / (jobs * static_cast<double>(passes.size())), "ratio");
  // Sub-seed 0 only, so the ratio repeats exactly however many passes ran.
  m.add("ht_inserted_ratio", static_cast<double>(passes.front().inserted) / jobs, "ratio");
  if (!in.workload.campaign()) {
    // Per-circuit cold latency, informational (not a BENCHMARK.json metric:
    // it exists on this workload only).
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
      std::vector<double> f;
      for (const PassResult& r : passes) f.push_back(r.flow_s[i]);
      std::cerr << "  flow_s." << in.jobs[i].circuit << " = " << median(f) << " s\n";
    }
  }
}

void traced_metrics(const Inputs& in, const PassResult& base, const Replay& rep,
                    const Tracer& tr, Metrics& m) {
  const bool campaign = in.workload.campaign();
  const double threads = static_cast<double>(tz::resolve_threads(0));
  const std::vector<double> salvage = tr.durations("core.salvage");
  const std::vector<double> insert = tr.durations("core.insert");
  const std::vector<double> suites = tr.durations("atpg.make_defender_suite");
  // Per-job latency of the job entry point: run_flow_job in the replay on
  // campaigns, run_trojanzero_flow in the untraced pass on cold flows.
  const std::vector<double> job_s =
      campaign ? tr.durations("campaign.run_flow_job") : base.flow_s;
  double layer_s = 0.0;
  for (const char* name : {"gen.make_benchmark", "netlist.compact", "tech.analyze",
                           "atpg.make_defender_suite", "core.oracle_build",
                           "core.salvage", "core.insert"}) {
    layer_s += tr.total_s(name);
  }

  m.add("gen.make_benchmark_ms", 1e3 * tr.total_s("gen.make_benchmark"), "ms");
  m.add("gen.gates", static_cast<double>(rep.gates), "count");
  m.add("tech.analyze_ms", 1e3 * tr.total_s("tech.analyze"), "ms");
  m.add("atpg.suite_build_s", tr.total_s("atpg.make_defender_suite"), "s");
  m.add("atpg.suite_build_ms_max", 1e3 * percentile(suites, 1.0), "ms");
  m.add("atpg.suites", static_cast<double>(rep.suites), "count");
  m.add("atpg.patterns", static_cast<double>(rep.patterns), "count");
  m.add("atpg.aborted", static_cast<double>(rep.aborted), "count");
  m.add("atpg.untestable", static_cast<double>(rep.untestable), "count");
  m.add("atpg.coverage_mean", ratio(rep.coverage_sum, static_cast<double>(rep.suites)), "ratio");
  m.add("core.oracle_build_ms", 1e3 * tr.total_s("core.oracle_build"), "ms");
  m.add("core.salvage_s", tr.total_s("core.salvage"), "s");
  m.add("core.salvage_ms_p50", 1e3 * percentile(salvage, 0.5), "ms");
  m.add("core.salvage_candidates", static_cast<double>(rep.candidates), "count");
  m.add("core.salvage_accept_ratio",
        ratio(static_cast<double>(rep.accepted), static_cast<double>(rep.candidates)), "ratio");
  m.add("core.insert_s", tr.total_s("core.insert"), "s");
  m.add("core.insert_ms_p50", 1e3 * percentile(insert, 0.5), "ms");
  m.add("core.insert_locations_tried", static_cast<double>(rep.locations), "count");
  m.add("core.insert_fail_test", static_cast<double>(rep.fail_test), "count");
  m.add("core.insert_fail_caps", static_cast<double>(rep.fail_caps), "count");
  m.add("core.dummy_gates", static_cast<double>(rep.dummies), "count");
  m.add("campaign.idle_s", base.wall_s * threads - base.cpu_s, "s");
  m.add("campaign.parallel_eff", ratio(base.cpu_s, base.wall_s * threads), "ratio");
  m.add("campaign.run_flow_job_ms_p50", 1e3 * percentile(job_s, 0.5), "ms");
  m.add("campaign.run_flow_job_ms_p90", 1e3 * percentile(job_s, 0.9), "ms");
  m.add("campaign.merge_ms", base.merge_ms, "ms");
  m.add("campaign.artifact_bytes", static_cast<double>(base.artifact_bytes), "bytes");
  // Campaign replays are single-threaded, so replay wall is comparable to
  // the untraced CPU time; cold replays repeat the untraced calls exactly.
  m.add("trace.overhead_ratio",
        ratio(rep.wall_s, campaign ? base.cpu_s : base.wall_s), "ratio");
  m.add("trace.coverage",
        ratio(layer_s, campaign ? base.cpu_s : rep.wall_s), "ratio");
}

int run(const Args& a) {
  const std::string run_dir = a.work_dir + "/run-" + a.workload + "-" +
                              std::to_string(::getpid());
  DirGuard guard{run_dir};

  std::vector<double> setup_times;
  Prepared p;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    p = prepare(a.workload, a.seed, run_dir);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  Gate gate;
  Metrics m;
  std::size_t attempted = 0, failed = 0;
  const Inputs& in = p.inputs.front();
  const std::size_t subs = p.inputs.size();
  std::cerr << "tzbench: " << a.workload << " seed " << a.seed << ", " << subs
            << " x " << in.jobs.size() << " jobs, "
            << (a.trace ? "traced" : "untraced") << "\n";
  if (!a.trace) {
    // Every sub-seed once, then more cycles while another pass fits.
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    for (std::size_t k = 0;; ++k) {
      passes.push_back(run_pass(p, k, gate));
      std::cerr << "  pass " << k << " (sub-seed " << k % subs << "): wall "
                << passes.back().wall_s << " s, cpu " << passes.back().cpu_s << " s\n";
      gate.require(passes.back().rows == passes[k % subs].rows,
                   "pass " + std::to_string(k) + " results differ from pass " +
                       std::to_string(k % subs));
      attempted += in.jobs.size();
      failed += passes.back().failed;
      if (k + 1 >= subs &&
          seconds_between(start, Clock::now()) + passes.back().wall_s > a.seconds) {
        break;
      }
    }
    std::cerr << "  passes = " << passes.size() << "\n";
    untraced_metrics(p, passes, median(setup_times), m);
  } else {
    // Sub-seed 0 only: one untraced pass, then its replay.
    const PassResult base = run_pass(p, 0, gate);
    Tracer tr;
    const Replay rep = in.workload.campaign() ? replay_campaign(in, *p.pm, tr, gate)
                                             : replay_cold(in, tr);
    attempted = 2 * in.jobs.size();
    failed = base.failed;
    for (std::size_t k = 0; k < in.jobs.size(); ++k) {
      gate.require(k < base.rows.size() && base.rows[k] == rep.rows[k],
                   in.ids[k] + ": traced replay differs from the untraced row");
    }
    const std::string trace_path = a.work_dir + "/trace-" + a.workload +
                                   "-seed" + std::to_string(a.seed) + ".json";
    std::ofstream(trace_path, std::ios::binary | std::ios::trunc)
        << tr.chrome_json(a.workload, a.seed).dump() << "\n";
    std::cerr << "  spans = " << tr.spans().size() << " -> " << trace_path << "\n";
    traced_metrics(in, base, rep, tr, m);
  }

  tz::Json result = tz::Json(tz::JsonObject{});
  result.set("correct", gate.ok());
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(m).json());
  std::cout << result.dump() << std::endl;
  return gate.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tzbench: " << e.what() << "\n";
    return 2;
  }
}
