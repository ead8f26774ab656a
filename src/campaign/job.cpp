#include "campaign/job.hpp"

#include <charconv>
#include <chrono>
#include <iostream>

#include "atpg/fault_sim.hpp"
#include "core/flow_engine.hpp"
#include "core/ht_library.hpp"
#include "core/trigger_prob.hpp"
#include "gen/iscas.hpp"
#include "sim/eval_plan.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace tz {

namespace {

const BenchmarkSpec* try_spec(const std::string& name) {
  for (const BenchmarkSpec& s : iscas85_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Flow-boundary diagnostics: name the corrupted invariant on stderr before
/// the VerifyError unwinds, so a broken structure surfaces at the mutation
/// that caused it instead of as a bit-mismatch deep inside an engine.
[[noreturn]] void report_and_rethrow(const VerifyError& e) {
  std::cerr << "trojanzero: invariant check failed at " << e.phase() << ":\n"
            << e.report().format();
  throw;
}

using Clock = std::chrono::steady_clock;

/// Algorithm 1's options for a flow — the salvage-tier key and the salvage
/// a flow builds must agree on them.
SalvageOptions salvage_options(const FlowOptions& options) {
  SalvageOptions sopt;
  sopt.pth = options.pth;
  sopt.order = options.order;
  return sopt;
}

/// Algorithm 1's statistics without N' (what a job built on a shared
/// salvage entry reports).
SalvageResult salvage_stats(const SalvageResult& s) {
  SalvageResult out;
  out.candidates = s.candidates;
  out.accepted = s.accepted;
  out.rejected = s.rejected;
  out.expendable_gates = s.expendable_gates;
  out.power_before = s.power_before;
  out.power_after = s.power_after;
  return out;
}

/// The complete flow (Fig. 2) over a shared artifact bundle: reads the
/// bundle's N, suite and N' in place and returns only their statistics next
/// to N''. When `arts.salvage` is null the job runs Algorithm 1 itself (on
/// the bundle's oracle seed) and still leaves its N' out of the result.
/// `t0` starts FlowMeta::wall_ms.
FlowResult run_flow_common(const std::string& benchmark_name,
                           const FlowOptions& options,
                           const SharedArtifacts& arts, Clock::time_point t0) {
  FlowResult r;
  r.benchmark = benchmark_name;
  const Netlist& original = arts.circuit->netlist;

  // Phase (a): defender test patterns + HT-free thresholds.
  r.atpg_coverage = arts.defender->atpg_coverage;
  r.p_n = arts.circuit->golden_totals;
  const DefenderSuite& suite = arts.defender->suite;

  FlowEngine engine(original, suite, *arts.pm);
  engine.set_shared(&arts.shared);

  // Phase (b): Algorithm 1 — already run once for every job on the same
  // salvage-tier key when the store handed one in.
  SalvageResult own_salvage;
  const SalvageResult* salvaged = arts.salvage;
  if (salvaged == nullptr) {
    try {
      own_salvage = engine.salvage(salvage_options(options));
    } catch (const VerifyError& e) {
      report_and_rethrow(e);
    }
    salvaged = &own_salvage;
  }
  r.p_np = salvaged->power_after;

  // Phase (c): Algorithm 2. The library starts with the Table I counter for
  // this circuit and falls back to smaller HTs when the salvaged budget
  // cannot fund it (Algorithm 2 line 16: "selecting another HT").
  InsertionOptions iopt = options.insertion;
  if (iopt.library.empty()) {
    for (int bits = options.counter_bits; bits >= 2; --bits) {
      iopt.library.push_back(counter_trojan(bits));
    }
    iopt.library.push_back(counter_trojan(0));  // comparator trigger
  }
  try {
    r.insertion = engine.insert(*salvaged, iopt);
  } catch (const VerifyError& e) {
    report_and_rethrow(e);
  }
  r.p_npp = r.insertion.power;
  // N' stays with its owner: the store's entry, or this job's own salvage.
  r.salvage = salvage_stats(*salvaged);

  // Pft over the defender's total pattern count — only when an HT was
  // actually placed; a failed insertion reports zero exposure instead of a
  // row fabricated from a default-constructed descriptor.
  if (r.insertion.success) {
    std::size_t test_len = 0;
    for (const DefenderTestSet& ts : suite.algorithms) {
      test_len += ts.patterns.num_patterns();
    }
    r.pft = analytic_pft(r.insertion.trigger_p1, test_len, 0);
    r.pft_payload = analytic_pft(r.insertion.trigger_p1, test_len,
                                 r.insertion.ht_desc.counter_bits);
  }

  // Self-describing stamp: what ran and with which engine modes. These are
  // the fields the wire format keeps; printers read nothing else.
  r.meta.circuit = benchmark_name;
  r.meta.seed = options.testgen.seed;
  r.meta.gates = original.gate_count();
  r.meta.inputs = original.inputs().size();
  r.meta.outputs = original.outputs().size();
  for (const DefenderTestSet& ts : suite.algorithms) {
    r.meta.suite_patterns.push_back(ts.patterns.num_patterns());
  }
  r.meta.eval_plan = eval_plan_enabled();
  r.meta.fault_mode = std::string(to_string(fault_sim_mode()));
  r.meta.threads = resolve_threads(options.threads);
  r.meta.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

}  // namespace

// ------------------------------------------------------------------ JobSpec

JobSpec JobSpec::resolved() const {
  JobSpec out = *this;
  if (out.pth <= 0.0 || out.counter_bits < 0) {
    const BenchmarkSpec* spec = try_spec(circuit);
    if (out.pth <= 0.0) {
      out.pth = spec != nullptr ? spec->pth : (circuit == "c17" ? 0.9 : 0.992);
    }
    if (out.counter_bits < 0) {
      out.counter_bits =
          spec != nullptr ? spec->counter_bits : (circuit == "c17" ? 2 : 3);
    }
  }
  if (out.seed == 0) out.seed = TestGenOptions{}.seed;
  if (out.trigger_width <= 0) out.trigger_width = 2;
  if (out.order != 'l') out.order = 'p';
  return out;
}

std::string JobSpec::id() const {
  const JobSpec r = resolved();
  std::string id;
  id.reserve(64);
  id += r.circuit;
  id += "|pth=";
  append_double(id, r.pth);
  id += "|cb=" + std::to_string(r.counter_bits);
  id += "|tw=" + std::to_string(r.trigger_width);
  id += "|seed=" + std::to_string(r.seed);
  id += "|def=" + r.defender;
  id += "|ord=";
  id.push_back(r.order);
  return id;
}

TestGenOptions defender_testgen(const std::string& defender) {
  TestGenOptions t;
  if (defender == "atpg") {
    t = FlowOptions::atpg_only_defender();
  } else if (defender == "atpg+rand") {
    t.with_random_validation = true;
    t.with_walking = false;
  } else if (defender == "full") {
    t.with_random_validation = true;
    t.with_walking = true;
  } else {
    throw std::runtime_error("unknown defender config '" + defender +
                             "' (not atpg, atpg+rand or full)");
  }
  return t;
}

TestGenOptions JobSpec::testgen() const {
  const JobSpec r = resolved();
  TestGenOptions t = defender_testgen(r.defender);
  t.seed = r.seed;
  return t;
}

FlowOptions JobSpec::flow_options() const {
  const JobSpec r = resolved();
  FlowOptions opt;
  opt.pth = r.pth;
  opt.counter_bits = r.counter_bits;
  opt.testgen = testgen();
  opt.order = r.order == 'l' ? SalvageOptions::Order::ByLeakage
                             : SalvageOptions::Order::ByProbability;
  opt.threads = r.threads;
  // Explicit HT ladder with this spec's trigger width; trigger_width 2
  // matches counter_trojan(bits)'s default trigger width.
  for (int bits = r.counter_bits; bits >= 2; --bits) {
    opt.insertion.library.push_back(counter_trojan(bits, r.trigger_width));
  }
  opt.insertion.library.push_back(counter_trojan(0, r.trigger_width));
  return opt;
}

ArtifactKeys JobSpec::artifact_keys() const {
  const FlowOptions opt = flow_options();
  return tz::artifact_keys(circuit, opt.testgen, salvage_options(opt));
}

Json JobSpec::to_json() const {
  const JobSpec r = resolved();
  Json j = Json(JsonObject{});
  j.set("circuit", r.circuit);
  j.set("pth", r.pth);
  j.set("counter_bits", r.counter_bits);
  j.set("trigger_width", r.trigger_width);
  j.set("seed", static_cast<std::int64_t>(r.seed));
  j.set("defender", r.defender);
  j.set("order", std::string(1, r.order));
  return j;
}

JobSpec JobSpec::from_json(const Json& j) {
  JobSpec s;
  s.circuit = j.get("circuit").as_string();
  s.pth = j.get("pth").as_double();
  s.counter_bits = static_cast<int>(j.get("counter_bits").as_int());
  s.trigger_width = static_cast<int>(j.get("trigger_width").as_int());
  s.seed = static_cast<std::uint64_t>(j.get("seed").as_int());
  s.defender = j.get("defender").as_string();
  const std::string& ord = j.get("order").as_string();
  s.order = ord.empty() ? 'p' : ord[0];
  return s;
}

// ------------------------------------------------------------ run_flow_job

FlowResult run_flow_job(const JobSpec& spec, const SharedArtifacts& arts) {
  const auto t0 = Clock::now();
  const JobSpec r = spec.resolved();
  return run_flow_common(r.circuit, r.flow_options(), arts, t0);
}

FlowResult run_flow_job(const JobSpec& spec, ArtifactStore& store) {
  const auto t0 = Clock::now();
  const JobSpec r = spec.resolved();
  const FlowOptions opt = r.flow_options();
  SharedArtifacts arts;
  try {
    arts = store.get_job_inputs(r.circuit, opt.testgen, salvage_options(opt));
  } catch (const VerifyError& e) {
    report_and_rethrow(e);  // a salvage-tier build failed its checks
  }
  return run_flow_common(r.circuit, opt, arts, t0);
}

// ------------------------------------------------------ one-shot entry points

FlowResult run_trojanzero_flow(const std::string& benchmark_name,
                               FlowOptions options) {
  // One flow path: build the three tiers with the store's own builders,
  // run the shared path on them, then hand N, the suite and N' to the
  // caller, who owns them here.
  const auto t0 = Clock::now();
  const PowerModel pm(CellLibrary::tsmc65_like());
  CircuitArtifacts circuit;
  SuiteArtifacts defender;
  SalvageResult salvage;
  try {
    circuit = build_circuit_artifacts(benchmark_name, pm);
    build_suite_artifacts(defender, circuit, options.testgen);
    salvage = build_salvage_artifact(defender, pm, salvage_options(options));
  } catch (const VerifyError& e) {
    report_and_rethrow(e);
  }
  FlowResult r = run_flow_common(benchmark_name, options,
                                 job_inputs(defender, &salvage, pm), t0);
  r.original = std::move(circuit.netlist);
  r.suite = std::move(defender.suite);
  r.salvage.modified = std::move(salvage.modified);
  return r;
}

FlowResult run_trojanzero_flow(const std::string& benchmark_name) {
  FlowOptions opt;
  if (benchmark_name != "c17") {
    const BenchmarkSpec& spec = spec_for(benchmark_name);
    opt.pth = spec.pth;
    opt.counter_bits = spec.counter_bits;
  } else {
    opt.pth = 0.9;
    opt.counter_bits = 2;
  }
  return run_trojanzero_flow(benchmark_name, opt);
}

// ------------------------------------------------------- FlowResult wire

namespace {

Json power_to_json(const PowerReport& p) {
  Json j = Json(JsonObject{});
  j.set("dynamic_uw", p.dynamic_uw);
  j.set("leakage_uw", p.leakage_uw);
  j.set("area_ge", p.area_ge);
  return j;
}

PowerReport power_from_json(const Json& j) {
  PowerReport p;
  p.dynamic_uw = j.get("dynamic_uw").as_double();
  p.leakage_uw = j.get("leakage_uw").as_double();
  p.area_ge = j.get("area_ge").as_double();
  return p;
}

}  // namespace

Json flow_result_to_json(const FlowResult& r) {
  Json j = Json(JsonObject{});
  j.set("benchmark", r.benchmark);

  Json meta = Json(JsonObject{});
  meta.set("circuit", r.meta.circuit);
  meta.set("seed", static_cast<std::int64_t>(r.meta.seed));
  meta.set("gates", r.meta.gates);
  meta.set("inputs", r.meta.inputs);
  meta.set("outputs", r.meta.outputs);
  JsonArray pats;
  for (const std::size_t p : r.meta.suite_patterns) pats.emplace_back(p);
  meta.set("suite_patterns", Json(std::move(pats)));
  meta.set("eval_plan", r.meta.eval_plan);
  meta.set("fault_mode", r.meta.fault_mode);
  meta.set("threads", r.meta.threads);
  meta.set("wall_ms", r.meta.wall_ms);
  j.set("meta", std::move(meta));

  Json sal = Json(JsonObject{});
  sal.set("candidates", r.salvage.candidates);
  JsonArray acc;
  for (const SalvageRecord& a : r.salvage.accepted) {
    Json rec = Json(JsonObject{});
    rec.set("node", a.node_name);
    rec.set("tie", a.tie_value);
    rec.set("p", a.probability);
    rec.set("removed", a.gates_removed);
    acc.push_back(std::move(rec));
  }
  sal.set("accepted", Json(std::move(acc)));
  sal.set("rejected", r.salvage.rejected);
  sal.set("expendable", r.salvage.expendable_gates);
  sal.set("power_before", power_to_json(r.salvage.power_before));
  sal.set("power_after", power_to_json(r.salvage.power_after));
  j.set("salvage", std::move(sal));

  Json ins = Json(JsonObject{});
  ins.set("success", r.insertion.success);
  Json desc = Json(JsonObject{});
  desc.set("name", r.insertion.ht_desc.name);
  desc.set("counter_bits", r.insertion.ht_desc.counter_bits);
  desc.set("trigger_width", r.insertion.ht_desc.trigger_width);
  ins.set("ht", std::move(desc));
  ins.set("ht_name", r.insertion.ht_name);
  ins.set("victim", r.insertion.victim_name);
  ins.set("tried_hts", r.insertion.tried_hts);
  ins.set("tried_locations", r.insertion.tried_locations);
  ins.set("fail_build", r.insertion.fail_build);
  ins.set("fail_test", r.insertion.fail_test);
  ins.set("fail_caps", r.insertion.fail_caps);
  ins.set("dummy_gates", r.insertion.dummy_gates);
  ins.set("power", power_to_json(r.insertion.power));
  ins.set("threshold", power_to_json(r.insertion.threshold));
  ins.set("trigger_p1", r.insertion.trigger_p1);
  j.set("insertion", std::move(ins));

  j.set("p_n", power_to_json(r.p_n));
  j.set("p_np", power_to_json(r.p_np));
  j.set("p_npp", power_to_json(r.p_npp));
  j.set("pft_payload", r.pft_payload);
  j.set("pft", r.pft);
  j.set("atpg_coverage", r.atpg_coverage);
  return j;
}

FlowResult flow_result_from_json(const Json& j) {
  FlowResult r;
  r.benchmark = j.get("benchmark").as_string();

  const Json& meta = j.get("meta");
  r.meta.circuit = meta.get("circuit").as_string();
  r.meta.seed = static_cast<std::uint64_t>(meta.get("seed").as_int());
  r.meta.gates = static_cast<std::size_t>(meta.get("gates").as_int());
  r.meta.inputs = static_cast<std::size_t>(meta.get("inputs").as_int());
  r.meta.outputs = static_cast<std::size_t>(meta.get("outputs").as_int());
  for (const Json& p : meta.get("suite_patterns").as_array()) {
    r.meta.suite_patterns.push_back(static_cast<std::size_t>(p.as_int()));
  }
  r.meta.eval_plan = meta.get("eval_plan").as_bool();
  r.meta.fault_mode = meta.get("fault_mode").as_string();
  r.meta.threads = static_cast<std::size_t>(meta.get("threads").as_int());
  r.meta.wall_ms = meta.get("wall_ms").as_double();

  const Json& sal = j.get("salvage");
  r.salvage.candidates =
      static_cast<std::size_t>(sal.get("candidates").as_int());
  for (const Json& a : sal.get("accepted").as_array()) {
    SalvageRecord rec;
    rec.node_name = a.get("node").as_string();
    rec.tie_value = a.get("tie").as_bool();
    rec.probability = a.get("p").as_double();
    rec.gates_removed = static_cast<std::size_t>(a.get("removed").as_int());
    r.salvage.accepted.push_back(std::move(rec));
  }
  r.salvage.rejected = static_cast<std::size_t>(sal.get("rejected").as_int());
  r.salvage.expendable_gates =
      static_cast<std::size_t>(sal.get("expendable").as_int());
  r.salvage.power_before = power_from_json(sal.get("power_before"));
  r.salvage.power_after = power_from_json(sal.get("power_after"));

  const Json& ins = j.get("insertion");
  r.insertion.success = ins.get("success").as_bool();
  const Json& desc = ins.get("ht");
  r.insertion.ht_desc.name = desc.get("name").as_string();
  r.insertion.ht_desc.counter_bits =
      static_cast<int>(desc.get("counter_bits").as_int());
  r.insertion.ht_desc.trigger_width =
      static_cast<int>(desc.get("trigger_width").as_int());
  r.insertion.ht_name = ins.get("ht_name").as_string();
  r.insertion.victim_name = ins.get("victim").as_string();
  r.insertion.tried_hts = static_cast<int>(ins.get("tried_hts").as_int());
  r.insertion.tried_locations =
      static_cast<int>(ins.get("tried_locations").as_int());
  r.insertion.fail_build = static_cast<int>(ins.get("fail_build").as_int());
  r.insertion.fail_test = static_cast<int>(ins.get("fail_test").as_int());
  r.insertion.fail_caps = static_cast<int>(ins.get("fail_caps").as_int());
  r.insertion.dummy_gates =
      static_cast<std::size_t>(ins.get("dummy_gates").as_int());
  r.insertion.power = power_from_json(ins.get("power"));
  r.insertion.threshold = power_from_json(ins.get("threshold"));
  r.insertion.trigger_p1 = ins.get("trigger_p1").as_double();

  r.p_n = power_from_json(j.get("p_n"));
  r.p_np = power_from_json(j.get("p_np"));
  r.p_npp = power_from_json(j.get("p_npp"));
  r.pft_payload = j.get("pft_payload").as_double();
  r.pft = j.get("pft").as_double();
  r.atpg_coverage = j.get("atpg_coverage").as_double();
  return r;
}

}  // namespace tz
