#include "campaign/artifacts.hpp"

#include <charconv>
#include <stdexcept>

#include "gen/iscas.hpp"
#include "verify/verify.hpp"

namespace tz {

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

std::string suite_key(const std::string& circuit, const TestGenOptions& opt) {
  return circuit + "|" + testgen_fingerprint(opt);
}

}  // namespace

std::string testgen_fingerprint(const TestGenOptions& opt) {
  // Every field that changes generate_atpg_tests / make_defender_suite
  // output, in a fixed order. Compact key=value text — readable in a job id
  // and stable across runs (to_chars for the one double).
  std::string fp;
  fp += "rp=" + std::to_string(opt.random_patterns);
  fp += ",seed=" + std::to_string(opt.seed);
  fp += ",bt=" + std::to_string(opt.podem.backtrack_limit);
  fp += ",cov=";
  append_number(fp, opt.coverage_target);
  fp += ",mp=" + std::to_string(opt.max_patterns);
  fp += ",ord=";
  fp += opt.fault_order == TestGenOptions::FaultOrder::Shuffled ? "s" : "t";
  fp += ",rv=" + std::string(opt.with_random_validation ? "1" : "0");
  fp += ",vp=" + std::to_string(opt.validation_patterns);
  fp += ",wk=" + std::string(opt.with_walking ? "1" : "0");
  return fp;
}

ArtifactKeys artifact_keys(const std::string& circuit,
                           const TestGenOptions& testgen,
                           const SalvageOptions& salvage) {
  ArtifactKeys keys;
  keys.circuit = circuit;
  keys.suite = suite_key(circuit, testgen);
  // Every SalvageOptions field that changes Algorithm 1's result (threads
  // is ignored).
  keys.salvage = keys.suite + "|pth=";
  append_number(keys.salvage, salvage.pth);
  keys.salvage +=
      salvage.order == SalvageOptions::Order::ByLeakage ? ",ord=l" : ",ord=p";
  return keys;
}

CircuitArtifacts build_circuit_artifacts(const std::string& name,
                                         const PowerModel& pm) {
  CircuitArtifacts art;
  art.name = name;
  // The shared netlist is exactly what make_benchmark emits (suite
  // generation and power analysis are order-sensitive), so it is NOT
  // compacted here. The compacted twin mirrors exactly what every job's
  // salvage derives via `original_->compact()` — compact() is
  // deterministic, so the oracle seed built on it is id-identical to the
  // job's work netlist.
  art.netlist = make_benchmark(name);
  if (check_enabled()) {
    // Gate every circuit once, before anything is built on it: a
    // generator/parser defect is reported here, not attributed to the first
    // salvage commit downstream.
    verify_or_throw(art.netlist, nullptr, "flow input");
  }
  art.compacted = art.netlist.compact();
  art.golden_totals = pm.analyze(art.netlist).totals;
  return art;
}

void build_suite_artifacts(SuiteArtifacts& art,
                           const CircuitArtifacts& circuit,
                           const TestGenOptions& opt) {
  // The oracle below rejects a host with DFFs; say so before paying for
  // the suite.
  if (!circuit.netlist.dffs().empty()) {
    throw std::invalid_argument("build_suite_artifacts: circuit '" +
                                circuit.name +
                                "' has DFFs; only combinational hosts are "
                                "supported");
  }
  art.circuit = &circuit;
  art.suite = make_defender_suite(circuit.netlist, opt);
  if (!art.suite.algorithms.empty()) {
    art.atpg_coverage = art.suite.algorithms.front().coverage.coverage();
  }
  // The shared oracle: compiled plan + fused golden rows, built once, on the
  // compacted twin so its slot-major caches line up node-for-node with the
  // `original_->compact()` every salvage performs.
  art.oracle = std::make_unique<SuiteOracle>(circuit.compacted, art.suite);
}

SalvageResult build_salvage_artifact(const SuiteArtifacts& suite,
                                     const PowerModel& pm,
                                     const SalvageOptions& opt) {
  const FlowSharedInputs shared{
      .salvage_oracle = suite.oracle.get(),
      .golden_totals = &suite.circuit->golden_totals};
  FlowEngine engine(suite.circuit->netlist, suite.suite, pm);
  engine.set_shared(&shared);
  return engine.salvage(opt);
}

SharedArtifacts job_inputs(const SuiteArtifacts& suite,
                           const SalvageResult* salvage, const PowerModel& pm) {
  SharedArtifacts out;
  out.circuit = suite.circuit;
  out.defender = &suite;
  out.pm = &pm;
  out.salvage = salvage;
  out.shared.salvage_oracle = suite.oracle.get();
  out.shared.golden_totals = &suite.circuit->golden_totals;
  return out;
}

ArtifactStore::ArtifactStore() : pm_(CellLibrary::tsmc65_like()) {}

template <class T>
ArtifactStore::Entry<T>& ArtifactStore::slot(Tier<T>& tier,
                                             const std::string& key) {
  std::unique_ptr<Entry<T>>& s = tier[key];
  if (!s) s = std::make_unique<Entry<T>>();
  return *s;
}

template <class T, class Build>
const T& ArtifactStore::build_once(Entry<T>& entry, Build&& build) {
  MutexLock lk(entry.build_mu);
  if (!entry.built) {
    build(entry.art);
    entry.built = true;
  }
  return entry.art;
}

template <class T>
std::unique_ptr<ArtifactStore::Entry<T>> ArtifactStore::unref(
    Tier<T>& tier, const std::string& key) {
  const auto it = tier.find(key);
  // pending == 0: never retained (a retained entry is erased at zero).
  if (it == tier.end() || it->second->pending == 0 ||
      --it->second->pending != 0) {
    return nullptr;
  }
  std::unique_ptr<Entry<T>> freed = std::move(it->second);
  tier.erase(it);
  return freed;
}

const CircuitArtifacts& ArtifactStore::get_circuit(const std::string& name) {
  Entry<CircuitArtifacts>* entry = nullptr;
  {
    MutexLock lk(mu_);
    entry = &slot(circuits_, name);
  }
  return build_once(*entry, [&](CircuitArtifacts& art) {
    art = build_circuit_artifacts(name, pm_);
  });
}

const SuiteArtifacts& ArtifactStore::get_suite(const std::string& circuit,
                                               const TestGenOptions& opt) {
  // Resolve tier 1 first (outside this entry's build lock: circuit and
  // suite entries use different mutexes, and get_circuit is idempotent).
  const CircuitArtifacts& cart = get_circuit(circuit);

  Entry<SuiteArtifacts>* entry = nullptr;
  {
    MutexLock lk(mu_);
    entry = &slot(suites_, suite_key(circuit, opt));
  }
  return build_once(*entry, [&](SuiteArtifacts& art) {
    build_suite_artifacts(art, cart, opt);
  });
}

const SalvageResult& ArtifactStore::get_salvage(const std::string& circuit,
                                                const TestGenOptions& testgen,
                                                const SalvageOptions& opt) {
  const SuiteArtifacts& sart = get_suite(circuit, testgen);

  Entry<SalvageResult>* entry = nullptr;
  {
    MutexLock lk(mu_);
    entry = &slot(salvages_, artifact_keys(circuit, testgen, opt).salvage);
  }
  return build_once(*entry, [&](SalvageResult& art) {
    art = build_salvage_artifact(sart, pm_, opt);
  });
}

SharedArtifacts ArtifactStore::get_job_inputs(const std::string& circuit,
                                              const TestGenOptions& testgen,
                                              const SalvageOptions& salvage) {
  return job_inputs(get_suite(circuit, testgen),
                    &get_salvage(circuit, testgen, salvage), pm_);
}

void ArtifactStore::retain(const ArtifactKeys& keys) {
  MutexLock lk(mu_);
  Entry<CircuitArtifacts>& c = slot(circuits_, keys.circuit);
  Entry<SuiteArtifacts>& s = slot(suites_, keys.suite);
  Entry<SalvageResult>& v = slot(salvages_, keys.salvage);
  ++c.pending;
  ++s.pending;
  ++v.pending;
}

void ArtifactStore::release(const ArtifactKeys& keys) {
  // Freed entries are destroyed after the lock drops, in reverse declaration
  // order: salvage, then suite, then the circuit the suite points into.
  std::unique_ptr<Entry<CircuitArtifacts>> circuit;
  std::unique_ptr<Entry<SuiteArtifacts>> suite;
  std::unique_ptr<Entry<SalvageResult>> salvage;
  MutexLock lk(mu_);
  circuit = unref(circuits_, keys.circuit);
  suite = unref(suites_, keys.suite);
  salvage = unref(salvages_, keys.salvage);
}

std::size_t ArtifactStore::circuit_count() const {
  MutexLock lk(mu_);
  return circuits_.size();
}

std::size_t ArtifactStore::suite_count() const {
  MutexLock lk(mu_);
  return suites_.size();
}

std::size_t ArtifactStore::salvage_count() const {
  MutexLock lk(mu_);
  return salvages_.size();
}

}  // namespace tz
