#include "campaign/artifacts.hpp"

#include <charconv>

#include "gen/iscas.hpp"

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
  fp += ",col=" + std::string(opt.collapse ? "1" : "0");
  fp += ",cov=";
  append_number(fp, opt.coverage_target);
  fp += ",mp=" + std::to_string(opt.max_patterns);
  fp += ",ord=";
  fp += opt.fault_order == TestGenOptions::FaultOrder::Shuffled ? "s" : "t";
  fp += ",os=" + std::to_string(opt.fault_order_seed);
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
  // Every SalvageOptions field that changes Algorithm 1's result; threads
  // does not (the scan is bit-identical at every thread count).
  keys.salvage = keys.suite + "|pth=";
  append_number(keys.salvage, salvage.pth);
  keys.salvage +=
      salvage.order == SalvageOptions::Order::ByLeakage ? ",ord=l" : ",ord=p";
  keys.salvage += salvage.include_outputs ? ",out=1" : ",out=0";
  return keys;
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
    art.name = name;
    // The shared netlist must be byte-for-byte what the legacy cold path
    // uses (suite generation and power analysis are order-sensitive), so it
    // is NOT compacted here. The compacted twin mirrors exactly what every
    // job's salvage derives via `original_->compact()` — compact() is
    // deterministic, so the oracle seed built on it is id-identical to the
    // job's work netlist.
    art.netlist = make_benchmark(name);
    art.compacted = art.netlist.compact();
    art.golden_totals = pm_.analyze(art.netlist).totals;
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
    art.circuit = &cart;
    art.suite = make_defender_suite(cart.netlist, opt);
    if (!art.suite.algorithms.empty()) {
      art.atpg_coverage = art.suite.algorithms.front().coverage.coverage();
    }
    // The shared oracle: compiled plan + fused golden rows, built once, on
    // the compacted twin so its slot-major caches line up node-for-node
    // with the `original_->compact()` every salvage performs. Sequential
    // circuits (DFFs) get no oracle — the flow's functional_test fallback
    // has nothing to share.
    auto oracle = std::make_unique<SuiteOracle>(cart.compacted, art.suite);
    if (!oracle->sequential()) art.oracle = std::move(oracle);
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
    // Algorithm 1 exactly as a job with these artifacts runs it: the same
    // netlist, suite, power model and oracle seed.
    const FlowSharedInputs shared{
        .salvage_oracle = sart.oracle.get(),
        .golden_totals = &sart.circuit->golden_totals};
    FlowEngine engine(sart.circuit->netlist, sart.suite, pm_);
    engine.set_shared(&shared);
    art = engine.salvage(opt);
  });
}

SharedArtifacts ArtifactStore::get_job_inputs(const std::string& circuit,
                                              const TestGenOptions& testgen,
                                              const SalvageOptions& salvage) {
  SharedArtifacts out;
  const SuiteArtifacts& suite = get_suite(circuit, testgen);
  out.circuit = suite.circuit;
  out.defender = &suite;
  out.pm = &pm_;
  out.salvage = &get_salvage(circuit, testgen, salvage);
  out.shared.salvage_oracle = suite.oracle.get();
  out.shared.golden_totals = &suite.circuit->golden_totals;
  return out;
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
