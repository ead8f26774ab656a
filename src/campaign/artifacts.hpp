// Campaign artifact layer: build-once, share-everywhere flow inputs.
//
// A campaign is a (circuit × HT descriptor × seed × defender config × Pth ×
// order) sweep — thousands of jobs, but only a handful of distinct circuits,
// a modest number of distinct (circuit, defender config, seed) suites and few
// distinct salvage inputs. Before this layer every job re-ran make_benchmark,
// re-analyzed power, regenerated the ATPG suite, re-simulated it into
// SuiteOracle's row cache and re-ran Algorithm 1 from scratch; all of that is
// a pure function of the job's key, so the ArtifactStore memoizes it at three
// tiers:
//
//  - Circuit tier (keyed by make_benchmark name): the synthesis-clean
//    netlist exactly as make_benchmark emits it (order-sensitive consumers —
//    suite generation, power summation — see the same bytes as a cold run),
//    its compacted twin (id-identical to the work netlist every job's
//    salvage derives), and the one-time golden power/area totals.
//
//  - Suite tier (keyed by circuit + a TestGenOptions fingerprint): the
//    defender suite and a fully built SuiteOracle on the circuit's netlist —
//    the compiled EvalPlan and the fused golden simulation rows. Salvage
//    clones the oracle copy-on-write (SuiteOracle's seeded constructor
//    deep-copies the plan and rows; the shared entry is never mutated).
//
//  - Salvage tier (keyed by suite key + Pth + visit order):
//    Algorithm 1's SalvageResult, N' plus its records, built once through
//    FlowEngine::salvage on the suite tier. The HT shape only enters
//    Algorithm 2, so jobs that differ in counter bits or trigger width share
//    one entry and go straight to insertion. SalvageOptions::threads is
//    ignored and not part of the key.
//
// Thread safety: any number of jobs may call the get_* lookups concurrently.
// The store uses one mutex for the maps plus a per-entry build mutex, so two
// different keys build in parallel while two racing requests for the same key
// build it exactly once.
//
// Lifetimes are job-counted. A driver that knows its job list retain()s each
// job's three entries before fan-out, and every job release()s them when it
// ends, by return or by throw; an entry is freed as soon as its count drops
// to zero, so a campaign holds only the entries its in-flight and upcoming
// jobs still need. An entry that was never retained (a store used without a
// job list) lives, and its handed-out references stay valid, as long as the
// store. A retained entry may be used only by the jobs it was retained for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "atpg/test_set.hpp"
#include "core/flow_engine.hpp"
#include "core/salvage.hpp"
#include "netlist/netlist.hpp"
#include "tech/power_model.hpp"
#include "util/thread_safety.hpp"

namespace tz {

/// Per-circuit shared artifacts (tier 1).
struct CircuitArtifacts {
  std::string name;
  Netlist netlist;    ///< Exactly make_benchmark(name); jobs read it as N.
  /// netlist.compact() — id-identical to the work netlist each job's
  /// salvage derives, the basis for the shared oracle's caches.
  Netlist compacted;
  PowerReport golden_totals; ///< P/A of N — salvage baseline + caps.
};

/// Per-(circuit, defender) shared artifacts (tier 2).
struct SuiteArtifacts {
  const CircuitArtifacts* circuit = nullptr;
  DefenderSuite suite;
  /// Oracle built on circuit->compacted + suite: compiled plan + golden
  /// rows. Never null in a built entry; every job's salvage clones it.
  std::unique_ptr<SuiteOracle> oracle;
  double atpg_coverage = 0.0;  ///< Front algorithm's coverage.
};

/// The immutable artifact bundle one job consumes (const refs into the
/// store). Assembled by ArtifactStore::get_job_inputs; feed `shared` to
/// FlowEngine::set_shared.
struct SharedArtifacts {
  const CircuitArtifacts* circuit = nullptr;
  const SuiteArtifacts* defender = nullptr;
  const PowerModel* pm = nullptr;  ///< The store's shared model.
  /// Algorithm 1's shared result (tier 3). Null: the job runs salvage itself.
  const SalvageResult* salvage = nullptr;
  FlowSharedInputs shared;  ///< Points into the circuit and suite entries.
};

/// The store keys of one job's three entries — what retain/release count.
struct ArtifactKeys {
  std::string circuit;  ///< Tier 1: the make_benchmark name.
  std::string suite;    ///< Tier 2: circuit + testgen fingerprint.
  std::string salvage;  ///< Tier 3: suite key + salvage options.
};

class ArtifactStore {
 public:
  ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// The shared power model (one CellLibrary::tsmc65_like() per store).
  const PowerModel& power_model() const { return pm_; }

  /// Tier-1 lookup: builds the circuit entry on first use, returns the
  /// shared entry afterwards. Throws what make_benchmark throws on an
  /// unknown name.
  const CircuitArtifacts& get_circuit(const std::string& name);

  /// Tier-2 lookup: builds (suite + oracle) for this circuit/defender
  /// fingerprint on first use. `opt` must be the job's fully resolved
  /// TestGenOptions (the key is a fingerprint of every generation-relevant
  /// field, so two jobs share iff their suites would be identical).
  const SuiteArtifacts& get_suite(const std::string& circuit,
                                  const TestGenOptions& opt);

  /// Tier-3 lookup: runs FlowEngine::salvage(`opt`) once on the tier-2
  /// inputs for this circuit/defender and returns the shared result —
  /// bit-identical to the salvage a job would run itself. `opt.threads` is
  /// ignored and not part of the key.
  const SalvageResult& get_salvage(const std::string& circuit,
                                   const TestGenOptions& testgen,
                                   const SalvageOptions& opt);

  /// Convenience: all three tiers + a wired FlowSharedInputs.
  SharedArtifacts get_job_inputs(const std::string& circuit,
                                 const TestGenOptions& testgen,
                                 const SalvageOptions& salvage);

  /// Registers one pending job on each of its three entries (creating them
  /// unbuilt when absent). Call for every job before any of them runs.
  void retain(const ArtifactKeys& keys);

  /// One retained job ended: drops its count on each entry and frees every
  /// entry whose count reaches zero. No-op for an entry never retained.
  void release(const ArtifactKeys& keys);

  /// Number of live entries per tier (observability + tests).
  std::size_t circuit_count() const;
  std::size_t suite_count() const;
  std::size_t salvage_count() const;

 private:
  template <class T>
  struct Entry {
    Mutex build_mu;
    bool built TZ_GUARDED_BY(build_mu) = false;
    T art;
    /// Retained jobs yet to release it, guarded by the store's mu_. The
    /// entry is freed when a release brings this back to zero; 0 from the
    /// start means never retained, so the entry lives as long as the store.
    std::size_t pending = 0;
  };
  /// Node-stable map: references into entries survive later insertions.
  template <class T>
  using Tier = std::map<std::string, std::unique_ptr<Entry<T>>>;

  /// The entry for `key`, created unbuilt when absent. Caller holds mu_.
  template <class T>
  static Entry<T>& slot(Tier<T>& tier, const std::string& key);
  /// Runs `build` on the entry's artifact exactly once across threads.
  template <class T, class Build>
  static const T& build_once(Entry<T>& entry, Build&& build);
  /// Drops one count; returns the entry to free at zero. Caller holds mu_.
  template <class T>
  static std::unique_ptr<Entry<T>> unref(Tier<T>& tier, const std::string& key);

  PowerModel pm_;
  mutable Mutex mu_;
  Tier<CircuitArtifacts> circuits_ TZ_GUARDED_BY(mu_);
  Tier<SuiteArtifacts> suites_ TZ_GUARDED_BY(mu_);
  Tier<SalvageResult> salvages_ TZ_GUARDED_BY(mu_);
};

/// The builders behind the store's three tiers; run_trojanzero_flow calls
/// them too, so a one-shot flow builds exactly what a campaign shares.
/// Tier 1: make_benchmark(name), its compacted twin and golden P/A totals.
/// Under TZ_CHECK the netlist is verified first (VerifyError at "flow
/// input").
CircuitArtifacts build_circuit_artifacts(const std::string& name,
                                         const PowerModel& pm);
/// Tier 2, filled in place: the entry points into `circuit`, and its oracle
/// into the entry's own suite, so `art` must not move once built. Throws
/// std::invalid_argument, before any ATPG runs, when the circuit has DFFs.
void build_suite_artifacts(SuiteArtifacts& art,
                           const CircuitArtifacts& circuit,
                           const TestGenOptions& opt);
/// Tier 3: Algorithm 1 exactly as a job on `suite` runs it — the same
/// netlist, suite, power model and oracle seed.
SalvageResult build_salvage_artifact(const SuiteArtifacts& suite,
                                     const PowerModel& pm,
                                     const SalvageOptions& opt);

/// The bundle one job consumes, wired from built entries of all three tiers.
SharedArtifacts job_inputs(const SuiteArtifacts& suite,
                           const SalvageResult* salvage, const PowerModel& pm);

/// Stable fingerprint of every TestGenOptions field that changes the
/// generated suite — part of the tier-2 cache key and of the job id.
std::string testgen_fingerprint(const TestGenOptions& opt);

/// The three store keys of a job on `circuit` with these resolved options.
ArtifactKeys artifact_keys(const std::string& circuit,
                           const TestGenOptions& testgen,
                           const SalvageOptions& salvage);

}  // namespace tz
