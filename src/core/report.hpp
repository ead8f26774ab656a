// End-to-end TrojanZero flow (Fig. 2 / Fig. 6) and reporting helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "atpg/test_set.hpp"
#include "core/insertion.hpp"
#include "core/salvage.hpp"
#include "gen/iscas.hpp"
#include "tech/power_model.hpp"

namespace tz {

struct FlowOptions {
  double pth = 0.992;          ///< Algorithm 1 threshold (Table I per circuit).
  int counter_bits = 3;        ///< HT size (Table I per circuit).
  /// Defender configuration. The paper's defender validates with the ATPG TP
  /// set; random-vector exposure is quantified separately (Pft / Eq. 1), so
  /// the flow default is ATPG-only. Enable the extra algorithms for the
  /// defender-strength ablation.
  TestGenOptions testgen = atpg_only_defender();
  InsertionOptions insertion;  ///< Algorithm 2 configuration.
  SalvageOptions::Order order = SalvageOptions::Order::ByProbability;
  /// Ignored by both scans, which are sequential; only stamped into
  /// FlowMeta::threads. Kept while tzbench still writes it.
  std::size_t threads = 0;

  static TestGenOptions atpg_only_defender() {
    TestGenOptions t;
    t.with_random_validation = false;
    t.with_walking = false;
    t.random_patterns = 64;
    t.max_patterns = 80;
    return t;
  }
};

/// Self-describing provenance stamped onto every FlowResult: what ran, with
/// which engine modes, and how long it took. These fields (not the Netlist
/// members) are what the campaign wire format serializes, so a JSONL row
/// read back on another machine still prints the same Table-I line.
struct FlowMeta {
  std::string circuit;          ///< make_benchmark name.
  std::uint64_t seed = 0;       ///< Defender testgen seed actually used.
  std::size_t gates = 0;        ///< Gate count of N (post synthesis-clean).
  std::size_t inputs = 0;       ///< Primary inputs of N.
  std::size_t outputs = 0;      ///< Primary outputs of N.
  /// Per-defender-algorithm pattern counts, suite order.
  std::vector<std::size_t> suite_patterns;
  /// Always true since the compiled plan became the only evaluator; kept so
  /// the wire format does not change.
  bool eval_plan = true;
  std::string fault_mode;       ///< Resolved FaultSimMode ("auto"/...).
  /// resolve_threads(FlowOptions::threads). Nothing runs on it; kept so the
  /// wire format does not change.
  std::size_t threads = 0;
  double wall_ms = 0.0;         ///< End-to-end job wall time (volatile).

  std::size_t total_patterns() const {
    std::size_t n = 0;
    for (const std::size_t p : suite_patterns) n += p;
    return n;
  }
};

/// Everything one Table I row needs. The one-shot run_trojanzero_flow builds
/// and owns N, the suite and N', and returns them here. A job on shared
/// campaign artifacts (run_flow_job) reads the store's N, suite and N' in
/// place, so its result holds no copy of them: `original`, `suite` and
/// `salvage.modified` stay empty, while the statistics, the FlowMeta stamp
/// and N'' are filled.
struct FlowResult {
  std::string benchmark;
  FlowMeta meta;       ///< Provenance + engine-mode stamp (serialized).
  Netlist original;    ///< N (cold flow only).
  DefenderSuite suite; ///< The defender suite (cold flow only).
  SalvageResult salvage;      ///< Algorithm 1 stats; N' on the cold flow only.
  InsertionResult insertion;  ///< Holds N'' and Algorithm 2 stats.
  PowerReport p_n, p_np, p_npp;
  /// P[counter saturates during the defender's pattern stream] — payload
  /// actually fires under test.
  double pft_payload = 0.0;
  /// P[the trigger condition is observed at least once during testing] —
  /// the conservative exposure number Table I's Pft column tracks.
  double pft = 0.0;
  double atpg_coverage = 0.0;
};

/// Run the complete TrojanZero flow per Fig. 2: verify N, compute thresholds,
/// run Algorithm 1 and Algorithm 2, and evaluate Pft. `options.pth` and
/// `counter_bits` default from the Table I spec when the benchmark is known.
/// It builds the circuit, suite and salvage artifacts with the
/// ArtifactStore's builders and runs the campaign job path on them
/// (campaign/job.hpp), so there is one flow path. The definition lives in
/// campaign/job.cpp.
FlowResult run_trojanzero_flow(const std::string& benchmark_name,
                               FlowOptions options);

/// Flow with Table I defaults for the named benchmark.
FlowResult run_trojanzero_flow(const std::string& benchmark_name);

/// Print one Table-I-style row: measured values with the paper's numbers.
void print_table1_row(std::ostream& os, const FlowResult& r,
                      const BenchmarkSpec& paper);

/// Print the paper-vs-measured power/area triple (N, N', N'').
void print_power_triple(std::ostream& os, const FlowResult& r,
                        const BenchmarkSpec& paper);

}  // namespace tz
