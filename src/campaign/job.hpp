// Campaign job layer: one flow run as a pure, serializable unit of work.
//
// A JobSpec is the complete, explicit input of one TrojanZero flow — the
// circuit, the HT shape, the defender configuration, the RNG seed and the
// salvage order. run_flow_job(spec, artifacts) is the pure function the
// scheduler layer (campaign/driver.hpp) fans out: same spec + same artifact
// content => bit-identical FlowResult, at every thread count and shard
// count, which the engine stack already guarantees bit-identity for.
// run_trojanzero_flow is the same path on artifacts it builds for itself.
//
// A job reads N, the suite and N' from its shared artifacts in place; its
// FlowResult carries their statistics and N'' but no copy of them.
//
// FlowResult rows travel as JSON (flow_result_to_json / _from_json): every
// scalar and record field round-trips; the Netlist members (original,
// salvage.modified, insertion.infected) are intentionally NOT serialized —
// a deserialized result carries empty netlists plus the FlowMeta stamp, and
// the report printers read only serialized fields, so a row loaded from a
// JSONL checkpoint prints exactly like a freshly computed one.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/artifacts.hpp"
#include "campaign/json.hpp"
#include "core/report.hpp"

namespace tz {

/// Explicit input of one flow job. Zero/negative sentinel fields resolve to
/// the Table-I per-circuit defaults (resolved()); `threads` is ignored and
/// is NOT part of the identity (id()).
struct JobSpec {
  std::string circuit;        ///< make_benchmark name.
  double pth = 0.0;           ///< 0 = Table-I spec (0.992 for unknown names).
  int counter_bits = -1;      ///< -1 = Table-I spec (3 for unknown names).
  int trigger_width = 2;      ///< Rare nets ANDed into the trigger.
  std::uint64_t seed = 0;     ///< Defender testgen seed; 0 = default 0xA7C.
  std::string defender = "atpg";  ///< "atpg" | "atpg+rand" | "full".
  char order = 'p';           ///< 'p' ByProbability | 'l' ByLeakage.
  /// Ignored (only stamped into FlowMeta::threads); kept while tzbench
  /// still writes it.
  std::size_t threads = 1;

  /// Copy with every sentinel field replaced by its resolved default.
  JobSpec resolved() const;

  /// Canonical job identity: resolved fields, fixed order, to_chars
  /// doubles. The checkpoint/merge key and the shard-assignment input.
  std::string id() const;

  /// The defender suite configuration this spec resolves to (the tier-2
  /// artifact key).
  TestGenOptions testgen() const;

  /// The FlowOptions run_flow_job hands the engine (explicit HT ladder,
  /// resolved thresholds).
  FlowOptions flow_options() const;

  /// The three ArtifactStore entries run_flow_job(spec, store) uses — what
  /// a driver retains before fan-out. Throws like testgen().
  ArtifactKeys artifact_keys() const;

  Json to_json() const;       ///< Resolved fields, canonical member order.
  static JobSpec from_json(const Json& j);
};

/// The defender suite configuration named `defender` ("atpg", "atpg+rand"
/// or "full"), seed left at its default. Throws std::runtime_error naming
/// any other name; the one list of defender names.
TestGenOptions defender_testgen(const std::string& defender);

/// Run one flow job against shared artifacts. Pure: reads `arts` const-only
/// (the oracle seed is deep-copied by the engine; N, the suite and a shared
/// salvage result are read in place and feed the engine and insertion by
/// reference), stamps FlowResult::meta (circuit, seed, gate counts, engine
/// modes, wall time) and never touches global state. The result holds
/// Algorithm 1's statistics and N'' but not N, the suite or N' (not even
/// an N' the job salvaged itself when `arts.salvage` is null). Its wire
/// row is bit-identical to run_trojanzero_flow's for the same resolved
/// options.
FlowResult run_flow_job(const JobSpec& spec, const SharedArtifacts& arts);

/// Convenience: resolve the spec's artifacts (all three tiers) from
/// `store`, then run. The job's wall_ms includes that acquisition, so the
/// job that builds a suite or salvage entry is charged for it.
FlowResult run_flow_job(const JobSpec& spec, ArtifactStore& store);

/// FlowResult wire format. Netlists are not serialized (see file comment);
/// everything else round-trips exactly, including the FlowMeta stamp.
Json flow_result_to_json(const FlowResult& r);
FlowResult flow_result_from_json(const Json& j);

}  // namespace tz
