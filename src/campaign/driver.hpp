// Campaign scheduler layer: grid expansion, sharding, checkpointed JSONL
// streaming, resume and canonical merge.
//
// A CampaignGrid is the cross product (circuits × seeds × counter_bits ×
// trigger_widths × defenders × pths × orders), expanded in one fixed
// nesting order — that order IS the canonical campaign order every merged
// artifact uses, independent of which shard or thread computed a row.
//
// Sharding is two-level:
//  - Across processes: job -> shard by FNV-1a(circuit) % shard_count, so a
//    whole circuit (and its shared ArtifactStore entries) lands in one
//    process; `tz_campaign run --shard i/N` runs one shard.
//  - Across threads: within a shard, jobs fan out on the ThreadPool
//    (TZ_THREADS-aware); each job runs with job_threads internal threads
//    (default 1 — parallelism lives at the job level).
//
// Checkpointing: each shard appends one JSONL row per finished job to
// <dir>/shard-<i>-of-<N>.jsonl and flushes per row. On restart the driver
// parses the file, truncates a torn trailing line (a killed process can
// leave at most one partial row), and skips every job already recorded —
// resume-after-interrupt yields the same merged bytes as an uninterrupted
// run, which tests/campaign_test.cpp proves.
//
// Merge: rows are re-emitted in canonical grid order with volatile fields
// (wall_ms) zeroed, prefixed by one header line describing the grid — the
// merged artifact is byte-identical across shard counts {1..N}, thread
// counts and interruptions. CampaignChecker (tz::verify) validates the
// partition / append-consistency / bijection invariants; the driver's run
// path gates its checks under TZ_CHECK, the merge always enforces them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/job.hpp"

namespace tz {

/// Sweep definition: the cross product of every axis. Single-element axes
/// keep the sentinel defaults (resolved per circuit by JobSpec).
struct CampaignGrid {
  std::string name = "custom";  ///< Preset name; recorded in the header.
  std::vector<std::string> circuits;
  std::vector<std::uint64_t> seeds{0};      ///< 0 = default testgen seed.
  std::vector<int> counter_bits{-1};        ///< -1 = Table-I default.
  std::vector<int> trigger_widths{2};
  std::vector<std::string> defenders{"atpg"};
  std::vector<double> pths{0.0};            ///< 0 = Table-I default.
  std::vector<char> orders{'p'};
  std::size_t job_threads = 1;  ///< Intra-job threads for every job.

  /// Canonical expansion: circuits outermost, then seeds, counter_bits,
  /// trigger_widths, defenders, pths, orders. This order is the merge
  /// order.
  std::vector<JobSpec> expand() const;

  Json to_json() const;
  static CampaignGrid from_json(const Json& j);

  /// Built-in grids: "table1" / "fig7" (the five Table-I circuits),
  /// "fig3" (c499), "smoke" (c17+c432, two seeds), "campaign1k" (the
  /// committed >=1k-job mult/wallace/aluecc/rand mix). Throws on unknown
  /// names.
  static CampaignGrid preset(const std::string& name);
};

struct CampaignOptions {
  std::string out_dir;          ///< Checkpoint directory (created).
  std::size_t shard_index = 0;  ///< This process's shard (< shard_count).
  std::size_t shard_count = 1;
  std::size_t threads = 0;      ///< Job-level pool (0 = TZ_THREADS/CPUs).
  std::size_t max_jobs = 0;     ///< Stop after N new jobs (0 = all) — the
                                ///< interrupt hook for resume tests.
  bool verbose = false;         ///< Per-job progress lines on stderr.
};

struct CampaignRunStats {
  std::size_t total_jobs = 0;  ///< Expanded grid size.
  std::size_t shard_jobs = 0;  ///< Jobs assigned to this shard.
  std::size_t skipped = 0;     ///< Already checkpointed on entry.
  std::size_t completed = 0;   ///< Newly run this invocation.
  std::size_t failed = 0;      ///< Rows recorded as errors this invocation.
};

/// FNV-1a 64-bit over bytes — the deterministic shard hash.
std::uint64_t fnv1a64(std::string_view s);

/// Deterministic job->shard assignment: FNV-1a of the circuit name, so all
/// jobs of one circuit share a shard (and its artifact cache).
std::size_t shard_of(const JobSpec& spec, std::size_t shard_count);

/// Shard checkpoint path: <dir>/shard-<i>-of-<N>.jsonl.
std::string shard_file(const std::string& dir, std::size_t index,
                       std::size_t count);

/// Run this process's shard of the campaign: expand, skip checkpointed
/// jobs, fan the rest out on the thread pool, append one JSONL row per job.
/// A job that throws is recorded as an error row (and counted in `failed`)
/// rather than aborting the shard. The pending jobs' artifact entries are
/// retained before fan-out, so each is freed when its last job ends.
CampaignRunStats run_campaign(const CampaignGrid& grid,
                              const CampaignOptions& opt);

/// Merge all shard files into the canonical artifact text (header line +
/// one row per job in expansion order, wall_ms zeroed). Enforces the
/// CampaignChecker invariants (throws VerifyError on violation) and throws
/// std::runtime_error when a shard file is missing entirely.
std::string merge_campaign(const CampaignGrid& grid, const std::string& dir,
                           std::size_t shard_count);

/// merge_campaign + atomic write (temp file + rename) to `out_file`.
void merge_campaign_to_file(const CampaignGrid& grid, const std::string& dir,
                            std::size_t shard_count,
                            const std::string& out_file);

/// Per-shard completion summary ("shard 0/4: 12/31 jobs") to `os`; returns
/// true when every job of every shard is checkpointed.
bool campaign_status(const CampaignGrid& grid, const std::string& dir,
                     std::size_t shard_count, std::ostream& os);

/// In-memory campaign for the bench front-ends: run every job single-
/// process on `threads`, round-trip each result through the JSON wire
/// format (so the benches print what a merged artifact would reproduce),
/// and return the results in canonical grid order.
std::vector<FlowResult> run_campaign_in_memory(const CampaignGrid& grid,
                                               std::size_t threads = 0);

/// The same on a caller's store. Every job's entries are retained before
/// fan-out and released as the job ends, so once every job has run, the
/// entries this grid retained are gone from the store.
std::vector<FlowResult> run_campaign_in_memory(const CampaignGrid& grid,
                                               std::size_t threads,
                                               ArtifactStore& store);

/// Parse a merged campaign artifact back into (spec, result) rows in
/// artifact order. Error rows come back with a default FlowResult and the
/// message in `error`.
struct CampaignRow {
  std::string id;
  JobSpec spec;
  FlowResult result;
  std::string error;  ///< Non-empty when the job failed.
};
std::vector<CampaignRow> parse_campaign_artifact(std::string_view text);

}  // namespace tz
