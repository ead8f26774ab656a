// Campaign engine tests (src/campaign/): the deterministic JSON wire
// format, JobSpec identity/resolution, the artifact layer's shared-vs-cold
// bit-identity, salvage-tier sharing and job-counted entry lifetimes, grid
// expansion + sharding, the checkpoint/resume/merge
// byte-identity contract across shard and thread counts (including a
// simulated mid-shard kill with a torn trailing line), the CampaignChecker
// corruption tests (one per Camp* CheckId), and the job-level parallel_for
// with the cgroup CPU-quota parsers behind its thread resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/artifacts.hpp"
#include "campaign/driver.hpp"
#include "campaign/job.hpp"
#include "campaign/json.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "netlist/bench_io.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace tz {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tz_campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The small multi-circuit grid the scheduler tests sweep: two circuits so
// multi-shard runs exercise both populated and empty shards, two seeds so
// the suite tier of the ArtifactStore holds more than one entry.
CampaignGrid small_grid() {
  CampaignGrid g;
  g.name = "test";
  g.circuits = {"c17", "c432"};
  g.seeds = {0, 11};
  return g;
}

// ------------------------------------------------------------------- JSON

TEST(CampaignJson, DumpIsDeterministicAndParseRoundTrips) {
  Json obj = Json(JsonObject{});
  obj.set("b", 1);
  obj.set("a", Json(JsonArray{Json(true), Json(nullptr), Json("x\"\n")}));
  obj.set("d", 0.1);
  const std::string text = obj.dump();
  // Insertion order, not sorted order; to_chars shortest double.
  EXPECT_EQ(text, "{\"b\":1,\"a\":[true,null,\"x\\\"\\n\"],\"d\":0.1}");
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(CampaignJson, NumbersRoundTripExactly) {
  // Shortest-round-trip doubles re-parse to the same bits.
  for (const double v : {0.992, 1.0 / 3.0, 1e-17, 123456.789, -0.0078125}) {
    const std::string text = Json(v).dump();
    EXPECT_EQ(Json::parse(text).as_double(), v) << text;
    EXPECT_EQ(Json::parse(text).dump(), text);
  }
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            INT64_C(9223372036854775807));
}

TEST(CampaignJson, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,2"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  // Typed accessors fail loudly on mismatches.
  EXPECT_THROW(Json::parse("[1]").as_object(), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1}").get("b"), std::runtime_error);
}

// ---------------------------------------------------------------- JobSpec

TEST(CampaignJob, SpecResolvesTableDefaultsAndId) {
  JobSpec s;
  s.circuit = "c432";
  const JobSpec r = s.resolved();
  EXPECT_EQ(r.pth, spec_for("c432").pth);
  EXPECT_EQ(r.counter_bits, spec_for("c432").counter_bits);
  EXPECT_EQ(r.seed, TestGenOptions{}.seed);
  EXPECT_EQ(r.trigger_width, 2);
  // threads is intentionally not part of the identity.
  JobSpec t = s;
  t.threads = 8;
  EXPECT_EQ(s.id(), t.id());
  EXPECT_NE(s.id().find("c432|pth="), std::string::npos);
}

TEST(CampaignJob, SpecJsonRoundTripPreservesIdentity) {
  JobSpec s;
  s.circuit = "c880";
  s.seed = 42;
  s.counter_bits = 2;
  s.trigger_width = 4;
  s.defender = "atpg+rand";
  s.order = 'l';
  const JobSpec back = JobSpec::from_json(s.to_json());
  EXPECT_EQ(back.id(), s.id());
  EXPECT_EQ(s.to_json().dump(), back.to_json().dump());
}

TEST(CampaignJob, UnknownDefenderThrows) {
  JobSpec s;
  s.circuit = "c17";
  s.defender = "bogus";
  EXPECT_THROW(s.testgen(), std::runtime_error);
}

// ----------------------------------------------------- FlowResult wire fmt

TEST(CampaignJob, FlowResultJsonRoundTripsByteIdentically) {
  JobSpec s;
  s.circuit = "c17";
  ArtifactStore store;
  const FlowResult r = run_flow_job(s, store);

  // The FlowMeta stamp is populated by the flow itself.
  EXPECT_EQ(r.meta.circuit, "c17");
  EXPECT_EQ(r.meta.seed, TestGenOptions{}.seed);
  EXPECT_GT(r.meta.gates, 0u);
  EXPECT_GT(r.meta.inputs, 0u);
  EXPECT_FALSE(r.meta.suite_patterns.empty());
  EXPECT_GT(r.meta.total_patterns(), 0u);
  EXPECT_FALSE(r.meta.fault_mode.empty());
  EXPECT_GE(r.meta.threads, 1u);
  EXPECT_GT(r.meta.wall_ms, 0.0);

  const std::string wire = flow_result_to_json(r).dump();
  const FlowResult back = flow_result_from_json(Json::parse(wire));
  EXPECT_EQ(flow_result_to_json(back).dump(), wire);
  EXPECT_EQ(back.meta.gates, r.meta.gates);
  EXPECT_EQ(back.meta.suite_patterns, r.meta.suite_patterns);
  EXPECT_EQ(back.atpg_coverage, r.atpg_coverage);
  EXPECT_EQ(back.insertion.success, r.insertion.success);
}

// ---------------------------------------------------------- artifact layer

TEST(CampaignArtifacts, StoreBuildsOnceAndSharesAcrossJobs) {
  ArtifactStore store;
  JobSpec a;
  a.circuit = "c17";
  JobSpec b = a;
  b.counter_bits = 3;  // different HT shape, same circuit + defender suite
  run_flow_job(a, store);
  run_flow_job(b, store);
  EXPECT_EQ(store.circuit_count(), 1u);
  EXPECT_EQ(store.suite_count(), 1u);
  JobSpec c = a;
  c.seed = 7;  // new suite tier entry, same circuit tier entry
  run_flow_job(c, store);
  EXPECT_EQ(store.circuit_count(), 1u);
  EXPECT_EQ(store.suite_count(), 2u);
}

TEST(CampaignArtifacts, SuiteTierRejectsSequentialCircuitBeforeAtpg) {
  // A host with DFFs fails at the suite tier before test generation runs:
  // the entry is left exactly as it came in.
  CircuitArtifacts circuit;
  circuit.name = "c17+dff";
  circuit.netlist = make_benchmark("c17");
  circuit.netlist.add_gate(GateType::Dff, "q",
                           {circuit.netlist.outputs().front()});
  circuit.compacted = circuit.netlist.compact();
  SuiteArtifacts art;
  EXPECT_THROW(build_suite_artifacts(art, circuit, TestGenOptions{}),
               std::invalid_argument);
  EXPECT_EQ(art.circuit, nullptr);
  EXPECT_TRUE(art.suite.algorithms.empty());
  EXPECT_EQ(art.oracle, nullptr);
}

TEST(CampaignArtifacts, SalvageTierSharedAcrossHtShapes) {
  // Algorithm 1 sees N, the suite, Pth and the visit order; the HT shape
  // only enters Algorithm 2, and threads never change a result.
  ArtifactStore store;
  JobSpec a;
  a.circuit = "c432";
  JobSpec b = a;
  b.counter_bits = 2;
  b.trigger_width = 4;
  b.threads = 2;
  EXPECT_EQ(a.artifact_keys().salvage, b.artifact_keys().salvage);
  run_flow_job(a, store);
  run_flow_job(b, store);
  EXPECT_EQ(store.suite_count(), 1u);
  EXPECT_EQ(store.salvage_count(), 1u);
  JobSpec c = a;
  c.pth = 0.995;
  run_flow_job(c, store);
  EXPECT_EQ(store.salvage_count(), 2u);
  JobSpec d = a;
  d.order = 'l';
  run_flow_job(d, store);
  EXPECT_EQ(store.salvage_count(), 3u);
  EXPECT_EQ(store.suite_count(), 1u);
}

TEST(CampaignArtifacts, RetainedEntriesLiveUntilTheirLastJob) {
  ArtifactStore store;
  JobSpec a;
  a.circuit = "c17";
  JobSpec b = a;
  b.trigger_width = 3;  // same three entries
  const ArtifactKeys ka = a.artifact_keys();
  const ArtifactKeys kb = b.artifact_keys();
  store.retain(ka);
  store.retain(kb);
  run_flow_job(a, store);
  store.release(ka);
  EXPECT_EQ(store.salvage_count(), 1u);  // b is still pending
  run_flow_job(b, store);
  store.release(kb);
  EXPECT_EQ(store.circuit_count(), 0u);
  EXPECT_EQ(store.suite_count(), 0u);
  EXPECT_EQ(store.salvage_count(), 0u);

  // Entries never retained live as long as the store.
  run_flow_job(a, store);
  store.release(ka);
  EXPECT_EQ(store.circuit_count(), 1u);
  EXPECT_EQ(store.suite_count(), 1u);
  EXPECT_EQ(store.salvage_count(), 1u);
}

TEST(CampaignArtifacts, SharedJobBitIdenticalToColdFlow) {
  // The core artifact-layer contract: a job run against a warm shared store
  // (seeded oracle, cached suite/netlist/power, shared salvage) produces
  // byte-for-byte the same wire row as the one-shot run_trojanzero_flow,
  // which builds its own artifacts. Shared rows are compared after a JSON
  // round trip, the form a campaign artifact stores them in.
  const auto wire = [](FlowResult r) {
    r.meta.wall_ms = 0.0;  // volatile
    return flow_result_to_json(r).dump();
  };
  const auto round_trip = [&](const FlowResult& r) {
    return wire(flow_result_from_json(Json::parse(wire(r))));
  };

  // Every Table-I circuit at its Table-I options: the rows the table1,
  // fig3 and fig7 benches print from a campaign against the per-circuit
  // run_trojanzero_flow(name) overload. That overload runs its scans at the
  // default thread count, which only meta.threads records.
  for (const BenchmarkSpec& spec : iscas85_specs()) {
    JobSpec s;
    s.circuit = spec.name;
    ArtifactStore store;
    run_flow_job(s, store);  // warm the store so the next run shares
    const FlowResult shared = run_flow_job(s, store);
    FlowResult cold = run_trojanzero_flow(spec.name);
    cold.meta.threads = shared.meta.threads;
    EXPECT_EQ(round_trip(shared), wire(cold)) << spec.name;
  }

  // Both salvage orders, and a second HT shape on the warm salvage entry,
  // against the cold flow at the job's own resolved options.
  for (const char* name : {"c17", "c432"}) {
    for (const char order : {'p', 'l'}) {
      JobSpec s;
      s.circuit = name;
      s.order = order;
      JobSpec other = s;
      other.counter_bits = 2;
      other.trigger_width = 3;
      ArtifactStore store;
      run_flow_job(s, store);  // warm the store so the next runs share
      for (const JobSpec& job : {s, other}) {
        const FlowResult shared = run_flow_job(job, store);
        const FlowResult cold = run_trojanzero_flow(name, job.flow_options());
        EXPECT_EQ(round_trip(shared), wire(cold)) << job.id();
      }
      EXPECT_EQ(store.salvage_count(), 1u) << name << " " << order;
    }
  }
}

TEST(CampaignArtifacts, SharedJobResultHoldsNoArtifactCopies) {
  // A job on the store reads N, the suite and N' in place: its result keeps
  // their statistics and N'' only. The cold flow owns its inputs and still
  // returns all of them.
  JobSpec s;
  s.circuit = "c432";
  ArtifactStore store;
  FlowResult shared = run_flow_job(s, store);
  const FlowResult cold = run_trojanzero_flow("c432", s.flow_options());
  EXPECT_EQ(shared.original.raw_size(), 0u);
  EXPECT_TRUE(shared.suite.algorithms.empty());
  EXPECT_EQ(shared.salvage.modified.raw_size(), 0u);
  ASSERT_TRUE(shared.insertion.success);
  EXPECT_EQ(write_bench_string(shared.insertion.infected),
            write_bench_string(cold.insertion.infected));
  EXPECT_EQ(cold.original.gate_count(), shared.meta.gates);
  EXPECT_FALSE(cold.suite.algorithms.empty());
  EXPECT_GT(cold.salvage.modified.live_count(), 0u);

  // A bundle without a shared salvage entry: the job runs Algorithm 1
  // itself, and its own N' is left out of the result as well.
  const FlowOptions opt = s.flow_options();
  SalvageOptions sopt;
  sopt.pth = opt.pth;
  sopt.order = opt.order;
  SharedArtifacts arts = store.get_job_inputs("c432", opt.testgen, sopt);
  arts.salvage = nullptr;
  FlowResult own = run_flow_job(s, arts);
  EXPECT_EQ(own.salvage.modified.raw_size(), 0u);
  own.meta.wall_ms = 0.0;
  shared.meta.wall_ms = 0.0;
  EXPECT_EQ(flow_result_to_json(own).dump(), flow_result_to_json(shared).dump());
}

TEST(CampaignArtifacts, FingerprintSeparatesSuiteConfigs) {
  TestGenOptions a = FlowOptions::atpg_only_defender();
  TestGenOptions b = a;
  EXPECT_EQ(testgen_fingerprint(a), testgen_fingerprint(b));
  b.seed = 99;
  EXPECT_NE(testgen_fingerprint(a), testgen_fingerprint(b));
  b = a;
  b.random_patterns = 128;
  EXPECT_NE(testgen_fingerprint(a), testgen_fingerprint(b));
}

// ------------------------------------------------------------------- grid

TEST(CampaignGridTest, ExpansionIsCanonicalCrossProduct) {
  CampaignGrid g = small_grid();
  g.counter_bits = {2, 3};
  const std::vector<JobSpec> jobs = g.expand();
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
  // Circuits outermost, then seeds, then counter_bits.
  EXPECT_EQ(jobs[0].circuit, "c17");
  EXPECT_EQ(jobs[0].seed, 0u);
  EXPECT_EQ(jobs[0].counter_bits, 2);
  EXPECT_EQ(jobs[1].counter_bits, 3);
  EXPECT_EQ(jobs[2].seed, 11u);
  EXPECT_EQ(jobs[4].circuit, "c432");
  // Expansion is deterministic and ids are unique.
  std::vector<std::string> ids;
  for (const JobSpec& j : jobs) ids.push_back(j.id());
  std::vector<std::string> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(CampaignGridTest, GridJsonRoundTrip) {
  CampaignGrid g = small_grid();
  g.counter_bits = {2, 3};
  g.trigger_widths = {2, 4};
  g.job_threads = 2;
  const CampaignGrid back = CampaignGrid::from_json(g.to_json());
  EXPECT_EQ(back.to_json().dump(), g.to_json().dump());
  EXPECT_EQ(back.expand().size(), g.expand().size());
}

TEST(CampaignGridTest, PresetsExpandToDocumentedSizes) {
  EXPECT_EQ(CampaignGrid::preset("table1").expand().size(),
            iscas85_specs().size());
  EXPECT_EQ(CampaignGrid::preset("fig3").expand().size(), 1u);
  EXPECT_EQ(CampaignGrid::preset("smoke").expand().size(), 8u);
  // The committed >=1k-job campaign config.
  EXPECT_EQ(CampaignGrid::preset("campaign1k").expand().size(), 1024u);
  EXPECT_THROW(CampaignGrid::preset("nope"), std::runtime_error);
}

TEST(CampaignGridTest, ShardingIsByCircuitAndInRange) {
  const std::vector<JobSpec> jobs = CampaignGrid::preset("smoke").expand();
  for (const std::size_t n : {1u, 2u, 4u, 7u}) {
    for (const JobSpec& j : jobs) {
      const std::size_t s = shard_of(j, n);
      EXPECT_LT(s, n);
      // Circuit affinity: every job of a circuit lands on the same shard.
      JobSpec other = j;
      other.seed = j.seed + 1;
      EXPECT_EQ(shard_of(other, n), s);
    }
  }
}

// -------------------------------------------------------- scheduler layer

// Run every shard of `grid` into `dir` and return the merged artifact.
std::string run_and_merge(const CampaignGrid& grid, const fs::path& dir,
                          std::size_t shards, std::size_t threads) {
  for (std::size_t s = 0; s < shards; ++s) {
    CampaignOptions opt;
    opt.out_dir = dir.string();
    opt.shard_index = s;
    opt.shard_count = shards;
    opt.threads = threads;
    const CampaignRunStats stats = run_campaign(grid, opt);
    EXPECT_EQ(stats.failed, 0u);
  }
  return merge_campaign(grid, dir.string(), shards);
}

TEST(CampaignDriver, MergedArtifactByteIdenticalAcrossShardsAndThreads) {
  const CampaignGrid grid = small_grid();
  const fs::path ref_dir = scratch_dir("ref");
  const std::string reference = run_and_merge(grid, ref_dir, 1, 1);
  ASSERT_FALSE(reference.empty());

  // The acceptance matrix: shard counts {2, 4} x thread counts {1, 8} all
  // reproduce the single-shard single-thread bytes (1x8 covers the
  // remaining cell).
  int config = 0;
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t threads : {1u, 8u}) {
      const fs::path dir = scratch_dir("cfg" + std::to_string(config++));
      EXPECT_EQ(run_and_merge(grid, dir, shards, threads), reference)
          << shards << " shards, " << threads << " threads";
    }
  }
  const fs::path dir = scratch_dir("t8");
  EXPECT_EQ(run_and_merge(grid, dir, 1, 8), reference);

  // The artifact parses back into rows in canonical grid order.
  const std::vector<CampaignRow> rows = parse_campaign_artifact(reference);
  const std::vector<JobSpec> jobs = grid.expand();
  ASSERT_EQ(rows.size(), jobs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].id, jobs[i].id());
    EXPECT_TRUE(rows[i].error.empty());
    EXPECT_EQ(rows[i].result.meta.wall_ms, 0.0);  // zeroed by the merge
  }
}

TEST(CampaignDriver, ResumeAfterInterruptReproducesBytes) {
  const CampaignGrid grid = small_grid();
  const fs::path ref_dir = scratch_dir("resume_ref");
  const std::string reference = run_and_merge(grid, ref_dir, 1, 1);

  // "Kill" the run after two jobs (max_jobs is the interrupt hook), then
  // tear the checkpoint tail the way an interrupted write would.
  const fs::path dir = scratch_dir("resume");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  opt.max_jobs = 2;
  CampaignRunStats stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.skipped, 0u);
  {
    std::ofstream out(shard_file(dir.string(), 0, 1),
                      std::ios::binary | std::ios::app);
    out << "{\"id\":\"torn-partial-row";  // no newline: a torn tail
  }

  // Not complete yet; status says so.
  std::ostringstream status;
  EXPECT_FALSE(campaign_status(grid, dir.string(), 1, status));
  EXPECT_NE(status.str().find("2/4"), std::string::npos);

  // Restart: the torn tail is truncated, completed jobs are skipped, the
  // remaining jobs run, and the merged bytes match the uninterrupted run.
  opt.max_jobs = 0;
  stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(merge_campaign(grid, dir.string(), 1), reference);

  std::ostringstream done;
  EXPECT_TRUE(campaign_status(grid, dir.string(), 1, done));
}

TEST(CampaignDriver, FailedJobsBecomeErrorRows) {
  CampaignGrid grid;
  grid.name = "err";
  grid.circuits = {"c17"};
  grid.defenders = {"bogus"};  // testgen() throws inside the job
  const fs::path dir = scratch_dir("err");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  const CampaignRunStats stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  const std::vector<CampaignRow> rows =
      parse_campaign_artifact(merge_campaign(grid, dir.string(), 1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].error.find("bogus"), std::string::npos);
}

TEST(CampaignDriver, MergeRequiresEveryShardFile) {
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("missing");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.shard_count = 2;
  opt.shard_index = 0;
  opt.threads = 1;
  run_campaign(grid, opt);
  EXPECT_THROW(merge_campaign(grid, dir.string(), 2), std::runtime_error);
}

TEST(CampaignDriver, ZeroShardCountIsRejected) {
  // Zero shards name no shard file at all: status must not report that
  // empty set as a complete campaign, nor merge emit a header-only artifact.
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("zero_shards");
  std::ostringstream os;
  EXPECT_THROW(campaign_status(grid, dir.string(), 0, os),
               std::invalid_argument);
  EXPECT_EQ(os.str(), "");
  EXPECT_THROW(merge_campaign(grid, dir.string(), 0), std::invalid_argument);
}

TEST(CampaignDriver, DuplicateJobIdsRejectedBeforeAnyRow) {
  // With TZ_CHECK off (the Release default), a grid that expands one job id
  // twice must still fail before any row is written, not only at the merge.
  struct CheckOff {
    CheckOff() { set_check_enabled(0); }
    ~CheckOff() { set_check_enabled(-1); }
  } check_off;
  const char* grids[] = {
      // JobSpec resolves every order but "l" to "p": "x" repeats the "p" job.
      R"({"name":"dup","circuits":["c17"],"orders":["x","p"]})",
      R"({"name":"dup","circuits":["c17"],"seeds":[1,1]})",
  };
  int k = 0;
  for (const char* text : grids) {
    const fs::path dir = scratch_dir("dup" + std::to_string(k++));
    CampaignOptions opt;
    opt.out_dir = dir.string();
    opt.threads = 1;
    EXPECT_THROW(run_campaign(CampaignGrid::from_json(Json::parse(text)), opt),
                 std::runtime_error)
        << text;
    const fs::path shard = shard_file(dir.string(), 0, 1);
    EXPECT_TRUE(!fs::exists(shard) || fs::file_size(shard) == 0) << text;
  }
  try {
    CampaignGrid::from_json(Json::parse(grids[0]));
    ADD_FAILURE() << "order \"x\" accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"x\""), std::string::npos)
        << e.what();
  }
}

TEST(CampaignDriver, MergeOfIncompleteCampaignFailsTheChecker) {
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("incomplete");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  opt.max_jobs = 1;
  run_campaign(grid, opt);
  try {
    merge_campaign(grid, dir.string(), 1);
    FAIL() << "merge of an incomplete campaign must throw";
  } catch (const VerifyError& e) {
    EXPECT_FALSE(e.report().ok());
    bool missing = false;
    for (const auto& v : e.report().violations) {
      missing |= v.id == CheckId::CampMergeMissing;
    }
    EXPECT_TRUE(missing);
  }
}

TEST(CampaignDriver, MergeReportsDamagedShardRows) {
  // The merge streams the shard file; each kind of damage must still reach
  // the checker as the finding it names.
  CampaignGrid grid;
  grid.name = "damage";
  grid.circuits = {"c17"};
  grid.seeds = {0, 11};
  const fs::path dir = scratch_dir("damage");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  run_campaign(grid, opt);
  const std::string path = shard_file(dir.string(), 0, 1);
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t first_end = clean.find('\n') + 1;
  const std::string first_row = clean.substr(0, first_end);
  const std::string first_id = grid.expand()[0].id();
  ASSERT_EQ(first_row.find("{\"id\":\"" + first_id + "\""), 0u);
  const std::string unparseable = "shard 0 has an unparseable row";

  const struct {
    const char* what;
    std::string text;
    bool torn;  ///< Resume would truncate the last line.
    std::vector<std::string> findings;
  } cases[] = {
      {"torn tail", clean + "{\"id\":\"torn", true, {unparseable}},
      {"garbled last line", clean + "junk\n", true, {unparseable}},
      {"mid-file garbage", first_row + "junk\n" + clean.substr(first_end),
       false, {unparseable}},
      {"duplicate row", clean + first_row, false,
       {"row '" + first_id + "' recorded more than once"}},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.text;
    }
    std::ostringstream status;
    campaign_status(grid, dir.string(), 1, status);
    EXPECT_EQ(status.str().find("torn tail") != std::string::npos, c.torn)
        << c.what;
    try {
      merge_campaign(grid, dir.string(), 1);
      ADD_FAILURE() << c.what << ": merge must throw";
    } catch (const VerifyError& e) {
      std::vector<std::string> got;
      for (const auto& v : e.report().violations) {
        EXPECT_EQ(v.id, CheckId::CampShardRows) << c.what;
        got.push_back(v.message);
      }
      EXPECT_EQ(got, c.findings) << c.what;
    }
  }
}

TEST(CampaignDriver, InMemoryCampaignMatchesCheckpointedRows) {
  const CampaignGrid grid = small_grid();
  const std::vector<FlowResult> mem = run_campaign_in_memory(grid, 2);
  const fs::path dir = scratch_dir("inmem");
  const std::vector<CampaignRow> rows =
      parse_campaign_artifact(run_and_merge(grid, dir, 1, 1));
  ASSERT_EQ(mem.size(), rows.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    FlowResult a = mem[i];
    a.meta.wall_ms = 0.0;  // the merge zeroes it; in-memory keeps it
    EXPECT_EQ(flow_result_to_json(a).dump(),
              flow_result_to_json(rows[i].result).dump());
  }
}

TEST(CampaignDriver, RetainedEntriesFreedWhenTheirJobsEnd) {
  // Four workers share 4 suites and 8 salvage entries across 16 jobs; every
  // entry is retained before fan-out and freed with its last job.
  CampaignGrid grid = small_grid();
  grid.counter_bits = {2, 3};
  grid.orders = {'p', 'l'};
  ArtifactStore store;
  const std::vector<FlowResult> four = run_campaign_in_memory(grid, 4, store);
  EXPECT_EQ(store.circuit_count(), 0u);
  EXPECT_EQ(store.suite_count(), 0u);
  EXPECT_EQ(store.salvage_count(), 0u);

  const std::vector<FlowResult> one = run_campaign_in_memory(grid, 1);
  ASSERT_EQ(four.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    FlowResult a = four[i];
    FlowResult b = one[i];
    a.meta.wall_ms = 0.0;
    b.meta.wall_ms = 0.0;
    EXPECT_EQ(flow_result_to_json(a).dump(), flow_result_to_json(b).dump())
        << i;
  }

  // A job that throws inside its build still releases its entries.
  CampaignGrid bad = grid;
  bad.circuits = {"c17", "no_such_circuit"};
  EXPECT_THROW(run_campaign_in_memory(bad, 4, store), std::exception);
  EXPECT_EQ(store.circuit_count(), 0u);
  EXPECT_EQ(store.suite_count(), 0u);
  EXPECT_EQ(store.salvage_count(), 0u);
}

// ------------------------------------------- CampaignChecker corruption

// Baseline healthy view the corruption tests perturb: 4 jobs over 2 shards,
// fully checkpointed and merged.
struct CheckerFixture {
  std::vector<std::string> ids{"a", "b", "c", "d"};
  std::vector<std::size_t> assign{0, 1, 0, 1};
  std::vector<std::vector<std::string>> shard_rows{{"a", "c"}, {"b", "d"}};
  std::vector<std::string> merged{"a", "b", "c", "d"};

  CampaignView view() {
    CampaignView v;
    v.num_shards = 2;
    v.job_ids = ids;
    v.job_shard = assign;
    v.shard_rows = shard_rows;
    v.merged_ids = merged;
    v.check_merged = true;
    return v;
  }
};

bool names(const VerifyReport& report, CheckId id) {
  for (const auto& v : report.violations) {
    if (v.id == id) return true;
  }
  return false;
}

TEST(CampaignChecker, HealthyViewPasses) {
  CheckerFixture f;
  EXPECT_TRUE(CampaignChecker::run(f.view()).ok());
}

TEST(CampaignChecker, CorruptPartition) {
  CheckerFixture f;
  f.assign[2] = 5;  // out of range for 2 shards
  EXPECT_TRUE(names(CampaignChecker::run(f.view()), CheckId::CampPartition));
  CheckerFixture dup;
  dup.ids[3] = "a";  // same job expanded twice
  EXPECT_TRUE(names(CampaignChecker::run(dup.view()), CheckId::CampPartition));
}

TEST(CampaignChecker, CorruptShardRows) {
  CheckerFixture f;
  f.shard_rows[0].push_back("b");  // b is assigned to shard 1
  EXPECT_TRUE(names(CampaignChecker::run(f.view()), CheckId::CampShardRows));
  CheckerFixture unparseable;
  unparseable.shard_rows[1].emplace_back();  // "" = row that failed to parse
  EXPECT_TRUE(
      names(CampaignChecker::run(unparseable.view()), CheckId::CampShardRows));
  CheckerFixture twice;
  twice.shard_rows[0].push_back("a");  // same job recorded twice
  EXPECT_TRUE(
      names(CampaignChecker::run(twice.view()), CheckId::CampShardRows));
}

TEST(CampaignChecker, CorruptMergeDuplicate) {
  CheckerFixture f;
  f.merged.push_back("c");
  EXPECT_TRUE(
      names(CampaignChecker::run(f.view()), CheckId::CampMergeDuplicate));
}

TEST(CampaignChecker, CorruptMergeMissing) {
  CheckerFixture f;
  f.merged.pop_back();
  EXPECT_TRUE(
      names(CampaignChecker::run(f.view()), CheckId::CampMergeMissing));
}

// --------------------------------------------------- cgroup quota parsing

TEST(ParallelFor, RunsEveryIndexOnceAndRethrowsAfterTheDrain) {
  for (const std::size_t threads : {1u, 3u, 16u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1) << threads;

    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallel_for(100, threads,
                              [&](std::size_t i) {
                                ++ran;
                                if (i % 10 == 3) {
                                  throw std::runtime_error("job failed");
                                }
                              }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 100u) << threads;
  }
  parallel_for(0, 4, [](std::size_t) { ADD_FAILURE() << "no index to run"; });
}

TEST(ThreadResolve, ParseCpuQuota) {
  using detail::parse_cpu_quota;
  EXPECT_EQ(parse_cpu_quota("max", "100000"), 0u);       // v2 unlimited
  EXPECT_EQ(parse_cpu_quota("-1", "100000"), 0u);        // v1 unlimited
  EXPECT_EQ(parse_cpu_quota("100000", "100000"), 1u);    // exactly 1 CPU
  EXPECT_EQ(parse_cpu_quota("200000", "100000"), 2u);
  EXPECT_EQ(parse_cpu_quota("150000", "100000"), 2u);    // ceil
  EXPECT_EQ(parse_cpu_quota("150000\n", "100000\n"), 2u);  // kernel newlines
  EXPECT_EQ(parse_cpu_quota("", "100000"), 0u);
  EXPECT_EQ(parse_cpu_quota("garbage", "100000"), 0u);
  EXPECT_EQ(parse_cpu_quota("100000", "0"), 0u);
}

TEST(ThreadResolve, ParseCpuMaxLine) {
  using detail::parse_cpu_max_line;
  EXPECT_EQ(parse_cpu_max_line("max 100000\n"), 0u);
  EXPECT_EQ(parse_cpu_max_line("400000 100000\n"), 4u);
  EXPECT_EQ(parse_cpu_max_line("50000 100000"), 1u);  // half a CPU -> 1
  EXPECT_EQ(parse_cpu_max_line("no-space"), 0u);
}

TEST(ThreadResolve, EffectiveCountBoundsResolution) {
  EXPECT_GE(effective_cpu_count(), 1u);
  // Explicit request always wins.
  EXPECT_EQ(resolve_threads(3), 3u);
  // Default resolution is at most the effective count (or TZ_THREADS).
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace tz
