#include "campaign/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "gen/iscas.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace tz {

namespace fs = std::filesystem;

// ------------------------------------------------------------ CampaignGrid

std::vector<JobSpec> CampaignGrid::expand() const {
  std::vector<JobSpec> jobs;
  jobs.reserve(circuits.size() * seeds.size() * counter_bits.size() *
               trigger_widths.size() * defenders.size() * pths.size() *
               orders.size());
  // Fixed nesting order — this IS the canonical campaign order.
  for (const std::string& circuit : circuits) {
    for (const std::uint64_t seed : seeds) {
      for (const int cb : counter_bits) {
        for (const int tw : trigger_widths) {
          for (const std::string& def : defenders) {
            for (const double pth : pths) {
              for (const char ord : orders) {
                JobSpec s;
                s.circuit = circuit;
                s.seed = seed;
                s.counter_bits = cb;
                s.trigger_width = tw;
                s.defender = def;
                s.pth = pth;
                s.order = ord;
                s.threads = job_threads;
                jobs.push_back(std::move(s));
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

Json CampaignGrid::to_json() const {
  Json j = Json(JsonObject{});
  j.set("name", name);
  JsonArray circ;
  for (const std::string& c : circuits) circ.emplace_back(c);
  j.set("circuits", Json(std::move(circ)));
  JsonArray sd;
  for (const std::uint64_t s : seeds) {
    sd.emplace_back(static_cast<std::int64_t>(s));
  }
  j.set("seeds", Json(std::move(sd)));
  JsonArray cb;
  for (const int b : counter_bits) cb.emplace_back(b);
  j.set("counter_bits", Json(std::move(cb)));
  JsonArray tw;
  for (const int w : trigger_widths) tw.emplace_back(w);
  j.set("trigger_widths", Json(std::move(tw)));
  JsonArray def;
  for (const std::string& d : defenders) def.emplace_back(d);
  j.set("defenders", Json(std::move(def)));
  JsonArray pt;
  for (const double p : pths) pt.emplace_back(p);
  j.set("pths", Json(std::move(pt)));
  JsonArray ord;
  for (const char o : orders) ord.emplace_back(std::string(1, o));
  j.set("orders", Json(std::move(ord)));
  j.set("job_threads", job_threads);
  return j;
}

CampaignGrid CampaignGrid::from_json(const Json& j) {
  CampaignGrid g;
  if (const Json* v = j.find("name")) g.name = v->as_string();
  for (const Json& c : j.get("circuits").as_array()) {
    g.circuits.push_back(c.as_string());
  }
  if (const Json* v = j.find("seeds")) {
    g.seeds.clear();
    for (const Json& s : v->as_array()) {
      g.seeds.push_back(static_cast<std::uint64_t>(s.as_int()));
    }
  }
  if (const Json* v = j.find("counter_bits")) {
    g.counter_bits.clear();
    for (const Json& b : v->as_array()) {
      g.counter_bits.push_back(static_cast<int>(b.as_int()));
    }
  }
  if (const Json* v = j.find("trigger_widths")) {
    g.trigger_widths.clear();
    for (const Json& w : v->as_array()) {
      g.trigger_widths.push_back(static_cast<int>(w.as_int()));
    }
  }
  if (const Json* v = j.find("defenders")) {
    g.defenders.clear();
    for (const Json& d : v->as_array()) {
      defender_testgen(d.as_string());  // throws on an unknown name
      g.defenders.push_back(d.as_string());
    }
  }
  if (const Json* v = j.find("pths")) {
    g.pths.clear();
    for (const Json& p : v->as_array()) g.pths.push_back(p.as_double());
  }
  if (const Json* v = j.find("orders")) {
    g.orders.clear();
    for (const Json& o : v->as_array()) {
      const std::string& s = o.as_string();
      if (s != "p" && s != "l") {
        throw std::runtime_error("campaign grid: order \"" + s +
                                 "\" is not \"p\" or \"l\"");
      }
      g.orders.push_back(s[0]);
    }
  }
  if (const Json* v = j.find("job_threads")) {
    g.job_threads = static_cast<std::size_t>(v->as_int());
  }
  if (g.circuits.empty()) {
    throw std::runtime_error("campaign grid: no circuits");
  }
  return g;
}

CampaignGrid CampaignGrid::preset(const std::string& name) {
  CampaignGrid g;
  g.name = name;
  if (name == "table1" || name == "fig7") {
    // The Table-I circuits with their per-circuit paper defaults (sentinels
    // resolve inside JobSpec), in iscas85_specs() order.
    for (const BenchmarkSpec& spec : iscas85_specs()) {
      g.circuits.push_back(spec.name);
    }
    return g;
  }
  if (name == "fig3") {
    g.circuits = {"c499"};
    return g;
  }
  if (name == "smoke") {
    // Small + fast: the CI multi-shard campaign (4 circuits x 2 seeds).
    g.circuits = {"c17", "c432", "c499", "c880"};
    g.seeds = {0, 11};
    return g;
  }
  if (name == "campaign1k") {
    // The reproducible >=1k-job artifact: a mult/wallace/aluecc/rand mix
    // (8 circuits x 32 seeds x {2,3} counter bits x {2,4} trigger widths
    // = 1024 jobs). Every (circuit, seed) pair shares one defender suite
    // across its 4 HT-shape jobs — the artifact layer's briefest showcase.
    g.circuits = {"mult6",    "mult8",    "wallace6", "wallace8",
                  "aluecc8x2", "aluecc16x2", "rand1k",  "rand2k"};
    g.seeds.clear();
    for (std::uint64_t s = 1; s <= 32; ++s) g.seeds.push_back(s);
    g.counter_bits = {2, 3};
    g.trigger_widths = {2, 4};
    return g;
  }
  throw std::runtime_error("unknown campaign preset '" + name + "'");
}

// ----------------------------------------------------------------- shards

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::size_t shard_of(const JobSpec& spec, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(fnv1a64(spec.circuit) % shard_count);
}

std::string shard_file(const std::string& dir, std::size_t index,
                       std::size_t count) {
  return dir + "/shard-" + std::to_string(index) + "-of-" +
         std::to_string(count) + ".jsonl";
}

// ------------------------------------------------------------- checkpoint

namespace {

struct ShardFileContent {
  std::vector<std::string> row_ids;  ///< "" = unparseable row.
  std::size_t good_bytes = 0;  ///< Prefix length covering intact lines.
  bool torn_tail = false;      ///< Last line incomplete/unparseable.
};

/// Stream one shard checkpoint line by line, parsing each row once. Every
/// intact row contributes its id and is handed to `on_row(id, row)`; a
/// malformed or truncated final line sets torn_tail (a killed writer can
/// leave at most one partial row — per-row flush keeps the prefix intact).
/// A malformed line in the middle is recorded with the "" sentinel so the
/// checker can indict the file.
template <class OnRow>
ShardFileContent read_shard_file(const std::string& path, OnRow&& on_row) {
  ShardFileContent out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string line;
  std::size_t pos = 0;
  while (std::getline(in, line)) {
    const bool complete = !in.eof();
    const std::size_t line_end = pos + line.size() + (complete ? 1 : 0);
    const bool last =
        !complete || in.peek() == std::ifstream::traits_type::eof();
    std::optional<Json> row;
    std::string id;
    if (!line.empty()) {
      try {
        row = Json::parse(line);
        id = row->get("id").as_string();
      } catch (const std::exception&) {
        row.reset();
      }
    }
    if (row && complete) {
      on_row(id, *row);
      out.row_ids.push_back(std::move(id));
      out.good_bytes = line_end;
    } else if (last) {
      // Trailing partial/garbled line: the torn tail resume truncates.
      out.torn_tail = true;
    } else {
      // Mid-file garbage is not a torn tail — surface it to the checker.
      out.row_ids.emplace_back();
      out.good_bytes = line_end;
    }
    pos = line_end;
  }
  return out;
}

ShardFileContent read_shard_file(const std::string& path) {
  return read_shard_file(path, [](const std::string&, Json&) {});
}

void build_assignment(const std::vector<JobSpec>& jobs,
                      std::size_t shard_count, std::vector<std::string>& ids,
                      std::vector<std::size_t>& assign) {
  if (shard_count == 0) {
    throw std::invalid_argument("campaign: shard count must be at least 1");
  }
  ids.reserve(jobs.size());
  assign.reserve(jobs.size());
  for (const JobSpec& j : jobs) {
    ids.push_back(j.id());
    assign.push_back(shard_of(j, shard_count));
  }
}

/// Registers one pending job's artifact entries with `store` (call for every
/// job before fan-out) and returns its keys. A spec whose keys cannot be
/// computed (an unknown defender) stays unregistered: it throws the same
/// error inside its own job, before touching any entry, and becomes an error
/// row there.
std::optional<ArtifactKeys> retain_job(ArtifactStore& store,
                                       const JobSpec& spec) {
  try {
    ArtifactKeys keys = spec.artifact_keys();
    store.retain(keys);
    return keys;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// run_flow_job, then release the job's registered entries — also when the
/// job throws.
FlowResult run_retained_job(const JobSpec& spec, ArtifactStore& store,
                            const std::optional<ArtifactKeys>& keys) {
  struct Release {
    ArtifactStore& store;
    const std::optional<ArtifactKeys>& keys;
    ~Release() {
      if (keys) store.release(*keys);
    }
  } release{store, keys};
  return run_flow_job(spec, store);
}

}  // namespace

// ------------------------------------------------------------------- run

CampaignRunStats run_campaign(const CampaignGrid& grid,
                              const CampaignOptions& opt) {
  if (opt.out_dir.empty()) {
    throw std::runtime_error("run_campaign: out_dir is required");
  }
  if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count) {
    throw std::runtime_error("run_campaign: bad shard " +
                             std::to_string(opt.shard_index) + "/" +
                             std::to_string(opt.shard_count));
  }

  const std::vector<JobSpec> jobs = grid.expand();
  std::vector<std::string> ids;
  std::vector<std::size_t> assign;
  build_assignment(jobs, opt.shard_count, ids, assign);

  CampaignRunStats stats;
  stats.total_jobs = jobs.size();

  // Partition sanity before any work, with or without TZ_CHECK: a grid that
  // expands one job id twice (say `"seeds":[1,1]`) would otherwise run both
  // jobs and fail only at the merge. O(jobs).
  CampaignView view;
  view.num_shards = opt.shard_count;
  view.job_ids = ids;
  view.job_shard = assign;
  const VerifyReport report = CampaignChecker::run(view);
  if (!report.ok()) {
    throw VerifyError("campaign shard assignment", report);
  }

  fs::create_directories(opt.out_dir);
  const std::string path =
      shard_file(opt.out_dir, opt.shard_index, opt.shard_count);

  // Resume: collect completed ids; drop a torn trailing line so the file
  // ends on a row boundary before we append.
  ShardFileContent existing = read_shard_file(path);
  if (existing.torn_tail) {
    fs::resize_file(path, existing.good_bytes);
  }
  std::unordered_set<std::string> done(existing.row_ids.begin(),
                                       existing.row_ids.end());
  done.erase(std::string());

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (assign[i] != opt.shard_index) continue;
    ++stats.shard_jobs;
    if (done.count(ids[i]) != 0) {
      ++stats.skipped;
      continue;
    }
    pending.push_back(i);
  }
  if (opt.max_jobs != 0 && pending.size() > opt.max_jobs) {
    pending.resize(opt.max_jobs);
  }

  // Open (and thereby create) the checkpoint file even when nothing is
  // pending: circuit-affinity sharding routinely leaves a shard with zero
  // jobs, and the merge requires every shard file to exist.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("run_campaign: cannot open " + path);
  }
  if (pending.empty()) return stats;

  ArtifactStore store;
  std::vector<std::optional<ArtifactKeys>> keys;
  keys.reserve(pending.size());
  for (const std::size_t i : pending) keys.push_back(retain_job(store, jobs[i]));
  Mutex io_mu;
  parallel_for(pending.size(), opt.threads, [&](std::size_t k) {
    const JobSpec& spec = jobs[pending[k]];
    const std::string& id = ids[pending[k]];
    Json row = Json(JsonObject{});
    row.set("id", id);
    row.set("spec", spec.to_json());
    bool failed = false;
    try {
      const FlowResult r = run_retained_job(spec, store, keys[k]);
      row.set("result", flow_result_to_json(r));
    } catch (const std::exception& e) {
      row.set("error", std::string(e.what()));
      failed = true;
    }
    const std::string line = row.dump();
    MutexLock lk(io_mu);
    // Checkpoint durability: one whole row per write, flushed, so an
    // interrupt can tear at most the line being written right now.
    out << line << '\n';
    out.flush();
    failed ? ++stats.failed : ++stats.completed;
    if (opt.verbose) {
      std::cerr << "[shard " << opt.shard_index << "/" << opt.shard_count
                << "] " << (failed ? "FAIL " : "done ") << id << "\n";
    }
  });
  return stats;
}

// ------------------------------------------------------------------ merge

std::string merge_campaign(const CampaignGrid& grid, const std::string& dir,
                           std::size_t shard_count) {
  const std::vector<JobSpec> jobs = grid.expand();
  std::vector<std::string> ids;
  std::vector<std::size_t> assign;
  build_assignment(jobs, shard_count, ids, assign);

  // One canonical row per job id ("" = not seen yet); the first row of an id
  // recorded twice wins, and the checker below flags the duplicate.
  std::unordered_map<std::string_view, std::size_t> slot_of;
  slot_of.reserve(ids.size());
  std::vector<std::size_t> job_slot(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    job_slot[i] = slot_of.emplace(ids[i], slot_of.size()).first->second;
  }
  std::vector<std::string> slots(slot_of.size());
  std::vector<std::vector<std::string>> shard_row_ids(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::string path = shard_file(dir, s, shard_count);
    if (!fs::exists(path)) {
      throw std::runtime_error("merge: missing shard file " + path);
    }
    ShardFileContent content =
        read_shard_file(path, [&](const std::string& id, Json& row) {
          const auto it = slot_of.find(id);
          if (it == slot_of.end() || !slots[it->second].empty()) return;
          // Canonicalize: zero the volatile wall-time so merged bytes do
          // not depend on how fast this particular run was.
          if (Json* res = row.find("result")) {
            if (Json* meta = res->find("meta")) {
              if (Json* wall = meta->find("wall_ms")) *wall = Json(0.0);
            }
          }
          slots[it->second] = row.dump();
        });
    if (content.torn_tail) {
      // A torn tail means that shard's campaign is still incomplete (or was
      // killed); report it as an unparseable row for the checker.
      content.row_ids.emplace_back();
    }
    shard_row_ids[s] = std::move(content.row_ids);
  }

  // Canonical artifact: header + rows in grid-expansion order, built in one
  // exact allocation while each row is freed as soon as it is copied.
  Json header = Json(JsonObject{});
  header.set("campaign", grid.to_json());
  header.set("jobs", jobs.size());
  const std::string head = header.dump();
  std::size_t bytes = head.size() + 1;
  for (const std::size_t k : job_slot) {
    if (!slots[k].empty()) bytes += slots[k].size() + 1;
  }
  std::string text;
  text.reserve(bytes);
  text += head;
  text.push_back('\n');

  // A grid that expands an id twice fails the partition check below; its
  // row is kept for every expansion so the merged-duplicate finding stays.
  const bool unique_ids = slots.size() == ids.size();
  std::vector<std::string> merged_ids;
  merged_ids.reserve(jobs.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::string& row = slots[job_slot[i]];
    if (row.empty()) continue;  // flagged below
    merged_ids.push_back(ids[i]);
    text += row;
    text.push_back('\n');
    if (unique_ids) std::string().swap(row);
  }

  // The merge always enforces the campaign invariants — an artifact with
  // duplicate or missing rows must never be produced silently.
  CampaignView view;
  view.num_shards = shard_count;
  view.job_ids = ids;
  view.job_shard = assign;
  view.shard_rows = shard_row_ids;
  view.merged_ids = merged_ids;
  view.check_merged = true;
  const VerifyReport report = CampaignChecker::run(view);
  if (!report.ok()) {
    throw VerifyError("campaign merge", report);
  }
  return text;
}

void merge_campaign_to_file(const CampaignGrid& grid, const std::string& dir,
                            std::size_t shard_count,
                            const std::string& out_file) {
  const std::string text = merge_campaign(grid, dir, shard_count);
  const std::string tmp = out_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("merge: cannot write " + tmp);
    }
    out << text;
  }
  fs::rename(tmp, out_file);
}

// ----------------------------------------------------------------- status

bool campaign_status(const CampaignGrid& grid, const std::string& dir,
                     std::size_t shard_count, std::ostream& os) {
  const std::vector<JobSpec> jobs = grid.expand();
  std::vector<std::string> ids;
  std::vector<std::size_t> assign;
  build_assignment(jobs, shard_count, ids, assign);

  bool all_done = true;
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::size_t expected = 0;
    for (const std::size_t a : assign) expected += a == s ? 1 : 0;
    const std::string path = shard_file(dir, s, shard_count);
    const ShardFileContent content = read_shard_file(path);
    const std::unordered_set<std::string> present(content.row_ids.begin(),
                                                  content.row_ids.end());
    std::size_t done_count = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (assign[i] == s && present.count(ids[i]) != 0) ++done_count;
    }
    os << "shard " << s << "/" << shard_count << ": " << done_count << "/"
       << expected << " jobs"
       << (content.torn_tail ? " (torn tail pending truncation)" : "")
       << "\n";
    if (done_count != expected) all_done = false;
  }
  return all_done;
}

// -------------------------------------------------------------- in-memory

std::vector<FlowResult> run_campaign_in_memory(const CampaignGrid& grid,
                                               std::size_t threads) {
  ArtifactStore store;
  return run_campaign_in_memory(grid, threads, store);
}

std::vector<FlowResult> run_campaign_in_memory(const CampaignGrid& grid,
                                               std::size_t threads,
                                               ArtifactStore& store) {
  const std::vector<JobSpec> jobs = grid.expand();
  std::vector<FlowResult> results(jobs.size());
  std::vector<std::optional<ArtifactKeys>> keys;
  keys.reserve(jobs.size());
  for (const JobSpec& j : jobs) keys.push_back(retain_job(store, j));
  parallel_for(jobs.size(), threads, [&](std::size_t i) {
    const FlowResult r = run_retained_job(jobs[i], store, keys[i]);
    // Round-trip through the wire format: the benches print exactly what a
    // merged campaign artifact reproduces.
    results[i] = flow_result_from_json(Json::parse(flow_result_to_json(r).dump()));
  });
  return results;
}

std::vector<CampaignRow> parse_campaign_artifact(std::string_view text) {
  std::vector<CampaignRow> rows;
  rows.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n')));
  std::size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const Json row = Json::parse(line);
    if (first) {
      first = false;
      if (row.find("campaign") != nullptr) continue;  // header line
    }
    CampaignRow out;
    out.id = row.get("id").as_string();
    out.spec = JobSpec::from_json(row.get("spec"));
    if (const Json* err = row.find("error")) {
      out.error = err->as_string();
    } else {
      out.result = flow_result_from_json(row.get("result"));
    }
    rows.push_back(std::move(out));
  }
  return rows;
}

}  // namespace tz
