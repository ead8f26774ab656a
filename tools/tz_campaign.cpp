// tz_campaign — the campaign front end: run / merge / status over a sweep
// grid (campaign/driver.hpp).
//
//   tz_campaign run    --grid <preset|file.json> --out <dir>
//                      [--shard i/N] [--threads T] [--max-jobs M]
//                      [--verbose]
//   tz_campaign merge  --grid <preset|file.json> --out <dir>
//                      [--shards N] [--output <file>]
//   tz_campaign status --grid <preset|file.json> --out <dir> [--shards N]
//
// `--grid` takes a built-in preset name (table1, fig3, fig7, smoke,
// campaign1k) or a path to a JSON grid description (the same schema
// CampaignGrid::to_json emits). `run` executes this process's shard with
// per-job JSONL checkpointing (restart-safe: completed jobs are skipped,
// a torn trailing line is truncated). `merge` folds all N shard files into
// one canonically-ordered artifact on stdout or --output; its bytes are
// identical for every shard/thread count that produced the inputs. `status`
// prints per-shard completion and exits 0 only when the campaign is done.
//
// Exit status: 0 on success (status: campaign complete), 1 on failure
// (status: incomplete), 2 on usage errors.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "campaign/driver.hpp"
#include "verify/verify.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tz_campaign <run|merge|status> --grid <preset|file.json> "
      "--out <dir> [options]\n"
      "  run:    --shard i/N (default 0/1), --threads T (0 = all CPUs),\n"
      "          --max-jobs M (stop after M new jobs), --verbose\n"
      "  merge:  --shards N (default 1), --output <file> (default stdout)\n"
      "  status: --shards N (default 1)\n"
      "presets: table1, fig3, fig7, smoke, campaign1k\n");
  return 2;
}

bool is_file(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

tz::CampaignGrid load_grid(const std::string& arg) {
  if (is_file(arg)) {
    std::ifstream in(arg, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return tz::CampaignGrid::from_json(tz::Json::parse(ss.str()));
  }
  return tz::CampaignGrid::preset(arg);
}

/// The whole of `text` as an unsigned decimal.
bool parse_count(std::string_view text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && p == end;
}

bool parse_shard(std::string_view arg, std::size_t& index,
                 std::size_t& count) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string_view::npos) return false;
  return parse_count(arg.substr(0, slash), index) &&
         parse_count(arg.substr(slash + 1), count) && count > 0 &&
         index < count;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd != "run" && cmd != "merge" && cmd != "status") return usage();

  std::string grid_arg, out_dir, output_file;
  tz::CampaignOptions opt;
  std::size_t shards = 1;

  const auto reject = [](const char* flag, const char* want) {
    std::fprintf(stderr, "tz_campaign: %s expects %s\n", flag, want);
    return usage();
  };
  for (int i = 2; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tz_campaign: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--grid") == 0) {
      const char* v = need_value("--grid");
      if (v == nullptr) return usage();
      grid_arg = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = need_value("--out");
      if (v == nullptr) return usage();
      out_dir = v;
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      const char* v = need_value("--shard");
      if (v == nullptr || !parse_shard(v, opt.shard_index, opt.shard_count)) {
        return reject("--shard", "i/N with i < N");
      }
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = need_value("--shards");
      if (v == nullptr || !parse_count(v, shards) || shards == 0) {
        return reject("--shards", "a count >= 1");
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      if (v == nullptr || !parse_count(v, opt.threads)) {
        return reject("--threads", "a count");
      }
    } else if (std::strcmp(argv[i], "--max-jobs") == 0) {
      const char* v = need_value("--max-jobs");
      if (v == nullptr || !parse_count(v, opt.max_jobs)) {
        return reject("--max-jobs", "a count");
      }
    } else if (std::strcmp(argv[i], "--output") == 0) {
      const char* v = need_value("--output");
      if (v == nullptr) return usage();
      output_file = v;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else {
      std::fprintf(stderr, "tz_campaign: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (grid_arg.empty() || out_dir.empty()) return usage();
  opt.out_dir = out_dir;

  try {
    const tz::CampaignGrid grid = load_grid(grid_arg);

    if (cmd == "run") {
      const tz::CampaignRunStats stats = tz::run_campaign(grid, opt);
      std::fprintf(stderr,
                   "tz_campaign: shard %zu/%zu: %zu jobs (%zu skipped, "
                   "%zu completed, %zu failed) of %zu total\n",
                   opt.shard_index, opt.shard_count, stats.shard_jobs,
                   stats.skipped, stats.completed, stats.failed,
                   stats.total_jobs);
      return stats.failed == 0 ? 0 : 1;
    }
    if (cmd == "merge") {
      if (output_file.empty()) {
        std::cout << tz::merge_campaign(grid, out_dir, shards);
      } else {
        tz::merge_campaign_to_file(grid, out_dir, shards, output_file);
        std::fprintf(stderr, "tz_campaign: merged %s\n", output_file.c_str());
      }
      return 0;
    }
    // status
    const bool done = tz::campaign_status(grid, out_dir, shards, std::cout);
    return done ? 0 : 1;
  } catch (const tz::VerifyError& e) {
    std::fprintf(stderr, "tz_campaign: invariant check failed at %s:\n%s",
                 std::string(e.phase()).c_str(), e.report().format().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tz_campaign: %s\n", e.what());
    return 1;
  }
}
