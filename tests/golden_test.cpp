// Byte-identity gate: the merged campaign artifacts of the table1, fig3 and
// smoke presets and of a PODEM-abort slice of campaign1k (tests/golden/
// slice.json: rand1k + rand2k x seeds 1-4) must equal the files checked in
// under tests/golden/, byte for byte. Each case runs exactly what
// `tz_campaign run --grid <g> --out <dir>` followed by `tz_campaign merge
// --grid <g> --out <dir>` emits. fig7 expands the same jobs as table1, so
// table1.jsonl covers both.
//
// An output-preserving change never touches these files. A change that
// means to move an output regenerates them with the commands in the README
// and shows the row diff. On a mismatch the test prints the first differing
// row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/driver.hpp"
#include "campaign/json.hpp"

#ifndef TZ_GOLDEN_DIR
#error "TZ_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace tz {
namespace {

namespace fs = std::filesystem;

const fs::path kGoldenDir = TZ_GOLDEN_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// run_campaign into a fresh temp dir, then merge_campaign over its one
// shard: the bytes the tz_campaign run/merge pair writes.
std::string run_and_merge(const CampaignGrid& grid) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("tz_golden_" + grid.name);
  fs::remove_all(dir);
  CampaignOptions opt;
  opt.out_dir = dir.string();
  const CampaignRunStats stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.failed, 0u) << grid.name;
  std::string merged = merge_campaign(grid, opt.out_dir, 1);
  fs::remove_all(dir);
  return merged;
}

// Up to 160 bytes of `text` from `from`, stopping at the end of the line.
std::string excerpt(const std::string& text, std::size_t from) {
  if (from >= text.size()) return "<end of file>";
  const std::size_t end = std::min(text.find('\n', from), from + 160);
  return text.substr(from, end - from);
}

// Compare `got` with the golden file; on a mismatch report the first
// differing row (line 1 is the grid header), its job id and both texts from
// shortly before the first differing byte.
void expect_golden(const std::string& got, const std::string& file) {
  const fs::path path = kGoldenDir / file;
  ASSERT_TRUE(fs::exists(path)) << "missing golden " << path;
  const std::string want = read_file(path);
  if (got == want) return;
  std::size_t line = 1, begin = 0, i = 0;
  for (; i < std::min(got.size(), want.size()) && got[i] == want[i]; ++i) {
    if (got[i] == '\n') {
      ++line;
      begin = i + 1;
    }
  }
  const std::size_t from = std::max(begin, i >= 40 ? i - 40 : 0);
  const std::string row = excerpt(want, begin);
  ADD_FAILURE() << file << " differs at line " << line << ", column "
                << i - begin + 1 << "\n  row:    "
                << row.substr(0, row.find(",\"spec\""))
                << "\n  golden: " << excerpt(want, from)
                << "\n  got:    " << excerpt(got, from);
}

TEST(Golden, Table1Preset) {
  expect_golden(run_and_merge(CampaignGrid::preset("table1")),
                "table1.jsonl");
}

TEST(Golden, Fig3Preset) {
  expect_golden(run_and_merge(CampaignGrid::preset("fig3")), "fig3.jsonl");
}

TEST(Golden, SmokePreset) {
  expect_golden(run_and_merge(CampaignGrid::preset("smoke")), "smoke.jsonl");
}

// rand1k/rand2k suites hit PODEM's backtrack limit, so this slice pins the
// abort path of test generation, which the presets above barely reach.
TEST(Golden, Campaign1kAbortSlice) {
  const CampaignGrid grid =
      CampaignGrid::from_json(Json::parse(read_file(kGoldenDir / "slice.json")));
  ASSERT_EQ(grid.expand().size(), 8u);
  expect_golden(run_and_merge(grid), "slice.jsonl");
}

}  // namespace
}  // namespace tz
