// tz_check — command-line lint for netlists and their compiled plans.
//
// Each argument is either a path to a .bench file or a generator spec known
// to make_benchmark ("c880", "rand100k", "mult32", ...). For every target the
// tool runs the strict NetlistChecker (orphan gates are findings here, unlike
// the FlowEngine boundary checks) and, when the netlist is clean enough to
// compile, a fresh-plan PlanChecker. All violations are printed with their
// stable kebab-case check ids; the exit status is 1 if any target had
// findings and 0 when everything is clean.
//
// --json switches stdout to one JSON array with an object per target
// ({"target", "ok", "live_nodes"|"error", "report"}), the report embedding
// the stable check-id keys — the machine-readable face CI diffs against.
//
// Usage: tz_check [--allow-unread] [--no-plan] [--json]
//                 <bench-file-or-spec>...
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "campaign/json.hpp"
#include "gen/iscas.hpp"
#include "netlist/bench_io.hpp"
#include "verify/verify.hpp"

namespace {

bool is_file(const char* path) {
  struct stat st {};
  return ::stat(path, &st) == 0 && S_ISREG(st.st_mode);
}

int usage() {
  std::fprintf(stderr,
               "usage: tz_check [--allow-unread] [--no-plan] [--json] "
               "<bench-file-or-spec>...\n"
               "  --allow-unread  accept live gates with no readers\n"
               "  --no-plan       skip compiling and checking an EvalPlan\n"
               "  --json          structured JSON report on stdout\n"
               "targets: a .bench file path, or any make_benchmark spec\n"
               "         (c432, c880, c1908, c3540, c6288, rand100k, "
               "mult32, ...)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tz::NetlistCheckOptions nopt;
  bool with_plan = true;
  bool json = false;
  std::vector<const char*> targets;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--allow-unread") == 0) {
      nopt.allow_unread_gates = true;
    } else if (std::strcmp(argv[i], "--no-plan") == 0) {
      with_plan = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      targets.push_back(argv[i]);
    }
  }
  if (targets.empty()) return usage();

  int dirty = 0;
  bool first = true;
  if (json) std::printf("[");
  for (const char* target : targets) {
    if (json && !first) std::printf(",\n ");
    first = false;
    tz::Netlist nl;
    try {
      nl = is_file(target) ? tz::read_bench_file(target)
                           : tz::make_benchmark(target);
    } catch (const std::exception& e) {
      if (json) {
        // Paths and parse errors can carry quotes, backslashes and control
        // bytes; Json::dump escapes them all.
        std::printf("{\"target\": %s, \"ok\": false, \"error\": %s}",
                    tz::Json(target).dump().c_str(),
                    tz::Json(e.what()).dump().c_str());
      } else {
        std::fprintf(stderr, "tz_check: %s: %s\n", target, e.what());
      }
      ++dirty;
      continue;
    }

    tz::VerifyReport report = tz::NetlistChecker::run(nl, nopt);
    // Only compile a plan over a structurally sound netlist: EvalPlan's
    // compiler assumes the invariants the netlist sweep just tested.
    if (with_plan && report.ok()) {
      try {
        const tz::EvalPlan plan(nl);
        report.merge(tz::PlanChecker::run(plan, nl));
      } catch (const std::exception& e) {
        report.add(tz::CheckId::PlanEquivalence,
                   std::string("plan compilation threw: ") + e.what());
      }
    }

    if (json) {
      std::printf(
          "{\"target\": %s, \"ok\": %s, \"live_nodes\": %zu, "
          "\"report\": %s}",
          tz::Json(target).dump().c_str(), report.ok() ? "true" : "false",
          nl.live_count(), report.to_json().c_str());
      if (!report.ok()) ++dirty;
    } else if (report.ok()) {
      std::printf("tz_check: %s: OK (%zu live nodes)\n", target,
                  nl.live_count());
    } else {
      std::printf("tz_check: %s: %zu violation(s)\n", target,
                  report.violations.size());
      std::fputs(report.format().c_str(), stdout);
      ++dirty;
    }
  }
  if (json) std::printf("]\n");
  return dirty > 0 ? 1 : 0;
}
