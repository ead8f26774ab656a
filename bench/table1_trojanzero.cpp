// Reproduces Table I: TrojanZero analysis for the five ISCAS85 benchmarks.
//
// For each circuit: run the full flow at the paper's Pth / counter size and
// print measured values next to the published ones. Absolute power/area
// differ (synthetic 65nm library vs the authors' TSMC kit); the claims to
// check are the *relationships*: P(N') < P(N'') <= P(N), A(N'') ~= A(N),
// non-empty candidate/expendable sets, and rare trigger exposure.
//
// The rows come from the campaign engine (the "table1" grid run through
// run_campaign_in_memory, which round-trips every result through the JSON
// wire format — so this output is exactly what a merged campaign artifact
// reproduces).
#include <iostream>
#include <vector>

#include "campaign/driver.hpp"
#include "core/report.hpp"

namespace {

void print_row(std::ostream& os, const tz::FlowResult& r,
               const tz::BenchmarkSpec& spec) {
  tz::print_table1_row(os, r, spec);
  if (!r.insertion.success) {
    os << "  !! insertion failed (" << r.insertion.fail_build << "/"
       << r.insertion.fail_test << "/" << r.insertion.fail_caps
       << " build/test/cap rejections)\n";
    return;
  }
  os << "  inserted " << r.insertion.ht_name << " at "
     << r.insertion.victim_name << " with " << r.insertion.dummy_gates
     << " dummy gate(s); "
     << "ATPG coverage " << 100.0 * r.atpg_coverage << "% over "
     << r.meta.suite_patterns.front() << " TPs; payload-fire Pft "
     << r.pft_payload << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Table I: TrojanZero analysis (measured vs paper) ===\n";
  // Grid order == iscas85_specs() order, so results line up with specs.
  const std::vector<tz::FlowResult> results =
      tz::run_campaign_in_memory(tz::CampaignGrid::preset("table1"));
  std::size_t i = 0;
  for (const tz::BenchmarkSpec& spec : tz::iscas85_specs()) {
    print_row(std::cout, results[i++], spec);
  }
  std::cout << "\nColumns: C = candidate gates at Pth, Eg = gates salvaged,\n"
               "P/A triples = HT-free / modified / TZ-infected, Pft = trigger\n"
               "exposure probability during the defender's test session.\n";
  return 0;
}
