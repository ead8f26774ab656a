// Tests for the power-based detection baselines ([10], [11], [12]).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/ht_library.hpp"
#include "core/report.hpp"
#include "detect/gate_characterization.hpp"
#include "detect/power_trace.hpp"
#include "detect/statistical_learning.hpp"
#include "gen/iscas.hpp"

namespace tz {
namespace {

PowerModel model() { return PowerModel(CellLibrary::tsmc65_like()); }

/// A crude additive HT: extra always-powered gates bolted onto the circuit,
/// the attack model every baseline detector assumes.
Netlist additive_ht(const Netlist& golden, int gates) {
  Netlist dut = golden;
  for (int g = 0; g < gates; ++g) {
    add_dummy_gate(dut, dut.inputs()[g % dut.inputs().size()], GateType::Xor,
                   "add_ht");
  }
  return dut;
}

TEST(PowerTrace, CleanDutNotFlagged) {
  const Netlist nl = make_benchmark("c499");
  const PowerModel pm = model();
  const DetectionResult r = detect_dynamic_power(nl, nl, pm);
  EXPECT_FALSE(r.detected);
  EXPECT_NEAR(r.overhead_percent, 0.0, 3.0);
}

TEST(PowerTrace, LargeAdditiveHtFlagged) {
  const Netlist nl = make_benchmark("c499");
  const PowerModel pm = model();
  const Netlist dut = additive_ht(nl, 40);
  const DetectionResult r = detect_dynamic_power(nl, dut, pm);
  EXPECT_TRUE(r.detected);
  EXPECT_GT(r.overhead_percent, 0.0);
}

TEST(PowerTrace, TotalPowerVariantWorks) {
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  EXPECT_FALSE(detect_total_power(nl, nl, pm).detected);
  EXPECT_TRUE(detect_total_power(nl, additive_ht(nl, 60), pm).detected);
}

TEST(PowerTrace, MinimumDetectableOverheadIsSmallButPositive) {
  const Netlist nl = make_benchmark("c499");
  const PowerModel pm = model();
  const double pct = min_detectable_dynamic_overhead(nl, pm);
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 20.0);  // the detector is useful, not omniscient
}

// ---- degenerate die populations (the detector-math bugfixes) --------------

VariationSpec zero_variation() {
  VariationSpec v;
  v.leakage_sigma = 0.0;
  v.dynamic_sigma = 0.0;
  v.die_sigma = 0.0;
  v.measurement_sigma = 0.0;
  return v;
}

TEST(PowerTrace, ZeroVariationStillFlagsBlatantHt) {
  // With no process variation every die measures identically, the SEM is 0,
  // and the old statistic collapsed to 0.0 — a blatant additive trojan was
  // reported undetected. The sem == 0 path now falls back to a direct
  // mean-difference test.
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.variation = zero_variation();
  const DetectionResult dirty = detect_dynamic_power(nl, additive_ht(nl, 40), pm, opt);
  EXPECT_TRUE(dirty.detected);
  EXPECT_FALSE(std::isnan(dirty.statistic));
  const DetectionResult total = detect_total_power(nl, additive_ht(nl, 40), pm, opt);
  EXPECT_TRUE(total.detected);
}

TEST(PowerTrace, ZeroVariationCleanDutStaysClean) {
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.variation = zero_variation();
  const DetectionResult r = detect_dynamic_power(nl, nl, pm, opt);
  EXPECT_FALSE(r.detected);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_FALSE(std::isnan(r.overhead_percent));
}

TEST(PowerTrace, ZeroDiePopulationsThrow) {
  // 0-die populations used to divide into NaN, and NaN > threshold silently
  // read as "not detected".
  const Netlist nl = make_benchmark("c17");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.golden_dies = 0;
  EXPECT_THROW(detect_dynamic_power(nl, nl, pm, opt), std::invalid_argument);
  EXPECT_THROW(detect_leakage_glc(nl, nl, pm, opt), std::invalid_argument);
  opt.golden_dies = 8;
  opt.dut_dies = 0;
  EXPECT_THROW(detect_total_power(nl, nl, pm, opt), std::invalid_argument);
  EXPECT_THROW(detect_leakage_glc(nl, nl, pm, opt), std::invalid_argument);
}

TEST(Glc, ZeroVariationDegeneratePopulations) {
  // Same sem == 0 fallback as the power-trace detectors: a blatant additive
  // HT stays flagged with identical dies, a clean DUT stays clean on exact
  // rounding residue.
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.variation = zero_variation();
  const DetectionResult clean = detect_leakage_glc(nl, nl, pm, opt);
  EXPECT_FALSE(clean.detected);
  EXPECT_DOUBLE_EQ(clean.statistic, 0.0);
  const DetectionResult dirty = detect_leakage_glc(nl, additive_ht(nl, 50), pm, opt);
  EXPECT_TRUE(dirty.detected);
  EXPECT_FALSE(std::isnan(dirty.statistic));
}

TEST(Learning, DegenerateOptionsThrow) {
  // golden_dies < 2 breaks the n-1 covariance fit (inf/NaN inverse
  // covariance); dut_dies == 0 divides the per-die averages by zero.
  const Netlist nl = make_benchmark("c17");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.golden_dies = 1;
  EXPECT_THROW(detect_statistical_learning(nl, nl, pm, opt),
               std::invalid_argument);
  opt.golden_dies = 0;
  EXPECT_THROW(detect_statistical_learning(nl, nl, pm, opt),
               std::invalid_argument);
  opt.golden_dies = 8;
  opt.dut_dies = 0;
  EXPECT_THROW(detect_statistical_learning(nl, nl, pm, opt),
               std::invalid_argument);
}

TEST(Learning, ZeroVariationHasNoNanStatistics) {
  // Identical training dies give a singular covariance; the clamped inverse
  // keeps the distances finite and a clean population inside the boundary.
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerDetectOptions opt;
  opt.variation = zero_variation();
  const DetectionResult clean = detect_statistical_learning(nl, nl, pm, opt);
  EXPECT_FALSE(clean.detected);
  EXPECT_FALSE(std::isnan(clean.statistic));
  EXPECT_FALSE(std::isnan(clean.overhead_percent));
  // A singular (zero-spread) training covariance degrades the classifier's
  // distances to zero — a known blind spot, but finite and deterministic,
  // never NaN.
  const DetectionResult dirty =
      detect_statistical_learning(nl, additive_ht(nl, 80), pm, opt);
  EXPECT_FALSE(std::isnan(dirty.statistic));
  EXPECT_FALSE(std::isnan(dirty.overhead_percent));
}

TEST(MinOverheadSweeps, NoPrimaryInputsThrows) {
  // `gates % dut.inputs().size()` was a modulo-by-zero crash on a netlist
  // with no PIs.
  Netlist nl("pi_free");
  nl.mark_output(nl.const_node(true));
  const PowerModel pm = model();
  EXPECT_THROW(min_detectable_dynamic_overhead(nl, pm), std::invalid_argument);
  EXPECT_THROW(min_detectable_leakage_overhead(nl, pm), std::invalid_argument);
  EXPECT_THROW(min_detectable_area_overhead(nl, pm), std::invalid_argument);
}

TEST(Glc, CleanDutNotFlagged) {
  const Netlist nl = make_benchmark("c880");
  const DetectionResult r = detect_leakage_glc(nl, nl, model());
  EXPECT_FALSE(r.detected);
}

TEST(Glc, AdditiveLeakageFlagged) {
  const Netlist nl = make_benchmark("c880");
  const PowerModel pm = model();
  const DetectionResult r = detect_leakage_glc(nl, additive_ht(nl, 50), pm);
  EXPECT_TRUE(r.detected);
}

TEST(Glc, CharacterizationBeatsRawTotalOnLeakage) {
  // GLC normalizes out the die corner, so its minimum detectable leakage
  // overhead must not be worse than a couple of per-gate leakages.
  const Netlist nl = make_benchmark("c499");
  const PowerModel pm = model();
  const double pct = min_detectable_leakage_overhead(nl, pm);
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 15.0);
}

TEST(Learning, CleanPopulationInsideBoundary) {
  const Netlist nl = make_benchmark("c432");
  const DetectionResult r = detect_statistical_learning(nl, nl, model());
  EXPECT_FALSE(r.detected);
}

TEST(Learning, GrossAdditiveHtOutsideBoundary) {
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  const DetectionResult r =
      detect_statistical_learning(nl, additive_ht(nl, 80), pm);
  EXPECT_TRUE(r.detected);
}

TEST(Learning, MinAreaOverheadBounded) {
  const Netlist nl = make_benchmark("c499");
  const double pct = min_detectable_area_overhead(nl, model());
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 25.0);
}

// ---- The headline claim: TrojanZero evades all three baselines ----

class TrojanZeroEvades : public ::testing::TestWithParam<const char*> {};

TEST_P(TrojanZeroEvades, AllThreeDetectors) {
  const FlowResult flow = run_trojanzero_flow(GetParam());
  ASSERT_TRUE(flow.insertion.success) << GetParam();
  const PowerModel pm = model();
  const Netlist& golden = flow.original;
  const Netlist& infected = flow.insertion.infected;

  EXPECT_FALSE(detect_dynamic_power(golden, infected, pm).detected);
  EXPECT_FALSE(detect_total_power(golden, infected, pm).detected);
  EXPECT_FALSE(detect_leakage_glc(golden, infected, pm).detected);
  EXPECT_FALSE(detect_statistical_learning(golden, infected, pm).detected);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, TrojanZeroEvades,
                         ::testing::Values("c432", "c499", "c880"));

TEST(CachedAnalysis, BreakdownOverloadsMatchAnalyzingOverloads) {
  // The precomputed-breakdown overloads must reproduce the analyzing
  // overloads bit for bit: same variation stream, same statistics.
  const Netlist golden = make_benchmark("c432");
  Netlist dut = golden;
  add_dummy_gate(dut, dut.inputs()[0], GateType::Xor, "extra");
  const PowerModel pm = model();
  const PowerBreakdown gnom = pm.analyze(golden);
  const PowerBreakdown dnom = pm.analyze(dut);
  const auto same = [](const DetectionResult& a, const DetectionResult& b) {
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.statistic, b.statistic);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.overhead_percent, b.overhead_percent);
  };
  same(detect_dynamic_power(golden, dut, pm),
       detect_dynamic_power(golden, dut, gnom, dnom));
  same(detect_total_power(golden, dut, pm),
       detect_total_power(golden, dut, gnom, dnom));
  same(detect_leakage_glc(golden, dut, pm),
       detect_leakage_glc(golden, dut, gnom, dnom));
  same(detect_statistical_learning(golden, dut, pm),
       detect_statistical_learning(golden, dut, gnom, dnom));
}

TEST(CachedAnalysis, TrackerSweepMatchesFreshAnalysisSweep) {
  // min_detectable_dynamic_overhead now drives the sweep off one golden
  // analysis plus incremental PowerTracker deltas; the result must be
  // bit-identical to the original per-step analyze implementation.
  const Netlist golden = make_benchmark("c432");
  const PowerModel pm = model();
  const PowerDetectOptions opt;
  Netlist dut = golden;
  const double base = pm.analyze(golden).totals.dynamic_uw;
  double reference = 100.0;
  for (int gates = 1; gates <= 256; ++gates) {
    const NodeId pi = dut.inputs()[gates % dut.inputs().size()];
    add_dummy_gate(dut, pi, GateType::Xor, "add_ht");
    PowerDetectOptions o = opt;
    o.seed = opt.seed + static_cast<std::uint64_t>(gates);
    if (detect_dynamic_power(golden, dut, pm, o).detected) {
      const double now = pm.analyze(dut).totals.dynamic_uw;
      reference = 100.0 * (now - base) / base;
      break;
    }
  }
  EXPECT_EQ(min_detectable_dynamic_overhead(golden, pm, opt), reference);
}

TEST(CachedAnalysis, TrackerSweepMatchesFreshAnalysisSweepLeakageAndArea) {
  // Same parity check for the other two rewritten sweeps: GLC exercises the
  // per-node leakage rows (Nand dummies), the learning detector the area
  // rows plus the 2-feature Gaussian fit (Xor dummies).
  const Netlist golden = make_benchmark("c432");
  const PowerModel pm = model();
  {
    const PowerDetectOptions opt;
    Netlist dut = golden;
    const double base = pm.analyze(golden).totals.leakage_uw;
    double reference = 100.0;
    for (int gates = 1; gates <= 256; ++gates) {
      const NodeId pi = dut.inputs()[gates % dut.inputs().size()];
      add_dummy_gate(dut, pi, GateType::Nand, "add_ht");
      PowerDetectOptions o = opt;
      o.seed = opt.seed + static_cast<std::uint64_t>(gates);
      if (detect_leakage_glc(golden, dut, pm, o).detected) {
        const double now = pm.analyze(dut).totals.leakage_uw;
        reference = 100.0 * (now - base) / base;
        break;
      }
    }
    EXPECT_EQ(min_detectable_leakage_overhead(golden, pm, opt), reference);
  }
  {
    const PowerDetectOptions opt;
    Netlist dut = golden;
    const double base = pm.analyze(golden).totals.area_ge;
    double reference = 100.0;
    for (int gates = 1; gates <= 256; ++gates) {
      const NodeId pi = dut.inputs()[gates % dut.inputs().size()];
      add_dummy_gate(dut, pi, GateType::Xor, "add_ht");
      PowerDetectOptions o = opt;
      o.seed = opt.seed + static_cast<std::uint64_t>(gates);
      if (detect_statistical_learning(golden, dut, pm, o).detected) {
        const double now = pm.analyze(dut).totals.area_ge;
        reference = 100.0 * (now - base) / base;
        break;
      }
    }
    EXPECT_EQ(min_detectable_area_overhead(golden, pm, opt), reference);
  }
}

TEST(Contrast, SameTrojanWithoutSalvageIsDetected) {
  // The zero-footprint property comes from Algorithm 1, not from the HT
  // being small: inserting the identical HT additively (no salvage) must
  // push the totals up enough for at least one baseline to fire.
  const Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  const DefenderSuite suite =
      make_defender_suite(nl, FlowOptions::atpg_only_defender());
  // Fake a "no salvage" result: N' = N.
  SalvageResult no_salvage;
  no_salvage.modified = nl.compact();
  no_salvage.power_before = pm.analyze(nl).totals;
  no_salvage.power_after = no_salvage.power_before;
  InsertionOptions opt;
  opt.library = {counter_trojan(3)};
  const InsertionResult ins = insert_trojan(nl, no_salvage, suite, pm, opt);
  // Algorithm 2 itself refuses the additive insertion (caps exceeded) —
  // the paper's point that naive HTs are power/area-visible.
  EXPECT_FALSE(ins.success);
  EXPECT_GT(ins.fail_caps, 0);
}

}  // namespace
}  // namespace tz
