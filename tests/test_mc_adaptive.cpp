// Adaptive (CI-targeted) Monte-Carlo: convergence against the fixed-sample
// oracle, determinism across thread counts, clamp/tail behavior, and the
// sampling-metadata plumbing through tables, shards and CSV v3
// (docs/adaptive_mc.md).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "circuit/reference.hpp"
#include "engine/table_cache.hpp"
#include "mc/criteria.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"
#include "obs/metrics.hpp"
#include "temp_path.hpp"

namespace hynapse::mc {
namespace {

class McAdaptiveTest : public ::testing::Test {
 protected:
  McAdaptiveTest()
      : tech_{circuit::ptm22()},
        s6_{circuit::reference_sizing_6t(tech_)},
        s8_{circuit::reference_sizing_8t(tech_)},
        array_{tech_, sram::SubArrayGeometry{}, s6_},
        cycle_{tech_, array_, circuit::Bitcell6T{tech_, s6_}},
        sampler_{tech_, s6_, s8_},
        criteria_{tech_, cycle_, s6_, s8_} {}

  /// Fixed-sample oracle options (adaptive disabled).
  AnalyzerOptions fixed_opts(std::size_t threads = 0) const {
    AnalyzerOptions o;
    o.mc_samples = 24000;
    o.is_samples = 6000;
    o.threads = threads;
    return o;
  }

  /// Same budget with a 15 % relative CI target enabled.
  AnalyzerOptions adaptive_opts(std::size_t threads = 0) const {
    AnalyzerOptions o = fixed_opts(threads);
    o.adaptive.enabled = true;
    o.adaptive.rel_target = 0.15;
    o.adaptive.batch_samples = 2000;
    o.adaptive.min_samples = 2000;
    return o;
  }

  circuit::Technology tech_;
  circuit::Sizing6T s6_;
  circuit::Sizing8T s8_;
  sram::SubArrayModel array_;
  sram::CycleModel cycle_;
  VariationSampler sampler_;
  FailureCriteria criteria_;
};

TEST_F(McAdaptiveTest, ConvergesEarlyAndAgreesWithOracle) {
  // At 0.65 V the 6T read-access rate is a few percent: the adaptive run
  // must stop well short of the fixed budget, report convergence, and land
  // inside a CI-sized band of the oracle.
  const FailureAnalyzer fixed{criteria_, sampler_, fixed_opts()};
  const FailureAnalyzer adaptive{criteria_, sampler_, adaptive_opts()};
  obs::Counter& saved =
      obs::Registry::global().counter("mc.adaptive.samples_saved");
  const std::uint64_t saved_before = saved.value();

  const RateEstimate oracle =
      fixed.estimate_6t(Mechanism::read_access, 0.65, 11, 788);
  const RateEstimate est =
      adaptive.adaptive_6t(Mechanism::read_access, 0.65, 11, 788);

  EXPECT_TRUE(est.converged);
  EXPECT_GT(est.batches, 0u);
  EXPECT_LT(est.total_samples, fixed_opts().mc_samples);
  EXPECT_GT(est.total_samples, 0u);
  // CI half-width met the relative target...
  EXPECT_LE(est.ci_half_width(), 0.15 * est.p * 1.0001);
  // ...and the estimate agrees with the oracle within the joint interval.
  EXPECT_NEAR(est.p, oracle.p,
              est.ci_half_width() + oracle.ci_half_width() + 1e-12);
  EXPECT_GT(saved.value(), saved_before);
}

TEST_F(McAdaptiveTest, BitIdenticalAcrossThreadCounts) {
  std::vector<RateEstimate> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    const FailureAnalyzer analyzer{criteria_, sampler_,
                                   adaptive_opts(threads)};
    runs.push_back(
        analyzer.adaptive_6t(Mechanism::read_access, 0.68, 21, 900));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(runs[i].p, runs[0].p);
    EXPECT_DOUBLE_EQ(runs[i].hits, runs[0].hits);
    EXPECT_EQ(runs[i].trials, runs[0].trials);
    EXPECT_EQ(runs[i].total_samples, runs[0].total_samples);
    EXPECT_EQ(runs[i].batches, runs[0].batches);
    EXPECT_DOUBLE_EQ(runs[i].ci_lo, runs[0].ci_lo);
    EXPECT_DOUBLE_EQ(runs[i].ci_hi, runs[0].ci_hi);
  }
}

TEST_F(McAdaptiveTest, DeterministicAcrossRepeatedCalls) {
  const FailureAnalyzer analyzer{criteria_, sampler_, adaptive_opts()};
  const RateEstimate a =
      analyzer.adaptive_6t(Mechanism::write, 0.66, 31, 901);
  const RateEstimate b =
      analyzer.adaptive_6t(Mechanism::write, 0.66, 31, 901);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.batches, b.batches);
}

TEST_F(McAdaptiveTest, MinSampleClampHolds) {
  // An absurdly loose absolute target is met after the first batch, but the
  // hard minimum must still be spent.
  AnalyzerOptions o = adaptive_opts();
  o.adaptive.rel_target = 0.0;
  o.adaptive.abs_target = 0.5;
  o.adaptive.batch_samples = 1000;
  o.adaptive.min_samples = 8000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const RateEstimate est =
      analyzer.adaptive_6t(Mechanism::read_access, 0.65, 41, 902);
  EXPECT_TRUE(est.converged);
  EXPECT_GE(est.total_samples, 8000u);
}

TEST_F(McAdaptiveTest, MaxSampleClampStopsUnreachableTarget) {
  // A 0.01 % relative target is unreachable inside the clamp: the estimate
  // must stop at max_samples and report non-convergence.
  AnalyzerOptions o = adaptive_opts();
  o.adaptive.rel_target = 1e-4;
  o.adaptive.max_samples = 6000;
  o.adaptive.tail_escape_samples = 6000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  obs::Counter& misses =
      obs::Registry::global().counter("mc.adaptive.ci_misses");
  const std::uint64_t misses_before = misses.value();
  const RateEstimate est =
      analyzer.adaptive_6t(Mechanism::read_access, 0.65, 51, 903);
  EXPECT_FALSE(est.converged);
  EXPECT_LE(est.total_samples, 6000u);
  EXPECT_GT(misses.value(), misses_before);
}

TEST_F(McAdaptiveTest, RareTailEscapesToImportanceSampling) {
  // At nominal voltage the read-access rate is far below plain-MC reach:
  // the estimate must hand off to the importance-sampled tail instead of
  // burning the whole plain-MC budget.
  AnalyzerOptions o = adaptive_opts();
  o.adaptive.abs_target = 1e-6;
  o.adaptive.tail_escape_samples = 4000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const RateEstimate est =
      analyzer.adaptive_6t(Mechanism::read_access, 0.95, 61, 904);
  EXPECT_TRUE(est.importance_sampled);
  EXPECT_GT(est.p, 0.0);
  EXPECT_LT(est.p, 1e-4);
  // The MC phase stopped at the tail-escape point, not the MC max.
  EXPECT_LT(est.total_samples, fixed_opts().mc_samples);
}

TEST_F(McAdaptiveTest, ClopperPearsonIntervalAlsoConverges) {
  AnalyzerOptions o = adaptive_opts();
  o.adaptive.interval = IntervalKind::clopper_pearson;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const RateEstimate est =
      analyzer.adaptive_6t(Mechanism::read_access, 0.65, 71, 905);
  EXPECT_TRUE(est.converged);
  EXPECT_LE(est.ci_lo, est.p);
  EXPECT_GE(est.ci_hi, est.p);
}

TEST_F(McAdaptiveTest, FixedPathBitIdenticalAcrossThreadCounts) {
  // The oracle contract the adaptive mode is validated against: the
  // fixed-sample build stays bit-identical for any thread count (and its
  // rows now carry the sampling metadata).
  const double grid[] = {0.65, 0.75, 0.85};
  std::vector<FailureTable> tables;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    AnalyzerOptions o = fixed_opts(threads);
    o.mc_samples = 6000;
    o.is_samples = 3000;
    const FailureAnalyzer analyzer{criteria_, sampler_, o};
    tables.push_back(FailureTable::build(analyzer, grid, 7));
  }
  for (std::size_t t = 1; t < tables.size(); ++t) {
    ASSERT_EQ(tables[t].rows().size(), tables[0].rows().size());
    for (std::size_t i = 0; i < tables[0].rows().size(); ++i) {
      const FailureTableRow& a = tables[0].rows()[i];
      const FailureTableRow& b = tables[t].rows()[i];
      EXPECT_DOUBLE_EQ(a.cell6.read_access, b.cell6.read_access);
      EXPECT_DOUBLE_EQ(a.cell6.write_fail, b.cell6.write_fail);
      EXPECT_DOUBLE_EQ(a.cell8.read_access, b.cell8.read_access);
      EXPECT_DOUBLE_EQ(a.samples, b.samples);
      EXPECT_DOUBLE_EQ(a.ci_half_width, b.ci_half_width);
    }
  }
  EXPECT_GT(tables[0].total_samples(), 0.0);
  EXPECT_GT(tables[0].max_ci_half_width(), 0.0);
}

TEST_F(McAdaptiveTest, AdaptiveShardsMergeBitIdenticalToMonolithic) {
  // The shard contract extends to adaptive mode: shard rows (including the
  // metadata columns) are bit-identical to the monolithic build's rows.
  const double grid[] = {0.65, 0.72, 0.80, 0.90};
  AnalyzerOptions o = adaptive_opts();
  o.mc_samples = 8000;
  o.is_samples = 3000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const FailureTable mono = FailureTable::build(analyzer, grid, 13);
  std::vector<FailureTable> shards;
  for (std::size_t s = 0; s < 2; ++s) {
    shards.push_back(FailureTable::build_shard(analyzer, grid, 13, s, 2));
  }
  const FailureTable merged = FailureTable::merge(shards);
  ASSERT_EQ(merged.rows().size(), mono.rows().size());
  for (std::size_t i = 0; i < mono.rows().size(); ++i) {
    const FailureTableRow& a = mono.rows()[i];
    const FailureTableRow& b = merged.rows()[i];
    EXPECT_DOUBLE_EQ(a.vdd, b.vdd);
    EXPECT_DOUBLE_EQ(a.cell6.read_access, b.cell6.read_access);
    EXPECT_DOUBLE_EQ(a.cell6.write_fail, b.cell6.write_fail);
    EXPECT_DOUBLE_EQ(a.cell6.read_disturb, b.cell6.read_disturb);
    EXPECT_DOUBLE_EQ(a.cell8.read_access, b.cell8.read_access);
    EXPECT_DOUBLE_EQ(a.cell8.write_fail, b.cell8.write_fail);
    EXPECT_DOUBLE_EQ(a.samples, b.samples);
    EXPECT_DOUBLE_EQ(a.ci_half_width, b.ci_half_width);
  }
  EXPECT_DOUBLE_EQ(merged.total_samples(), mono.total_samples());
  EXPECT_DOUBLE_EQ(merged.max_ci_half_width(), mono.max_ci_half_width());
}

TEST_F(McAdaptiveTest, CsvV3RoundTripPreservesMetadata) {
  const double grid[] = {0.65, 0.80};
  const FailureAnalyzer analyzer{criteria_, sampler_, adaptive_opts()};
  const FailureTable table = FailureTable::build(analyzer, grid, 17);
  const std::string path = hynapse::testing::temp_path("adaptive_table.csv");
  table.save_csv(path, 0xfeedu);
  const auto loaded = FailureTable::load_csv(path, 0xfeedu);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->rows().size(), table.rows().size());
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->rows()[i].samples, table.rows()[i].samples);
    EXPECT_DOUBLE_EQ(loaded->rows()[i].ci_half_width,
                     table.rows()[i].ci_half_width);
  }
  std::filesystem::remove(path);
}

TEST_F(McAdaptiveTest, FingerprintFoldsAdaptivePolicy) {
  engine::TableSpec spec;
  spec.tech = tech_;
  spec.sizing6 = s6_;
  spec.sizing8 = s8_;
  spec.geometry = array_.geometry();
  spec.vdd_grid = {0.65, 0.75};
  spec.seed = 9;

  AnalyzerOptions fixed = fixed_opts();
  AnalyzerOptions adaptive = adaptive_opts();
  AnalyzerOptions tighter = adaptive_opts();
  tighter.adaptive.rel_target = 0.05;
  // A disabled policy's leftover knobs must NOT churn the fingerprint --
  // fixed-mode provenance is insensitive to adaptive fields.
  AnalyzerOptions fixed_with_knobs = fixed_opts();
  fixed_with_knobs.adaptive.rel_target = 0.01;
  fixed_with_knobs.adaptive.batch_samples = 123;

  const std::uint64_t fp_fixed = engine::table_fingerprint(spec, fixed);
  const std::uint64_t fp_adaptive = engine::table_fingerprint(spec, adaptive);
  const std::uint64_t fp_tighter = engine::table_fingerprint(spec, tighter);
  EXPECT_NE(fp_fixed, fp_adaptive);
  EXPECT_NE(fp_adaptive, fp_tighter);
  EXPECT_EQ(fp_fixed, engine::table_fingerprint(spec, fixed_with_knobs));
}

// Regression: at a reduced budget the 6T write mechanism at 0.70 V sits
// right on the MC/IS decision boundary (p ~ 2e-3 ~ min_hits / budget), and
// an unlucky escape-window draw used to send it to the mean-shifted IS
// estimator, which answered ~1e-6 -- three decades below the hits already
// observed in the escape window. The consistency guard must reject an IS
// answer below the lower confidence bound of the observed plain-MC hits and
// resume plain MC instead. This reproduces the exact (budget, seed) pair
// the hynapse_cli default surfaced.
TEST_F(McAdaptiveTest, InconsistentTailEscapeFallsBackToPlainMc) {
  AnalyzerOptions o;
  o.mc_samples = 10000;
  o.is_samples = 5000;
  o.adaptive.enabled = true;
  o.adaptive.rel_target = 0.3;
  o.adaptive.abs_target = 1e-4;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  // analyze_6t's per-mechanism derivation for base seed 1, mechanism 1.
  const RateEstimate wr = analyzer.estimate_6t(Mechanism::write, 0.70,
                                               1 + 101 * 1, 1 + 777 + 1);
  EXPECT_FALSE(wr.importance_sampled);
  EXPECT_GT(wr.p, 5e-4);  // a 400k-sample reference pins p near 2e-3
  EXPECT_LT(wr.p, 1e-2);
  EXPECT_GT(wr.hits, 0.0);
  // The discarded IS phase is still accounted in the sample ledger.
  EXPECT_GT(wr.total_samples, wr.trials);

  // The guarded fallback path stays bit-identical across thread counts.
  for (const std::size_t threads : {std::size_t{3}, std::size_t{8}}) {
    AnalyzerOptions ot = o;
    ot.threads = threads;
    const FailureAnalyzer at{criteria_, sampler_, ot};
    const RateEstimate wt = at.estimate_6t(Mechanism::write, 0.70,
                                           1 + 101 * 1, 1 + 777 + 1);
    EXPECT_DOUBLE_EQ(wr.p, wt.p);
    EXPECT_DOUBLE_EQ(wr.hits, wt.hits);
    EXPECT_DOUBLE_EQ(wr.ci_lo, wt.ci_lo);
    EXPECT_DOUBLE_EQ(wr.ci_hi, wt.ci_hi);
    EXPECT_EQ(wr.trials, wt.trials);
    EXPECT_EQ(wr.total_samples, wt.total_samples);
    EXPECT_EQ(wr.batches, wt.batches);
    EXPECT_EQ(wr.importance_sampled, wt.importance_sampled);
  }
}

}  // namespace
}  // namespace hynapse::mc
