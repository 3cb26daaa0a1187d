#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "circuit/reference.hpp"
#include "util/stats.hpp"
#include "mc/criteria.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"
#include "temp_path.hpp"

namespace hynapse::mc {
namespace {

class McTest : public ::testing::Test {
 protected:
  McTest()
      : tech_{circuit::ptm22()},
        s6_{circuit::reference_sizing_6t(tech_)},
        s8_{circuit::reference_sizing_8t(tech_)},
        array_{tech_, sram::SubArrayGeometry{}, s6_},
        cycle_{tech_, array_, circuit::Bitcell6T{tech_, s6_}},
        sampler_{tech_, s6_, s8_},
        criteria_{tech_, cycle_, s6_, s8_} {}

  AnalyzerOptions fast_opts() const {
    AnalyzerOptions o;
    o.mc_samples = 4000;
    o.is_samples = 3000;
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

TEST_F(McTest, SamplerSigmasFollowPelgrom) {
  const auto& sig = sampler_.sigmas_6t();
  // PD is the widest 6T device -> smallest sigma; PG the narrowest NMOS.
  EXPECT_LT(sig[1], sig[0]);
  // Left/right symmetric.
  EXPECT_DOUBLE_EQ(sig[0], sig[3]);
  EXPECT_DOUBLE_EQ(sig[1], sig[4]);
  EXPECT_DOUBLE_EQ(sig[2], sig[5]);
}

TEST_F(McTest, SampleStatisticsMatchSigmas) {
  util::Rng rng{5};
  util::RunningStats pg;
  for (int i = 0; i < 20000; ++i) {
    pg.add(sampler_.sample_6t(rng).pg_l);
  }
  EXPECT_NEAR(pg.mean(), 0.0, 0.002);
  EXPECT_NEAR(pg.stddev(), sampler_.sigmas_6t()[0], 0.003);
}

TEST_F(McTest, NominalSampleDoesNotFail) {
  const circuit::Variation6T none{};
  EXPECT_LT(criteria_.read_access_metric_6t(none, 0.95), 0.0);
  EXPECT_LT(criteria_.write_metric_6t(none, 0.95), 0.0);
  EXPECT_LT(criteria_.read_disturb_metric_6t(none, 0.95), 0.0);
}

TEST_F(McTest, ReadMetricMonotoneInPassGateVt) {
  circuit::Variation6T var{};
  double prev = -10.0;
  for (double dvt = -0.1; dvt <= 0.25; dvt += 0.05) {
    var.pg_l = dvt;
    const double m = criteria_.read_access_metric_6t(var, 0.7);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST_F(McTest, PlainMcDeterministicAcrossCalls) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const RateEstimate a =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 4000, 77);
  const RateEstimate b =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 4000, 77);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_EQ(a.hits, b.hits);
}

TEST_F(McTest, FailureRatesDecreaseWithVoltage) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const RateEstimate low =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 6000, 3);
  const RateEstimate high =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.80, 6000, 3);
  EXPECT_GT(low.p, high.p);
  EXPECT_GT(low.p, 0.01);  // calibrated anchor: a few percent at 0.65 V
}

TEST_F(McTest, WilsonIntervalBracketsEstimate) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const RateEstimate r =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 6000, 9);
  EXPECT_LE(r.ci_lo, r.p);
  EXPECT_GE(r.ci_hi, r.p);
}

TEST_F(McTest, ImportanceSamplingAgreesWithPlainMc) {
  // At 0.65 V the read-access rate is large enough for plain MC to nail it;
  // IS must land inside (a widened) agreement band.
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const RateEstimate mc =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 20000, 21);
  const RateEstimate is =
      analyzer.importance_6t(Mechanism::read_access, 0.65, 12000, 22);
  EXPECT_TRUE(is.importance_sampled);
  EXPECT_GT(is.p, 0.3 * mc.p);
  EXPECT_LT(is.p, 3.0 * mc.p);
}

TEST_F(McTest, ImportanceSamplingReachesRareTail) {
  // At nominal voltage the read-access rate is far below plain-MC reach.
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const RateEstimate is =
      analyzer.importance_6t(Mechanism::read_access, 0.95, 8000, 31);
  EXPECT_LT(is.p, 1e-4);
  EXPECT_GT(is.p, 0.0);
}

TEST_F(McTest, EightTReadPortIsRobust) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const CellFailureRates r8 = analyzer.analyze_8t(0.65, 55);
  EXPECT_LT(r8.read_access.p, 1e-4);
  EXPECT_LT(r8.write_fail.p, 1e-4);
  EXPECT_DOUBLE_EQ(r8.read_disturb.p, 0.0);
}

TEST_F(McTest, SixTAnalysisShowsReadDominatesAtLowVdd) {
  AnalyzerOptions o = fast_opts();
  o.mc_samples = 12000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const CellFailureRates r = analyzer.analyze_6t(0.65, 99);
  EXPECT_GT(r.read_access.p, r.write_fail.p);   // Fig. 5 ordering
  EXPECT_GT(r.read_access.p, r.read_disturb.p);
}

TEST_F(McTest, FailureTableInterpolatesMonotonically) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const double grid[] = {0.65, 0.75, 0.85, 0.95};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  const double p65 = table.rates_6t(0.65).read_access;
  const double p70 = table.rates_6t(0.70).read_access;  // interpolated
  const double p75 = table.rates_6t(0.75).read_access;
  EXPECT_GT(p65, p70);
  EXPECT_GT(p70, p75);
}

TEST_F(McTest, FailureTableClampsOutsideGrid) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const double grid[] = {0.65, 0.75};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  EXPECT_DOUBLE_EQ(table.rates_6t(0.50).read_access,
                   table.rates_6t(0.65).read_access);
  EXPECT_DOUBLE_EQ(table.rates_6t(1.10).read_access,
                   table.rates_6t(0.75).read_access);
}

TEST_F(McTest, FailureTableCsvRoundTrip) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const double grid[] = {0.65, 0.80};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  const std::string path = hynapse::testing::temp_path("ftable.csv");
  table.save_csv(path);
  const auto loaded = FailureTable::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->rates_6t(0.65).read_access,
                   table.rates_6t(0.65).read_access);
  EXPECT_DOUBLE_EQ(loaded->rates_8t(0.80).write_fail,
                   table.rates_8t(0.80).write_fail);
  std::filesystem::remove(path);
}

TEST_F(McTest, FailureTableLoadRejectsGarbage) {
  const std::string path = hynapse::testing::temp_path("badtable.csv");
  {
    std::ofstream out{path};
    out << "not,a,table\nstill,not,one\n";
  }
  EXPECT_FALSE(FailureTable::load_csv(path).has_value());
  EXPECT_FALSE(FailureTable::load_csv("/no/such/file.csv").has_value());
  std::filesystem::remove(path);
}

TEST_F(McTest, FailureTableLoadsV2CsvWithZeroedMetadata) {
  // CSV v2 predates the samples/ci_half_width columns; a v2 cache file must
  // still load, with the metadata zeroed (not rejected, not garbage).
  const std::string path = hynapse::testing::temp_path("v2table.csv");
  {
    std::ofstream out{path};
    out << "# hynapse-failure-table v2 fp=0000000000000000\n"
        << "vdd,ra6,wr6,rd6,ra8,wr8,rd8\n"
        << "0.65,0.01,0.002,0.001,0.0001,0.002,0\n"
        << "0.8,0.001,0.0005,0.0001,1e-05,0.0004,0\n";
  }
  const auto loaded = FailureTable::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->rows().size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].cell6.read_access, 0.01);
  EXPECT_DOUBLE_EQ(loaded->rows()[1].cell8.write_fail, 0.0004);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].samples, 0.0);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].ci_half_width, 0.0);
  EXPECT_DOUBLE_EQ(loaded->total_samples(), 0.0);
  std::filesystem::remove(path);
}

TEST_F(McTest, FailureTableLoadsV3CsvWithReorderedColumns) {
  // The v3 loader maps columns by name, so a file whose columns were
  // reordered (e.g. by a spreadsheet round trip) still parses correctly.
  const std::string path = hynapse::testing::temp_path("v3reorder.csv");
  {
    std::ofstream out{path};
    out << "# hynapse-failure-table v3 fp=0000000000000000\n"
        << "samples,rd6,vdd,ra6,wr6,ra8,wr8,rd8,ci_half_width\n"
        << "12000,0.001,0.65,0.01,0.002,0.0001,0.002,0,0.003\n";
  }
  const auto loaded = FailureTable::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->rows().size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].vdd, 0.65);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].cell6.read_access, 0.01);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].cell6.read_disturb, 0.001);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].samples, 12000.0);
  EXPECT_DOUBLE_EQ(loaded->rows()[0].ci_half_width, 0.003);
  std::filesystem::remove(path);
}

TEST_F(McTest, FailureTableRejectsBadColumnsAndMetadata) {
  const std::string path = hynapse::testing::temp_path("v3bad.csv");
  const auto write_and_load = [&](const std::string& header,
                                  const std::string& row) {
    {
      std::ofstream out{path};
      out << "# hynapse-failure-table v3 fp=0000000000000000\n"
          << header << "\n"
          << row << "\n";
    }
    return FailureTable::load_csv(path);
  };
  // Unknown column name.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,bogus",
                              "0.65,0,0,0,0,0,0,1")
                   .has_value());
  // Duplicate column name.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,vdd",
                              "0.65,0,0,0,0,0,0,0.65")
                   .has_value());
  // Missing a required base column.
  EXPECT_FALSE(
      write_and_load("vdd,ra6,wr6,rd6,ra8,wr8", "0.65,0,0,0,0,0").has_value());
  // Negative sample count.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples",
                              "0.65,0,0,0,0,0,0,-5")
                   .has_value());
  // CI half-width outside [0, 1].
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,ci_half_width",
                              "0.65,0,0,0,0,0,0,1.5")
                   .has_value());
  std::filesystem::remove(path);
}

TEST_F(McTest, FailureTableMergePreservesMetadata) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  const double grid[] = {0.65, 0.75, 0.85};
  const FailureTable mono = FailureTable::build(analyzer, grid, 7);
  std::vector<FailureTable> shards;
  for (std::size_t s = 0; s < 3; ++s) {
    shards.push_back(FailureTable::build_shard(analyzer, grid, 7, s, 3));
  }
  const FailureTable merged = FailureTable::merge(shards);
  ASSERT_EQ(merged.rows().size(), mono.rows().size());
  for (std::size_t i = 0; i < mono.rows().size(); ++i) {
    EXPECT_GT(merged.rows()[i].samples, 0.0);
    EXPECT_DOUBLE_EQ(merged.rows()[i].samples, mono.rows()[i].samples);
    EXPECT_DOUBLE_EQ(merged.rows()[i].ci_half_width,
                     mono.rows()[i].ci_half_width);
  }
  EXPECT_DOUBLE_EQ(merged.total_samples(), mono.total_samples());
}

// --- golden pins -------------------------------------------------------------
// Exact outputs of every sampling path at fixed seeds, pinned bit-for-bit as
// hex-float literals. The thread-invariance tests accept any stream; these
// catch a changed stream, seed, chunk layout or floating-point fold order. A
// deliberate estimator change re-pins them. The values assume IEEE doubles
// with no FMA contraction (the default ISO C++ build of this project).

struct Golden {
  double p;
  double ci_lo;
  double ci_hi;
  double hits;
  std::size_t trials;
  std::size_t total_samples;
  std::size_t batches;
  bool importance_sampled;
  bool converged;
};

void expect_golden(const RateEstimate& r, const Golden& g) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(r.p), bits(g.p)) << std::hexfloat << r.p;
  EXPECT_EQ(bits(r.ci_lo), bits(g.ci_lo)) << std::hexfloat << r.ci_lo;
  EXPECT_EQ(bits(r.ci_hi), bits(g.ci_hi)) << std::hexfloat << r.ci_hi;
  EXPECT_EQ(bits(r.hits), bits(g.hits)) << std::hexfloat << r.hits;
  EXPECT_EQ(r.trials, g.trials);
  EXPECT_EQ(r.total_samples, g.total_samples);
  EXPECT_EQ(r.batches, g.batches);
  EXPECT_EQ(r.importance_sampled, g.importance_sampled);
  EXPECT_EQ(r.converged, g.converged);
}

TEST_F(McTest, GoldenPlainMc) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  expect_golden(analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 4000, 77),
                {0x1.d75d75d75d75dp-7, 0x1.6d2f53c17384bp-7,
                 0x1.2feb5ee829cb1p-6, 0x1.dp+5, 4032, 4032, 1, false, true});
  expect_golden(analyzer.plain_mc_8t(Mechanism::read_access, 0.40, 4000, 78),
                {0x1.6db6db6db6db7p-7, 0x1.11aac245af999p-7,
                 0x1.e84197d8d3a9ap-7, 0x1.68p+5, 4032, 4032, 1, false, true});
}

TEST_F(McTest, GoldenFixedEstimates) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  // Enough plain-MC hits: no fallback.
  expect_golden(analyzer.estimate_6t(Mechanism::read_access, 0.65, 11, 12),
                {0x1.0820820820821p-6, 0x1.9f21e37f258eap-7,
                 0x1.4fc7c86d45804p-6, 0x1.04p+6, 4032, 4032, 1, false, true});
  // Too few hits: the importance-sampling fallback fires.
  expect_golden(analyzer.estimate_6t(Mechanism::read_access, 0.95, 5, 6),
                {0x1.6747253a946e7p-28, 0x1.bb12a56e7e6bbp-29,
                 0x1.f104f7bde9a7p-28, 0x1.58p+5, 3008, 7040, 2, true, true});
  expect_golden(analyzer.estimate_8t(Mechanism::write, 0.50, 8, 9),
                {0x1.01d84d654e6ecp-14, 0x0p+0, 0x1.34b33b4296d38p-13, 0x1.dp+5,
                 3008, 7040, 2, true, true});
}

TEST_F(McTest, GoldenImportanceSampling) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast_opts()};
  expect_golden(analyzer.importance_6t(Mechanism::read_access, 0.75, 3000, 22),
                {0x1.264a55200bd35p-11, 0x1.12409727bfd4p-11,
                 0x1.3a54131857d2ap-11, 0x1.b54p+10, 3008, 3008, 1, true,
                 true});
  expect_golden(analyzer.importance_8t(Mechanism::read_access, 0.50, 3000, 23),
                {0x1.b9d51763afc39p-15, 0x0p+0, 0x1.f847c2ef3b6a4p-14,
                 0x1.59p+9, 3008, 3008, 1, true, true});
}

TEST_F(McTest, GoldenAdaptive) {
  AnalyzerOptions o;
  o.mc_samples = 24000;
  o.is_samples = 6000;
  o.adaptive.enabled = true;
  o.adaptive.rel_target = 0.15;
  o.adaptive.batch_samples = 2000;
  o.adaptive.min_samples = 2000;
  const FailureAnalyzer converging{criteria_, sampler_, o};
  expect_golden(converging.adaptive_6t(Mechanism::read_access, 0.65, 31, 901),
                {0x1.f7390d2a6c406p-7, 0x1.b8b2df9c28c6p-7,
                 0x1.1f3ae0472d025p-6, 0x1.aep+7, 14000, 14000, 3, false,
                 true});
  expect_golden(converging.adaptive_8t(Mechanism::read_access, 0.40, 33, 905),
                {0x1.a7a4b7bc1f99p-7, 0x1.6e8e36a666979p-7,
                 0x1.e97cec090eee9p-7, 0x1.6ap+7, 14000, 14000, 3, false,
                 true});

  o.adaptive.abs_target = 1e-6;
  o.adaptive.tail_escape_samples = 4000;
  const FailureAnalyzer escaping{criteria_, sampler_, o};
  expect_golden(escaping.adaptive_6t(Mechanism::read_access, 0.95, 61, 904),
                {0x1.0278f353c9cfep-28, 0x1.f8797fd0a15fap-30,
                 0x1.86d386b36b47ep-28, 0x1.5p+4, 2000, 8000, 3, true, true});
  expect_golden(escaping.adaptive_8t(Mechanism::write, 0.55, 62, 906),
                {0x1.0e95603d3653ap-26, 0x0p+0, 0x1.171517895d656p-25, 0x1.8p+2,
                 2000, 8000, 3, true, true});

  // The consistency-guard case of InconsistentTailEscapeFallsBackToPlainMc:
  // the IS answer is discarded and plain MC resumes.
  AnalyzerOptions guarded;
  guarded.mc_samples = 10000;
  guarded.is_samples = 5000;
  guarded.adaptive.enabled = true;
  guarded.adaptive.rel_target = 0.3;
  guarded.adaptive.abs_target = 1e-4;
  const FailureAnalyzer guard{criteria_, sampler_, guarded};
  expect_golden(guard.estimate_6t(Mechanism::write, 0.70, 1 + 101, 1 + 777 + 1),
                {0x1.205bc01a36e2fp-10, 0x1.4217e3f157fcbp-11,
                 0x1.020ec02bb2875p-9, 0x1.6p+3, 10000, 12000, 4, false,
                 false});
}

TEST_F(McTest, GoldenRetention) {
  AnalyzerOptions o;
  o.mc_samples = 1500;
  o.is_samples = 1200;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  expect_golden(analyzer.retention_6t(0.15, 5),
                {0x1.2aaaaaaaaaaabp-6, 0x1.9e3f8985cc08ap-7,
                 0x1.ad98064763bf1p-6, 0x1.cp+4, 1536, 1536, 1, false, true});
  // IS fallback: the 1536 plain-MC samples spent first stay in the ledger.
  expect_golden(analyzer.retention_6t(0.20, 7),
                {0x1.a2b995479155ep-10, 0x0p+0, 0x1.018699f0b8362p-8,
                 0x1.acp+7, 1216, 1216 + 1536, 2, true, true});
}

TEST_F(McTest, GoldenAnalyzeAndTable) {
  AnalyzerOptions o;
  o.mc_samples = 2000;
  o.is_samples = 1000;
  const FailureAnalyzer analyzer{criteria_, sampler_, o};
  const CellFailureRates r6 = analyzer.analyze_6t(0.70, 3);
  expect_golden(r6.read_access,
                {0x1.e17ac568e2669p-9, 0x1.a5f2351a93c1ap-9,
                 0x1.0e81aadb9885cp-8, 0x1.8ep+9, 1024, 3072, 2, true, true});
  expect_golden(r6.write_fail,
                {0x1.bf78ed63c04a8p-19, 0x0p+0, 0x1.0acaa72f8d88ap-17,
                 0x1.8p+1, 1024, 3072, 2, true, true});
  expect_golden(r6.read_disturb,
                {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 1024, 3072, 2, true, true});
  const CellFailureRates r8 = analyzer.analyze_8t(0.50, 3);
  expect_golden(r8.read_access,
                {0x1.4f57f19d7333ep-16, 0x1.98d3529b698c9p-17,
                 0x1.d24639ed31a18p-16, 0x1.dap+7, 1024, 3072, 2, true, true});
  expect_golden(r8.write_fail,
                {0x1.e37f9a8077ab4p-18, 0x0p+0, 0x1.eda39435aab29p-17,
                 0x1.4p+4, 1024, 3072, 2, true, true});
  expect_golden(r8.read_disturb,
                {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 2000, 0, 1, false, true});

  const double grid[] = {0.55, 0.70};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  const FailureTableRow want[] = {
      {0x1.199999999999ap-1,
       {0x1.e6p-4, 0x1.f8p-6, 0x1.dd7f1d0578dcdp-29},
       {0x1.08d32a8463aa6p-25, 0x1.cd34eec357bc6p-27, 0x0p+0},
       0x1.ap+13, 0x1.cb1a798462794p-7},
      {0x1.6666666666666p-1,
       {0x1.eacacc1ab2175p-9, 0x1.6a41caac7ecf9p-23, 0x0p+0},
       {0x0p+0, 0x0p+0, 0x0p+0},
       0x1.ep+13, 0x1.bf9c94f7ca518p-12},
  };
  ASSERT_EQ(table.rows().size(), 2u);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < 2; ++i) {
    const FailureTableRow& got = table.rows()[i];
    const FailureTableRow& w = want[i];
    EXPECT_EQ(bits(got.vdd), bits(w.vdd));
    EXPECT_EQ(bits(got.cell6.read_access), bits(w.cell6.read_access));
    EXPECT_EQ(bits(got.cell6.write_fail), bits(w.cell6.write_fail));
    EXPECT_EQ(bits(got.cell6.read_disturb), bits(w.cell6.read_disturb));
    EXPECT_EQ(bits(got.cell8.read_access), bits(w.cell8.read_access));
    EXPECT_EQ(bits(got.cell8.write_fail), bits(w.cell8.write_fail));
    EXPECT_EQ(bits(got.cell8.read_disturb), bits(w.cell8.read_disturb));
    EXPECT_EQ(bits(got.samples), bits(w.samples));
    EXPECT_EQ(bits(got.ci_half_width), bits(w.ci_half_width));
  }
}

}  // namespace
}  // namespace hynapse::mc
