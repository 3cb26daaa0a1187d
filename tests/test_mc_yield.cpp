#include "mc/yield.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/reference.hpp"
#include "mc/criteria.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"

namespace hynapse::mc {
namespace {

TEST(ArrayYield, CombinesMechanisms) {
  const BitcellFailureRates rates{1e-4, 5e-5, 1e-5};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_DOUBLE_EQ(y.p_cell, 1.6e-4);
  EXPECT_NEAR(y.p_word, 1.0 - std::pow(1.0 - 1.6e-4, 8), 1e-12);
  EXPECT_NEAR(y.expected_failures, 65536 * 1.6e-4, 1e-9);
}

TEST(ArrayYield, CleanProbabilityForTinyRates) {
  const BitcellFailureRates rates{1e-9, 0.0, 0.0};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_NEAR(y.p_array_clean, std::exp(-65536 * 1e-9), 1e-9);
  EXPECT_GT(y.p_array_clean, 0.99);
}

TEST(ArrayYield, HighRatesKillTheArray) {
  const BitcellFailureRates rates{0.01, 0.005, 0.0};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_LT(y.p_array_clean, 1e-100);
  EXPECT_GT(y.expected_failures, 900.0);
}

TEST(ArrayYield, RejectsBadGeometry) {
  const BitcellFailureRates rates{0.0, 0.0, 0.0};
  EXPECT_THROW((void)array_yield(rates, 0, 8), std::invalid_argument);
  EXPECT_THROW((void)array_yield(rates, 10, 0), std::invalid_argument);
}

TEST(Sparing, ZeroSparesEqualsCleanProbability) {
  const double p = 1e-5;
  const std::size_t cells = 65536;
  const double poisson0 = yield_with_sparing(p, cells, 0);
  EXPECT_NEAR(poisson0, std::exp(-p * cells), 1e-6);
}

TEST(Sparing, MoreSparesMonotonicallyImproveYield) {
  const double p = 5e-5;
  double prev = 0.0;
  for (std::size_t r : {0u, 1u, 2u, 4u, 8u, 16u}) {
    const double y = yield_with_sparing(p, 65536, r);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_GT(prev, 0.999);  // 16 spares cover lambda ~ 3.3 comfortably
}

TEST(Sparing, RejectsBadProbability) {
  EXPECT_THROW((void)yield_with_sparing(-0.1, 100, 1), std::invalid_argument);
  EXPECT_THROW((void)yield_with_sparing(1.1, 100, 1), std::invalid_argument);
}

// --- retention Monte-Carlo ---------------------------------------------------

class RetentionMcTest : public ::testing::Test {
 protected:
  RetentionMcTest()
      : tech_{circuit::ptm22()},
        s6_{circuit::reference_sizing_6t(tech_)},
        s8_{circuit::reference_sizing_8t(tech_)},
        array_{tech_, sram::SubArrayGeometry{}, s6_},
        cycle_{tech_, array_, circuit::Bitcell6T{tech_, s6_}},
        sampler_{tech_, s6_, s8_},
        criteria_{tech_, cycle_, s6_, s8_} {}

  AnalyzerOptions fast() const {
    AnalyzerOptions o;
    o.mc_samples = 1500;
    o.is_samples = 1200;
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

TEST_F(RetentionMcTest, NominalHoldMetricNegativeAtOperatingVdd) {
  const circuit::Variation6T none{};
  EXPECT_LT(criteria_.hold_metric_6t(none, 0.65), 0.0);
}

TEST_F(RetentionMcTest, RetentionFailuresRiseAsStandbyDrops) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast()};
  const RateEstimate high = analyzer.retention_6t(0.50, 5);
  const RateEstimate low = analyzer.retention_6t(0.30, 5);
  EXPECT_GE(low.p, high.p);
  EXPECT_GT(low.p, 0.0);
}

TEST_F(RetentionMcTest, FallbackKeepsPlainMcSamplesInTheLedger) {
  // At 0.20 V the 1500-sample plain-MC phase sees too few hits, so the
  // importance-sampled fallback answers. Like estimate_6t, the result must
  // still count the plain-MC samples it spent (rounded up to the 64-chunk
  // grid) and both phases as batches.
  const FailureAnalyzer analyzer{criteria_, sampler_, fast()};
  const RateEstimate est = analyzer.retention_6t(0.20, 7);
  ASSERT_TRUE(est.importance_sampled);
  EXPECT_EQ(est.total_samples, est.trials + 1536u);
  EXPECT_EQ(est.batches, 2u);
}

TEST_F(RetentionMcTest, RetentionSafeAtOperatingVoltages) {
  const FailureAnalyzer analyzer{criteria_, sampler_, fast()};
  const RateEstimate op = analyzer.retention_6t(0.65, 7);
  EXPECT_LT(op.p, 1e-4);
}

}  // namespace
}  // namespace hynapse::mc
