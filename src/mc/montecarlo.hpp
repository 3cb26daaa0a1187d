// Monte-Carlo failure-rate estimation for 6T/8T bitcells ("Monte Carlo
// simulations were run on a 256x256 SRAM sub-array to estimate the read
// access, read disturb, and write failure rates at different operating
// voltages", Section IV).
//
// Plain MC handles rates down to ~1e-4 cheaply; below that the analyzer
// switches to mean-shifted importance sampling along the dominant failure
// direction in dVT space -- the standard statistical-SRAM-yield technique
// (cf. Mukhopadhyay et al.), which the paper obtains from brute-force SPICE.
//
// Every estimator runs on one sampling core (montecarlo.cpp): one chunked
// kernel with two stream layouts (64 chunks seeded from (seed, chunk) for the
// fixed path; 16 jumped-ahead chunks per adaptive batch), one mean-shift
// helper that picks the IS proposal, one MC -> IS fallback and one adaptive
// batch step. The 6T and 8T entry points differ only in cell traits.
#pragma once

#include <cstdint>

#include "mc/criteria.hpp"
#include "mc/variation.hpp"

namespace hynapse::mc {

/// One estimated probability with a 95 % interval. For plain MC the interval
/// is the Wilson score; for importance sampling it is the delta-method
/// normal interval on the weighted estimator.
struct RateEstimate {
  double p = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  std::size_t trials = 0;
  double hits = 0.0;  ///< raw hits (MC) or effective weighted hits (IS)
  bool importance_sampled = false;
  /// Every sample spent producing this estimate, across phases: for the
  /// fixed path, the plain-MC trials plus (when the IS fallback fired) the
  /// IS trials; for the adaptive path, the cumulative batched total. This is
  /// the cost the adaptive sampler is minimizing.
  std::size_t total_samples = 0;
  std::size_t batches = 1;  ///< sequential sampling batches behind `p`
  /// Adaptive mode only: the CI target was met before the max-sample clamp
  /// (always true in fixed mode, which has no target).
  bool converged = true;

  [[nodiscard]] double ci_half_width() const noexcept {
    return 0.5 * (ci_hi - ci_lo);
  }
};

/// Confidence-interval family used by the adaptive stopping rule.
enum class IntervalKind { wilson, clopper_pearson };

/// Sequential, statistically-targeted sampling (docs/adaptive_mc.md).
/// Sampling runs in geometrically growing batches per (vdd, mechanism) and
/// stops as soon as the CI half-width is within
/// max(rel_target * p_hat, abs_target), subject to hard [min, max] sample
/// clamps. A mechanism that is demonstrably beyond plain-MC reach -- after
/// `tail_escape_samples` trials its CI upper bound projects fewer than
/// AnalyzerOptions::min_hits_for_mc hits over the full budget -- escapes to
/// batched importance sampling instead of burning the rest of the budget on
/// a near-zero rate. A consistency guard backstops the escape: an IS answer
/// below the lower confidence bound of the plain-MC hits already observed
/// is discarded (the mean-shift's moderate-p bias, not a tail) and plain MC
/// resumes to the budget. Batch boundaries depend only on the policy
/// and the deterministic cumulative (hits, trials) sequence, and every
/// batch derives its sample streams from (seed, batch index) plus
/// Rng::discard jump-ahead, so adaptive estimates are bit-identical for a
/// fixed policy regardless of thread count.
struct AdaptivePolicy {
  bool enabled = false;
  /// Stop when the CI half-width <= rel_target * p_hat (0 disables the
  /// relative criterion).
  double rel_target = 0.15;
  /// Absolute half-width floor: the looser of the two criteria wins, so a
  /// nonzero abs_target lets near-zero rates converge without hits.
  double abs_target = 0.0;
  double z = 1.96;  ///< confidence expressed in normal sigmas
  IntervalKind interval = IntervalKind::wilson;
  std::size_t batch_samples = 2000;  ///< first batch size
  double batch_growth = 2.0;         ///< geometric batch growth factor
  std::size_t min_samples = 2000;    ///< never stop before (hard clamp)
  /// Never exceed (hard clamp); 0 = AnalyzerOptions::mc_samples, so an
  /// adaptive estimate is never costlier than the fixed-mode MC phase.
  std::size_t max_samples = 0;
  /// Plain-MC trials after which a demonstrably rare mechanism (CI upper
  /// bound projecting under min_hits_for_mc hits across the full budget)
  /// switches to importance-sampled tail estimation; 0 = only at
  /// max_samples.
  std::size_t tail_escape_samples = 4000;
  /// Cap on the importance-sampled tail phase; 0 = AnalyzerOptions::
  /// is_samples.
  std::size_t max_is_samples = 0;
};

/// The three per-cell failure mechanisms at one operating voltage.
struct CellFailureRates {
  RateEstimate read_access;
  RateEstimate write_fail;
  RateEstimate read_disturb;
};

struct AnalyzerOptions {
  std::size_t mc_samples = 40000;
  std::size_t is_samples = 16000;
  /// Plain-MC hit count below which the analyzer re-estimates that mechanism
  /// with importance sampling.
  std::size_t min_hits_for_mc = 20;
  /// Mean-shift magnitude in units of sigma along the dominant direction.
  double is_beta = 3.5;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// CI-targeted sequential sampling; disabled means the fixed-sample path
  /// (the bit-exact oracle) runs unchanged.
  AdaptivePolicy adaptive;
};

class FailureAnalyzer {
 public:
  FailureAnalyzer(const FailureCriteria& criteria,
                  const VariationSampler& sampler, AnalyzerOptions opts = {});

  /// Estimates all three mechanisms for a 6T cell at vdd. Deterministic for
  /// a given seed regardless of thread count.
  [[nodiscard]] CellFailureRates analyze_6t(double vdd,
                                            std::uint64_t seed) const;
  /// Same for the 8T cell (read_disturb is identically zero by construction).
  [[nodiscard]] CellFailureRates analyze_8t(double vdd,
                                            std::uint64_t seed) const;

  /// One mechanism with the plain-MC -> importance-sampling fallback used by
  /// analyze_6t/analyze_8t. Exposed so FailureTable::build can schedule the
  /// full (voltage x cell-type x mechanism) job matrix on the thread pool
  /// with exactly the per-mechanism seeds the serial path used. Routes to
  /// adaptive_6t/adaptive_8t when options().adaptive is enabled.
  [[nodiscard]] RateEstimate estimate_6t(Mechanism m, double vdd,
                                         std::uint64_t mc_seed,
                                         std::uint64_t is_seed) const;
  [[nodiscard]] RateEstimate estimate_8t(Mechanism m, double vdd,
                                         std::uint64_t mc_seed,
                                         std::uint64_t is_seed) const;

  /// CI-targeted batched estimation (used by estimate_* when the policy is
  /// enabled; exposed for oracle-vs-adaptive validation). Same seed
  /// discipline as estimate_*: mc_seed drives the plain-MC phase, is_seed
  /// the importance-sampled tail phase.
  [[nodiscard]] RateEstimate adaptive_6t(Mechanism m, double vdd,
                                         std::uint64_t mc_seed,
                                         std::uint64_t is_seed) const;
  [[nodiscard]] RateEstimate adaptive_8t(Mechanism m, double vdd,
                                         std::uint64_t mc_seed,
                                         std::uint64_t is_seed) const;

  // Exposed for validation tests (IS-vs-MC agreement).
  [[nodiscard]] RateEstimate plain_mc_6t(Mechanism m, double vdd,
                                         std::size_t n,
                                         std::uint64_t seed) const;
  [[nodiscard]] RateEstimate importance_6t(Mechanism m, double vdd,
                                           std::size_t n,
                                           std::uint64_t seed) const;
  [[nodiscard]] RateEstimate plain_mc_8t(Mechanism m, double vdd,
                                         std::size_t n,
                                         std::uint64_t seed) const;
  [[nodiscard]] RateEstimate importance_8t(Mechanism m, double vdd,
                                           std::size_t n,
                                           std::uint64_t seed) const;

  /// Standby data-retention failure rate at a scaled hold voltage: the
  /// fixed path of estimate_6t on the hold limit state (plain MC with an
  /// importance-sampled fallback for the tail; is_seed = seed ^ 0xfeed).
  [[nodiscard]] RateEstimate retention_6t(double v_standby,
                                          std::uint64_t seed) const;

  [[nodiscard]] const AnalyzerOptions& options() const noexcept {
    return opts_;
  }

 private:
  const FailureCriteria* criteria_;
  const VariationSampler* sampler_;
  AnalyzerOptions opts_;
};

}  // namespace hynapse::mc
